"""Benchmark of starknls: run one workload for a fixed time, check it, report.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/``. Each pass of the workload runs in a fresh interpreter
(``workload.py``), because the first pass of a process is what ``starknls
run`` pays and because it keeps one pass's allocator history and peak RSS
out of the next. Passes run back to back until ``--seconds`` would be
exceeded, with at least one. Left-over time goes to set-up-only passes, and
a run has at least three set-up samples. Every pass's bundle is checked
(``checks.py``); a failed check counts as a failed operation.

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
passes. With ``--trace 1`` each untraced pass is followed by a traced one
(``layers.py``); the metrics are the per-layer ones, medians over the traced
passes, plus the tracing overhead against the untraced passes. The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
PASS_TIMEOUT_S = 170.0
MIN_SETUP_SAMPLES = 3
OPS_PER_PASS = {"threshold_sweep_1d": len(inputs.SWEEP["c_values"])}


def run_pass(workload, seed, out, *, trace=False, setup_only=False, timeout=PASS_TIMEOUT_S):
    """One fresh-interpreter pass; returns its JSON record, or None."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 10.0))
    except subprocess.TimeoutExpired:
        print(f"{workload}: pass timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{workload}: pass exited {proc.returncode}\n{proc.stderr[-3000:]}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_pass(workload, seed, out) -> tuple[int, list[str]]:
    """Failed operations of one pass and the failure lines."""
    if workload == "threshold_sweep_1d":
        members = checks.check_sweep(out, seed)
    else:
        members = [checks.Checks()]
        if workload == "collapse_1d":
            checks.check_collapse(members[0], out, seed)
        elif workload == "stark_global_1d":
            checks.check_stark(members[0], out, seed)
        else:
            checks.check_ground_state_3d(members[0], out)
    failures = [line for m in members for line in m.failures()]
    return sum(not m.ok for m in members), failures


def layer_metrics(record) -> dict:
    """Per-layer metrics of one traced pass: deltas over the run, except the
    set-up layers (ground state, config), which count the whole pass."""
    trace = record["trace"]
    after, before = trace["after"], trace["before"]

    def run_delta(kind, key):
        return after[kind].get(key, 0) - before[kind].get(key, 0)

    steps = max(record["steps"], 1)
    evolve_s = run_delta("seconds", "evolve")
    observers_s = run_delta("seconds", "evolve_observers")
    iterations = after["calls"].get("solver_iterations", 0)
    return {
        "spectral.fft_calls_per_step": run_delta("calls", "fft") / steps,
        "spectral.fft_s": run_delta("seconds", "fft"),
        "spectral.fft_mb_per_step": run_delta("bytes", "fft") / 1e6 / steps,
        "propagator.evolve_s": evolve_s,
        "propagator.self_us_per_step": (evolve_s - observers_s) * 1e6 / steps
        if evolve_s else 0.0,
        "gauge.ah_forward_calls": run_delta("calls", "ah_forward"),
        "gauge.ah_forward_s": run_delta("seconds", "ah_forward"),
        "diagnostics.sample_calls": run_delta("calls", "sample"),
        "diagnostics.sample_s": run_delta("seconds", "sample"),
        "diagnostics.fit_s": run_delta("seconds", "fit"),
        "diagnostics.law_checks_s": run_delta("seconds", "law_checks"),
        "ground_state.iterations": iterations,
        "ground_state.us_per_iteration": after["seconds"].get("petviashvili", 0.0)
        * 1e6 / iterations if iterations else 0.0,
        "config.build_initial_field_s": after["seconds"].get("build_initial_field", 0.0),
        "storage.write_s": run_delta("seconds", "storage"),
        "storage.mb_written": run_delta("bytes", "storage") / 1e6,
        "harness.run_scenario_s": run_delta("seconds", "run_scenario"),
        "harness.cpu_util": record["cpu_s"] / record["run_s"],
        "process.minor_faults_per_step": record["minor_faults"] / steps,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "starknls" / "__init__.py").is_file():
        print(f"error: no src/starknls under {ROOT}; run from a starknls checkout",
              file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    name, seed, trace = args.workload, args.seed, bool(args.trace)
    out = OUT / name
    start = time.monotonic()
    passes, traced = [], []
    attempted = failed = rounds = 0
    longest = 0.0

    def elapsed():
        return time.monotonic() - start

    while rounds == 0 or elapsed() + longest <= args.seconds:
        rounds += 1
        t0 = time.monotonic()
        for is_traced in ((False, True) if trace else (False,)):
            record = run_pass(name, seed, out, trace=is_traced,
                              timeout=PASS_TIMEOUT_S - elapsed())
            attempted += OPS_PER_PASS.get(name, 1)
            if record is None:
                failed += OPS_PER_PASS.get(name, 1)
                continue
            n_failed, lines = check_pass(name, seed, out)
            failed += n_failed
            for line in lines:
                print(f"{name}: check failed: {line}", file=sys.stderr)
            (traced if is_traced else passes).append(record)
        longest = max(longest, time.monotonic() - t0)

    setups = [r["setup_s"] for r in passes]
    probe = max((r["setup_s"] for r in passes), default=0.0) + 0.5
    while not trace and passes and (
        len(setups) < MIN_SETUP_SAMPLES or elapsed() + probe <= args.seconds
    ):
        record = run_pass(name, seed, out, setup_only=True, timeout=60.0)
        if record is None:
            break
        setups.append(record["setup_s"])
    shutil.rmtree(out, ignore_errors=True)
    try:
        OUT.rmdir()
    except OSError:
        pass                            # another workload's output is still there

    def median(values):
        return statistics.median(values) if values else 0.0

    if trace:
        per_pass = [layer_metrics(r) for r in traced]
        metrics = {key: median([m[key] for m in per_pass]) for key in per_pass[0]} \
            if per_pass else {}
        if traced and passes:
            metrics["trace.overhead_pct"] = 100.0 * (
                median([r["run_s"] for r in traced]) / median([r["run_s"] for r in passes])
                - 1.0
            )
        units = spec["per_layer"]
        absent = sorted({n for r in traced for n in r["trace"]["absent"]})
        if absent:
            print(f"{name}: absent from the program: {', '.join(absent)}")
    else:
        metrics = {
            "run_s": median([r["run_s"] for r in passes]),
            "step_us": median([r["run_s"] / max(r["steps"], 1) * 1e6 for r in passes]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in passes]),
            "setup_s": median(setups),
        }
        units = spec["end_to_end"]
    # a metric reads 0 only when no pass produced it
    result = {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
              for m in units}

    n = len(traced if trace else passes)
    print(f"{name}: seed {seed}, {n} {'traced ' if trace else ''}passes, "
          f"{len(setups)} set-up samples, {elapsed():.1f} s")
    for key, entry in result.items():
        print(f"  {key:34s} {entry['value']:14.6g} {entry['unit']}")
    print(f"  attempted {attempted}, failed {failed}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Alternating parent/change pairs of the benchmark, written to BENCH_<label>.json.

    python3 tools/bench_pairs.py PARENT WORKLOAD --seed 7 --pairs 10 --label NAME

Run from the root of a starknls checkout; that checkout (its working tree,
uncommitted changes included) is the change. PARENT is any git revision: it
is exported with ``git archive`` into a temporary directory, removed at exit,
so an interrupted run leaves nothing behind in the repository. Each pair runs
``benchmark/run.py --workload W --seed S --seconds T --trace 0`` once on each
side, every side with its own unchanged benchmark, T being ``run_seconds`` of
the change's ``BENCHMARK.json``; even pairs run the parent first, odd pairs the
change. One run at a time, so the two sides never share the machine.

The results go under ``workloads["WORKLOAD@seedS"]`` of BENCH_<label>.json in
the current directory, next to the entries of earlier calls with the same
label: every pair's four end-to-end metrics with attempted and failed
operations, and per metric each side's median and quartiles (inclusive
method) over the pairs, the relative change of the medians, the parent's and
the change's interquartile spread relative to their medians, the benchmark's
bound, and the number of pairs the change read strictly better.

After the pairs, one more untimed pass per side (``benchmark/workload.py``,
the command ``run.py`` runs for each pass) writes the workload's bundle to
that side's ``.bench_out/WORKLOAD``; ``run.py`` removes its own bundles when
it is done. The entry lists under ``bundle_bytes`` every file whose bytes
differ between the two sides or that only one side wrote. A bundle whose
config echoes an input path (the perturbed initial field) differs in
``config_echo.cfg`` by that path alone. For each differing field snapshot
(``.dnls``) that both sides wrote, ``dnls_rel_diff`` gives max |change -
parent| / max |parent| over its samples (read with ``benchmark/bundle.py``;
null when the shapes differ), so a change that moves only round-off reads as
one.

One ``--trace 1`` run per side follows (parent first), so the entry also
holds each side's per-layer metrics, which the benchmark reports as medians
over the traced passes of that run: the layer that moved.

``src_lines`` gives the line count of ``src/**/*.py`` in the parent export and
in the checkout, so the file states the change's net ``src/`` lines.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from importlib import metadata
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
METRICS = ("run_s", "step_us", "peak_rss_mb", "setup_s")


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export_revision(rev: str, dest: Path) -> None:
    """The tracked files of rev, as committed, under dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_side(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One benchmark run on one checkout: every metric it reports by name
    (the four end-to-end ones untraced, the per-layer ones traced) with its
    operation counts, or the error that kept it from reporting."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    row = {name: m["value"] for name, m in report["metrics"].items()}
    row.update(attempted=report["attempted"], failed=report["failed"])
    return row


def bundle_pass(checkout: Path, workload: str, seed: int) -> Path:
    """One untimed workload pass on checkout into its .bench_out/WORKLOAD,
    the directory benchmark/run.py gives each pass; returns the directory."""
    out = checkout / ".bench_out" / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    subprocess.run([sys.executable, "benchmark/workload.py", "--workload", workload,
                    "--seed", str(seed), "--out", str(out),
                    "--spawned", repr(time.monotonic())],
                   cwd=checkout, check=True, capture_output=True, text=True)
    return out


def bundle_bytes(parent: Path, change: Path) -> dict:
    """The files of two bundles that differ in bytes or exist on one side only."""
    names = {p.relative_to(root).as_posix()
             for root in (parent, change) for p in root.rglob("*") if p.is_file()}
    differ = sorted(
        name for name in names
        if not ((parent / name).is_file() and (change / name).is_file()
                and (parent / name).read_bytes() == (change / name).read_bytes())
    )
    deviation = {}
    for name in differ:
        if name.endswith(".dnls") and (parent / name).is_file() and (change / name).is_file():
            a, _ = benchmark_bundle().read_dnls(parent / name)
            b, _ = benchmark_bundle().read_dnls(change / name)
            deviation[name] = (float(np.max(np.abs(b - a)) / np.max(np.abs(a)))
                               if a.shape == b.shape else None)
    return {"files": len(names), "differ": differ, "dnls_rel_diff": deviation}


@functools.cache
def benchmark_bundle():
    """benchmark/bundle.py of this checkout, loaded by path."""
    spec = importlib.util.spec_from_file_location("bundle", ROOT / "benchmark" / "bundle.py")
    bundle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bundle)
    return bundle


def src_lines(checkout: Path) -> int:
    """Lines of the Python sources under checkout/src, as wc -l counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src").rglob("*.py"))


def side_stats(values: list[float]) -> dict:
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return {"median": v, "q1": v, "q3": v}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], end_to_end: dict) -> dict:
    done = [p for p in pairs if "error" not in p["parent"] and "error" not in p["change"]]
    summary = {}
    for name in METRICS:
        lower = end_to_end[name]["better"] == "lower"
        sides = {side: side_stats([p[side][name] for p in done])
                 for side in ("parent", "change")}
        parent, change = sides["parent"], sides["change"]
        better = sum((p["change"][name] < p["parent"][name]) if lower
                     else (p["change"][name] > p["parent"][name]) for p in done)
        summary[name] = {
            **sides,
            "rel_change": change["median"] / parent["median"] - 1.0,
            "parent_iqr_rel": (parent["q3"] - parent["q1"]) / parent["median"],
            "change_iqr_rel": (change["q3"] - change["q1"]) / change["median"],
            "bound": end_to_end[name]["bound"],
            "change_better": better,
            "pairs": len(done),
        }
    summary["operations"] = {
        side: {key: sum(p[side].get(key, 0) for p in pairs)
               for key in ("attempted", "failed")}
        for side in ("parent", "change")
    }
    summary["operations"]["runs_without_report"] = len(pairs) - len(done)
    return summary


def machine() -> dict:
    info = {"cores": os.cpu_count(), "kernel": platform.release()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        kb = Path("/proc/meminfo").read_text().split()[1]
        info["mem_gb"] = round(int(kb) / 2**20, 1)
    except OSError:
        pass                            # not Linux: cores and kernel only
    return info


def versions() -> dict:
    libc, libc_version = platform.libc_ver()
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "libc": f"{libc} {libc_version}".strip(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="git revision of the parent side")
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    args = ap.parse_args(argv)
    if not (ROOT / "benchmark" / "run.py").is_file():
        print(f"error: no benchmark/run.py under {ROOT}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    seconds = float(spec["run_seconds"])
    parent_sha = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench_parent_") as tmp:
        parent_dir = Path(tmp)
        export_revision(parent_sha, parent_dir)
        lines = {"parent": src_lines(parent_dir), "change": src_lines(ROOT)}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"pair": i, "first": order[0]}
            for side in order:
                pair[side] = run_side(parent_dir if side == "parent" else ROOT,
                                      args.workload, args.seed, seconds)
            pairs.append(pair)
            print(f"pair {i}: " + "  ".join(
                f"{side} " + (f"setup_s {pair[side]['setup_s']:.3f} run_s "
                              f"{pair[side]['run_s']:.3f}"
                              if "error" not in pair[side] else "no report")
                for side in ("parent", "change")), flush=True)
        try:
            bundles = bundle_bytes(bundle_pass(parent_dir, args.workload, args.seed),
                                   bundle_pass(ROOT, args.workload, args.seed))
        except subprocess.CalledProcessError as exc:
            bundles = {"error": f"exit {exc.returncode}: {exc.stderr[-2000:]}"}
        finally:
            shutil.rmtree(ROOT / ".bench_out" / args.workload, ignore_errors=True)
            try:
                (ROOT / ".bench_out").rmdir()
            except OSError:
                pass                    # absent, or another workload's output is there
        print(f"bundle bytes: {bundles}", flush=True)
        traced = {side: run_side(parent_dir if side == "parent" else ROOT,
                                 args.workload, args.seed, seconds, trace=1)
                  for side in ("parent", "change")}
        print("traced: " + "  ".join(
            f"{side} " + ("done" if "error" not in traced[side] else "no report")
            for side in ("parent", "change")), flush=True)

    out = ROOT / f"BENCH_{args.label}.json"
    bench = json.loads(out.read_text()) if out.exists() else {"label": args.label}
    bench.update(
        parent=parent_sha,
        change=git("rev-parse", "HEAD") + (" with uncommitted changes" if dirty else ""),
        machine=machine(),
        versions=versions(),
        src_lines=lines,
        command=f"python3 benchmark/run.py --workload W --seed S "
                f"--seconds {seconds:g} --trace 0",
        method="Each pair runs the command once on an export of the parent and "
               "once on the change, alternating which side runs first. Each run "
               "reports medians over its own passes; the summary gives the median "
               "and quartiles (inclusive method) of those per-run values over the "
               "pairs. 'change_better' counts pairs where the change read strictly "
               "better; 'rel_change' is the change median over the parent median, "
               "minus 1.",
    )
    bench.setdefault("workloads", {})[f"{args.workload}@seed{args.seed}"] = {
        "summary": summarize(pairs, end_to_end),
        "pairs": pairs,
        "bundle_bytes": bundles,
        "per_layer": {
            "command": f"python3 benchmark/run.py --workload {args.workload} "
                       f"--seed {args.seed} --seconds {seconds:g} --trace 1",
            **traced,
        },
    }
    out.write_text(json.dumps(bench, indent=2) + "\n")
    print(f"-> {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

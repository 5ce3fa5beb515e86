"""One pass of one workload, in a fresh interpreter started by run.py.

    python3 benchmark/workload.py --workload NAME --seed N --out DIR
        --spawned T [--trace] [--setup-only]

Set-up runs from process start (``--spawned`` is the parent's monotonic
clock just before it started this process) to the initial field being
ready: the imports, config parsing and the ground state the initial data
needs. The run goes from there to the written bundle; for the ground state
it is the solve. The pass prints one JSON object on its last line.

The program is imported from ``src/`` of the current directory, never from
an installed copy.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import bundle
import inputs

SRC = Path.cwd() / "src"

COLLAPSE_CFG = """
[scenario]
id = collapse_1d
t_end = 20
[grid]
n = 1
N = {N}
L = {L}
[physics]
a = {a}
E = 0
[initial]
recipe = quadratic_phase_q
c = {c}
b = {b}
[controller]
grad_stop = {grad_stop}
[observers]
sample_every_steps = 1
snapshot_grad_factor = {snapshot_grad_factor}
[output]
write_snapshots = true
"""

STARK_CFG = """
[scenario]
id = stark_global_1d
t_end = {t_end}
[grid]
n = 1
N = {N}
L = {L}
[physics]
a = {a}
E = {E}
[initial]
recipe = scaled_q
c = {c}
[observers]
sample_every_steps = {sample_every}
"""

SWEEP_CFG = """
[scenario]
id = threshold_sweep_1d
t_end = {t_end}
[grid]
n = 1
N = {N}
L = {L}
[physics]
a = {a}
E = {E!r}
[initial]
recipe = quadratic_phase_q
b = {b!r}
[controller]
grad_stop = {grad_stop}
"""


def _perturbed(sk, cfg, name, seed, out):
    """Add the seeded perturbation to the recipe's field and reload it
    through the snapshot recipe."""
    u0 = cfg.build_initial_field()
    x = inputs.grid_x(cfg.N[0], cfg.L[0])
    field = sk.Field(u0.grid, u0.data + inputs.perturbation(name, seed, x))
    path = out / "initial.dnls"
    sk.storage.write_snapshot(path, field)
    return cfg.apply_overrides(["initial.recipe=snapshot", f"initial.path={path}"])


def setup(sk, name, seed, out):
    """Build the workload's inputs; returns the timed call."""
    if name == "ground_state_3d":
        p = inputs.GROUND_STATE_3D
        grid = sk.GridSpec.create(3, p["L"], p["N"])
        width = inputs.seed_width(seed)
        return lambda: sk.ground_state.petviashvili(grid, seed_width=width)
    if name == "threshold_sweep_1d":
        p = dict(inputs.SWEEP, **inputs.sweep_params(seed))
        cfg = sk.ScenarioConfig.from_text(SWEEP_CFG.format(**p))
        cfg.build_initial_field()       # solves the ground state the members share
        spec = sk.harness.SweepSpec(parameter="c", values=p["c_values"],
                                    parallelism=inputs.SWEEP["parallelism"])
        return lambda: sk.harness.sweep(spec, cfg, out / "sweep")
    template = COLLAPSE_CFG if name == "collapse_1d" else STARK_CFG
    params = inputs.COLLAPSE if name == "collapse_1d" else inputs.STARK
    cfg = sk.ScenarioConfig.from_text(template.format(**params))
    cfg = _perturbed(sk, cfg, name, seed, out)
    return lambda: sk.harness.run_scenario(cfg, out_dir=out / "bundle")


def _record_warning_times(sk):
    """summary.csv names a run's warnings but not when the first one fired;
    the momentum check needs that time, so keep it next to the bundle."""
    run = sk.harness.run_scenario

    def wrapper(*args, **kwargs):
        result = run(*args, **kwargs)
        try:
            times = [float(w[1]) for w in result.traj.warnings]
        except (AttributeError, TypeError, IndexError):
            times = []
        if times and result.out_dir is not None:
            path = Path(result.out_dir) / "first_warning.json"
            path.write_text(json.dumps({"t": min(times)}))
        return result

    sk.harness.run_scenario = wrapper


def _import_program():
    sys.path.insert(0, str(SRC))
    import starknls
    import starknls.harness
    import starknls.ground_state
    import starknls.storage

    origin = Path(starknls.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"starknls imported from {origin}, not from {SRC}")
    return starknls


def _usage():
    self_ = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = self_.ru_utime + self_.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, self_.ru_minflt + kids.ru_minflt


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        tracer.install_fft()
    sk = _import_program()
    if tracer is not None:
        tracer.install_layers()
    _record_warning_times(sk)

    call = setup(sk, args.workload, args.seed, out)
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    before = tracer.snapshot() if tracer else None
    cpu0, faults0 = _usage()
    t0 = time.monotonic()
    result = call()
    run_s = time.monotonic() - t0
    cpu1, faults1 = _usage()

    if args.workload == "ground_state_3d":
        steps = int(result.iterations)
        sk.storage.write_snapshot(out / "ground_state.dnls", result.profile)
    elif args.workload == "threshold_sweep_1d":
        steps = sum(
            int(bundle.read_summary(out / "sweep" / f"c_{i:03d}" / "summary.csv")["steps"])
            for i in range(len(inputs.SWEEP["c_values"]))
        )
    else:
        steps = int(bundle.read_summary(out / "bundle" / "summary.csv")["steps"])

    record = {
        "setup_s": setup_s,
        "run_s": run_s,
        "steps": steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cpu_s": cpu1 - cpu0,
        "minor_faults": faults1 - faults0,
    }
    if tracer is not None:
        record["trace"] = {
            "before": before,
            "after": tracer.snapshot(),
            "absent": tracer.absent,
        }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Verbs:

    starknls ground-state --dim 1 --points 1024 --half-width 20 --out DIR
    starknls run CONFIG [--out DIR] [--set section.key=value ...]
    starknls check-laws CONFIG [--out DIR] [--set ...]
    starknls fit-blowup RUN_DIR_OR_TRAJECTORY_CSV [--stop-reason REASON]
    starknls bisect-a CONFIG --a-lo 0.001 --a-hi 2 [--t-cap 20] [--resolution R]
    starknls threshold-scan CONFIG --c-values 0.8,0.9,1.0,1.1,1.2
    starknls convergence CONFIG [--dts ...] [--Ns ...]
    starknls sweep CONFIG --param a --values 0.01,0.1,1 [--parallel K] --out DIR

The environment variable STARKNLS_OUTPUT_ROOT prefixes relative output
directories. run and check-laws exit with the code of the run's outcome
(propagator.EXIT_CODES: 0 global, 2 blowup, 1 error); sweep exits 1 when a
member's outcome is error, else 0. Every verb exits 1 on an error it reports.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import diagnostics, harness
from .config import ScenarioConfig
from .errors import StarkNLSError
from .ground_state import ground_state_energy, petviashvili
from .propagator import StopReason, TrajectoryRecord
from .spectral import GridSpec
from .storage import (
    fmt_float,
    read_trajectory_csv,
    write_report_csv,
    write_snapshot,
)


def _load_cfg(args) -> ScenarioConfig:
    cfg = ScenarioConfig.from_file(args.config)
    if getattr(args, "set", None):
        cfg = cfg.apply_overrides(args.set)
    return cfg


def _cmd_ground_state(args) -> int:
    grid = GridSpec.create(args.dim, args.half_width, args.points)
    gs = petviashvili(grid, tol=args.tol)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_snapshot(out / "ground_state.dnls", gs.profile)
    e0 = ground_state_energy(gs)
    pohozaev_dev = abs(gs.grad_sq - 0.5 * args.dim * gs.mass_sq) / gs.mass_sq
    write_report_csv(out / "ground_state_report.csv", [{
        "dim": args.dim,
        "points": args.points,
        "half_width": float(args.half_width),
        "iterations": gs.iterations,
        "residual": gs.residual,
        "mass_sq": gs.mass_sq,
        "grad_sq": gs.grad_sq,
        "threshold": gs.threshold,
        "energy": e0,
        "pohozaev_rel_dev": pohozaev_dev,
    }])
    print(f"ground state: threshold {gs.threshold:.9f}, "
          f"residual {gs.residual:.3e}, {gs.iterations} iterations -> {out}")
    return 0


def _cmd_run(args) -> int:
    cfg = _load_cfg(args)
    result = harness.run_scenario(cfg, out_dir=args.out)
    print(f"{cfg.scenario_id}: stop={result.traj.stop_trigger} "
          f"t_final={result.state.t:.6f} -> {result.out_dir}")
    return result.exit_code


def _cmd_check_laws(args) -> int:
    cfg = _load_cfg(args)
    result = harness.run_scenario(cfg, out_dir=args.out)
    for report in result.law_checks:
        print(f"{report.law_id}: max_rel_dev={report.max_rel_dev:.3e}  {report.notes}")
    return result.exit_code


def load_bundle_record(target, stop_reason: str | None = None) -> TrajectoryRecord:
    """The TrajectoryRecord of a run directory or a bare trajectory CSV.

    The stop reason comes from stop_reason if given, else from the
    directory's summary.csv; a bare CSV needs it given.
    """
    target = Path(target)
    csv_path = target / "trajectory.csv" if target.is_dir() else target
    cols = read_trajectory_csv(csv_path)
    missing = [name for name in ("t", "grad_norm_sq") if name not in cols]
    if missing:
        raise StarkNLSError(f"{csv_path}: no {' or '.join(missing)} column")
    stop = stop_reason
    if stop is None and target.is_dir():
        try:
            summary = (target / "summary.csv").read_text().splitlines()
        except OSError as exc:
            raise StarkNLSError(
                f"{target}: cannot read summary.csv ({exc.strerror}); "
                "supply --stop-reason"
            ) from None
        for line in summary:
            if line.startswith("stop_reason,"):
                stop = line.split(",", 1)[1]
    if stop is None:
        raise StarkNLSError("supply --stop-reason for a bare trajectory CSV")
    try:
        reason = StopReason(stop)  # argparse checks --stop-reason itself
    except ValueError:
        raise StarkNLSError(f"{target}: unknown stop_reason {stop!r}") from None
    return TrajectoryRecord(columns=cols, stop_reason=reason)


def _cmd_fit_blowup(args) -> int:
    record = load_bundle_record(args.target, args.stop_reason)
    report = diagnostics.detect_blowup_and_fit(record)
    print(f"blew_up={report.blew_up} T_star_est={report.T_star_est:.6f} "
          f"gamma={report.rate_exponent:.4f} "
          f"loglog_residual={report.loglog_residual:.4g} "
          f"power_residual={report.power_residual:.4g} "
          f"sqrt_rate_residual={report.sqrt_rate_residual:.4g} "
          f"unreliable={report.fit_unreliable}")
    return 0


def _cmd_bisect_a(args) -> int:
    cfg = _load_cfg(args)
    result = harness.a_star_bisection(
        cfg, args.a_lo, args.a_hi, t_cap=args.t_cap, resolution=args.resolution
    )
    print(f"bracket: blow-up at a={result.a_lo:.6g}, survival at a={result.a_hi:.6g}")
    print(f"monotone outcome pattern: {result.monotone_pattern()}")
    for a, blew in sorted(result.tested):
        print(f"  a={a:.6g}: {'blow-up' if blew else 'survived'}")
    return 0


def _cmd_threshold_scan(args) -> int:
    cfg = _load_cfg(args)
    c_values = [float(v) for v in args.c_values.split(",")]
    rows = harness.threshold_scan(cfg, c_values)
    for row in rows:
        extra = f" T*={row['T_star_est']:.4f}" if "T_star_est" in row else ""
        note = f"  [{row['notes']}]" if row.get("notes") else ""
        print(f"c={row['c']:.4g}: {row['outcome']}{extra}{note}")
    if args.out:
        keys = ["c", "outcome", "t_final", "notes"]
        write_report_csv(Path(args.out), [{k: r.get(k, "") for k in keys} for r in rows])
    return 0


def _cmd_convergence(args) -> int:
    cfg = _load_cfg(args)
    dts = [float(v) for v in args.dts.split(",")]
    Ns = [int(v) for v in args.Ns.split(",")]
    rep = harness.convergence_study(cfg, dt_values=dts, N_values=Ns)
    print("temporal: dt errors", " ".join(fmt_float(e) for e in rep["dt_errors"]))
    print("          orders   ", " ".join(f"{o:.3f}" for o in rep["dt_orders"]))
    print("spatial:  N errors ", " ".join(fmt_float(e) for e in rep["N_errors"]))
    print("          drops    ", " ".join(f"{d:.1f}" for d in rep["N_drops"]))
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_cfg(args)
    values = args.values.split(",")
    spec = harness.SweepSpec(
        parameter=args.param, values=tuple(values), parallelism=args.parallel
    )
    rows = harness.sweep(spec, cfg, args.out)
    for row in rows:
        print(f"{args.param}={row[args.param]}: {row['outcome']}")
    return 1 if any(r["outcome"] == "error" for r in rows) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starknls",
        description="Pseudo-spectral laboratory for the damped mass-critical "
        "Schroedinger equation with a uniform-field potential.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("ground-state", help="compute and export a ground state")
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--points", type=int, default=1024)
    p.add_argument("--half-width", type=float, default=20.0)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default="ground_state")
    p.set_defaults(func=_cmd_ground_state)

    def add_cfg(p):
        p.add_argument("config")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override a config value")

    p = sub.add_parser("run", help="run one scenario")
    add_cfg(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("check-laws", help="run a scenario and check the "
                       "modified conservation laws")
    add_cfg(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_check_laws)

    p = sub.add_parser("fit-blowup", help="fit T* and the collapse rate of a "
                       "recorded trajectory")
    p.add_argument("target", help="run directory or trajectory CSV")
    p.add_argument("--stop-reason", default=None,
                   choices=[s.value for s in StopReason])
    p.set_defaults(func=_cmd_fit_blowup)

    p = sub.add_parser("bisect-a", help="bisect the damping transition")
    add_cfg(p)
    p.add_argument("--a-lo", type=float, required=True)
    p.add_argument("--a-hi", type=float, required=True)
    p.add_argument("--t-cap", type=float, default=None)
    p.add_argument("--resolution", type=float, default=0.05)
    p.set_defaults(func=_cmd_bisect_a)

    p = sub.add_parser("threshold-scan", help="classify global vs blow-up "
                       "along the initial-mass axis")
    add_cfg(p)
    p.add_argument("--c-values", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_threshold_scan)

    p = sub.add_parser("convergence", help="temporal and spatial convergence study")
    add_cfg(p)
    p.add_argument("--dts", default="4e-3,2e-3,1e-3")
    p.add_argument("--Ns", default="256,512,1024")
    p.set_defaults(func=_cmd_convergence)

    p = sub.add_parser("sweep", help="parallel parameter sweep")
    add_cfg(p)
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--parallel", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StarkNLSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

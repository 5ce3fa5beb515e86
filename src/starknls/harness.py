"""Scenario runner, parameter sweeps, threshold scans, bisection of the
damping transition, and convergence studies.

A scenario run writes a deterministic artifact bundle:

    config_echo.cfg      canonical configuration (reruns byte-identically)
    trajectory.csv       fixed-order diagnostic series
    summary.csv          key,value rows describing the outcome
    law_checks.csv       one row per checked evolution law
    blowup_report.csv    present when the run stopped in a blow-up
    plots/<name>.dat     two-column headered series for plotting
    snapshots/*.dnls     binary field snapshots (optional)

Exit codes: 0 global run reaching t_end, 2 blow-up stop (an expected outcome,
not a failure), 1 error (divergence or resolution loss).
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import diagnostics
from .config import ScenarioConfig
from .errors import BracketError, ConfigError, StarkNLSError
from .ground_state import threshold_mass
from .propagator import (
    BLOWUP_STOPS,
    Backend,
    SimState,
    StopReason,
    TrajectoryRecord,
    evolve,
)
from .spectral import Field
from .storage import (
    fmt_float,
    write_plot_data,
    write_report_csv,
    write_snapshot,
    write_trajectory_csv,
)

OUTPUT_ROOT_ENV = "STARKNLS_OUTPUT_ROOT"


def resolve_out_dir(cfg: ScenarioConfig, out_dir=None) -> Path:
    base = out_dir if out_dir else (cfg.out_dir or cfg.scenario_id)
    root = os.environ.get(OUTPUT_ROOT_ENV, "")
    path = Path(root) / base if root and not Path(base).is_absolute() else Path(base)
    return path


@dataclass
class RunResult:
    cfg: ScenarioConfig
    out_dir: Path | None
    state: SimState
    traj: TrajectoryRecord
    blowup: object | None
    exit_code: int
    summary: dict
    law_checks: list | None  # the rows of law_checks.csv; None unless written


def _execute(cfg: ScenarioConfig):
    """Build initial data and integrate; no file output."""
    u0 = cfg.build_initial_field()
    state = SimState(
        t=0.0, field=u0, params=cfg.phys_params(), backend=cfg.backend
    )
    return evolve(state, cfg.t_end, cfg.controller(), cfg.hooks())


def _exit_code(stop: StopReason) -> int:
    if stop is StopReason.T_END:
        return 0
    if stop in BLOWUP_STOPS:
        return 2
    return 1


def run_scenario(cfg: ScenarioConfig, out_dir=None, write=True) -> RunResult:
    """Run one scenario and write its artifact bundle.

    The special scenario id "ah_equivalence" runs both backends on the same
    data and adds the terminal L2 difference to the summary.
    """
    final, traj = _execute(cfg)
    blowup = None
    if traj.blew_up:
        blowup = diagnostics.detect_blowup_and_fit(traj)

    summary = {
        "scenario": cfg.scenario_id,
        "backend": cfg.backend.value,
        "stop_reason": traj.stop_reason.value,
        "t_final": float(final.t),
        "steps": int(final.step_count),
        "mass_sq_final": float(traj.columns["mass_sq"][-1]),
        "grad_norm_max": float(np.sqrt(np.max(traj.columns["grad_norm_sq"]))),
        "warnings": ";".join(code for code, _ in traj.warnings) or "none",
    }
    if blowup is not None:
        threshold = threshold_mass(cfg.n)
        mass0 = float(np.sqrt(traj.columns["mass_sq"][0]))
        summary.update(
            T_star_est=blowup.T_star_est,
            rate_exponent=blowup.rate_exponent,
            loglog_residual=blowup.loglog_residual,
            power_residual=blowup.power_residual,
            fit_unreliable=blowup.fit_unreliable,
        )
        if cfg.a > 0 and mass0 > threshold:
            summary["t_star_bound"] = diagnostics.t_star_upper_bound(
                mass0, cfg.a, threshold
            )

    if cfg.scenario_id == "ah_equivalence":
        summary["backend_l2_difference"] = backend_difference(cfg, final.field)

    out = law_checks = None
    if write:
        out = resolve_out_dir(cfg, out_dir)
        law_checks = run_law_checks(traj, cfg)
        _write_bundle(out, cfg, traj, blowup, summary, law_checks)
    return RunResult(
        cfg=cfg,
        out_dir=out,
        state=final,
        traj=traj,
        blowup=blowup,
        exit_code=_exit_code(traj.stop_reason),
        summary=summary,
        law_checks=law_checks,
    )


def backend_difference(cfg: ScenarioConfig, reference: Field | None = None) -> float:
    """Terminal L2 difference between the two backends on identical data.

    When ``reference`` is given it is taken as the terminal physical field of
    the configured backend and only the other backend is run."""
    other = (
        Backend.DIRECT_POTENTIAL
        if cfg.backend is Backend.GAUGE_FRAME
        else Backend.GAUGE_FRAME
    )
    if reference is None:
        final, _ = _execute(cfg)
        reference = final.field
    alt = cfg.apply_overrides([f"scenario.backend={other.value}"])
    final_other, _ = _execute(alt)
    diff = reference.data - final_other.field.data
    return float(np.sqrt(np.sum(np.abs(diff) ** 2) * reference.grid.cell_volume))


def _write_bundle(out: Path, cfg, traj, blowup, summary, law_checks) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "config_echo.cfg").write_text(cfg.to_text())
    write_trajectory_csv(out / "trajectory.csv", traj)
    write_report_csv(
        out / "summary.csv",
        [{"key": k, "value": v if isinstance(v, str) else fmt_float(v)
          if isinstance(v, float) else str(v)} for k, v in summary.items()],
    )
    write_report_csv(
        out / "law_checks.csv",
        [{"law": r.law_id, "max_rel_dev": r.max_rel_dev, "notes": r.notes}
         for r in law_checks],
    )
    if blowup is not None:
        write_report_csv(out / "blowup_report.csv", [{
            "blew_up": blowup.blew_up,
            "T_star_est": blowup.T_star_est,
            "stop_reason": blowup.stop_reason,
            "rate_exponent": blowup.rate_exponent,
            "loglog_residual": blowup.loglog_residual,
            "power_residual": blowup.power_residual,
            "fit_unreliable": blowup.fit_unreliable,
            "window_points": blowup.window_points,
        }])
    plots = out / "plots"
    plots.mkdir(exist_ok=True)
    t = traj.columns["t"]
    for name in ("mass_sq", "grad_norm_sq", "E0", "EV", "variance"):
        write_plot_data(plots / f"{name}.dat", t, traj.columns[name], name)
    if cfg.write_snapshots and traj.snapshots:
        snap_dir = out / "snapshots"
        snap_dir.mkdir(exist_ok=True)
        for i, snap in enumerate(traj.snapshots):
            write_snapshot(snap_dir / f"snap_{i:04d}.dnls", snap.field)


def run_law_checks(traj, cfg: ScenarioConfig) -> list:
    params = cfg.phys_params()
    reports = [diagnostics.check_mass_law(traj, params)]
    try:
        reports.append(diagnostics.check_energy_rate(traj, params))
        reports.append(diagnostics.check_momentum_law(traj, params))
    except StarkNLSError as exc:
        reports.append(
            diagnostics.LawCheckReport(
                law_id="rate_checks_skipped", max_rel_dev=0.0, notes=str(exc)
            )
        )
    return reports


# ---------------------------------------------------------------------------
# Threshold scan
# ---------------------------------------------------------------------------


def threshold_scan(cfg: ScenarioConfig, c_values) -> list[dict]:
    """Classify global vs blow-up along the initial-mass axis.

    Returns one row per c with the outcome and, for blow-up rows, the bound
    check T_star_est <= (1/a) log(mass0 / threshold). A violation of downward
    closedness of the global set is reported in the row notes, not hidden.
    """
    rows = []
    for c in sorted(c_values):
        sub = cfg.apply_overrides([f"initial.c={fmt_float(c)}"])
        result = run_scenario(sub, write=False)
        row = {
            "c": float(c),
            "outcome": "blowup" if result.traj.blew_up else (
                "global" if result.exit_code == 0 else "inconclusive"
            ),
            "t_final": float(result.state.t),
            "notes": "",
        }
        if result.blowup is not None:
            row["T_star_est"] = result.blowup.T_star_est
        if "t_star_bound" in result.summary:
            row["t_star_bound"] = result.summary["t_star_bound"]
        rows.append(row)
    mark_monotonicity_warnings(rows)
    return rows


def mark_monotonicity_warnings(rows: list[dict]) -> None:
    """Flag rows that break downward closedness of the global set along c.

    A blow-up below some global c is reported as a resolution warning in the
    row notes rather than silently accepted."""
    last_global = None
    for row in rows:
        if row["outcome"] == "global":
            last_global = row["c"]
    if last_global is None:
        return
    for row in rows:
        if row["outcome"] == "blowup" and row["c"] < last_global:
            row["notes"] = "resolution warning: blow-up below a global c"


# ---------------------------------------------------------------------------
# Bisection of the damping transition
# ---------------------------------------------------------------------------


@dataclass
class BisectionResult:
    a_lo: float
    a_hi: float
    tested: list[tuple[float, bool]]  # (a, blew_up), in test order

    @property
    def bracket(self) -> tuple[float, float]:
        return (self.a_lo, self.a_hi)

    def monotone_pattern(self) -> bool:
        """True when every tested a below the bracket blew up and every
        tested a above survived."""
        for a, blew in self.tested:
            if a <= self.a_lo and not blew:
                return False
            if a >= self.a_hi and blew:
                return False
        return True


def a_star_bisection(
    cfg: ScenarioConfig,
    a_lo: float,
    a_hi: float,
    t_cap: float | None = None,
    resolution: float = 0.05,
    max_runs: int = 40,
) -> BisectionResult:
    """Locate the empirical damping transition for negative-energy data.

    Classifies each damping value as blow-up (stop before t_cap) or survival
    (reaches t_cap), and bisects the bracket until its width is at most
    ``resolution``. Requires E0(u0) < 0 and a sign change across the range.
    """
    if not 0.0 <= a_lo < a_hi:
        raise BracketError(f"invalid range [{a_lo}, {a_hi}]")
    u0 = cfg.build_initial_field()
    if not diagnostics.blowup_sufficient_condition(u0, cfg.phys_params()):
        raise ConfigError(
            "bisection requires negative-energy data (E0(u0) < 0); "
            "this recipe has E0(u0) >= 0"
        )
    t_cap = t_cap if t_cap is not None else cfg.t_end
    tested: list[tuple[float, bool]] = []

    def classify(a: float) -> bool:
        sub = cfg.apply_overrides(
            [f"physics.a={fmt_float(a)}", f"scenario.t_end={fmt_float(t_cap)}"]
        )
        final, traj = _execute(sub)
        blew = traj.blew_up
        tested.append((a, blew))
        return blew

    lo_blows = classify(a_lo)
    hi_blows = classify(a_hi)
    if not lo_blows or hi_blows:
        raise BracketError(
            f"no outcome sign change on [{a_lo}, {a_hi}]: "
            f"blow-up at lower end: {lo_blows}, at upper end: {hi_blows}"
        )
    lo, hi = a_lo, a_hi
    runs = 2
    while hi - lo > resolution and runs < max_runs:
        mid = 0.5 * (lo + hi)
        if classify(mid):
            lo = mid
        else:
            hi = mid
        runs += 1
    return BisectionResult(a_lo=lo, a_hi=hi, tested=tested)


# ---------------------------------------------------------------------------
# Convergence studies
# ---------------------------------------------------------------------------


def _terminal_field(cfg: ScenarioConfig) -> Field:
    final, traj = _execute(cfg)
    if traj.blew_up or traj.stop_reason is not StopReason.T_END:
        raise StarkNLSError(
            f"convergence study aborted: run stopped early ({traj.stop_reason.value})"
        )
    return final.field


def _fixed_dt_overrides(dt: float) -> list[str]:
    # disable adaptivity so the step is exactly dt
    return [
        f"controller.dt0={fmt_float(dt)}",
        "controller.cfl=1e300",
        "observers.sample_every_steps=1000000",
        "observers.snapshot_every_steps=0",
        "observers.snapshot_grad_factor=",
    ]


def convergence_study(
    cfg: ScenarioConfig, dt_values=(4e-3, 2e-3, 1e-3), N_values=(256, 512, 1024)
) -> dict:
    """Temporal and spatial self-convergence on a smooth scenario.

    Temporal: terminal L2 error against a dt/8 reference for each dt;
    reports consecutive error ratios (4 means second order) and the observed
    order log2(ratio). Spatial: terminal error on each N against the finest
    reference grid (coarse grids are compared on their common points);
    reports per-doubling error drops.
    """
    dt_values = sorted(dt_values, reverse=True)
    ref_cfg = cfg.apply_overrides(_fixed_dt_overrides(min(dt_values) / 8.0))
    ref = _terminal_field(ref_cfg)
    errors = []
    for dt in dt_values:
        u = _terminal_field(cfg.apply_overrides(_fixed_dt_overrides(dt)))
        err = float(np.sqrt(np.sum(np.abs(u.data - ref.data) ** 2) * u.grid.cell_volume))
        errors.append(err)
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    orders = [float(np.log2(r)) for r in ratios]

    N_values = sorted(N_values)
    N_ref = N_values[-1] * 4
    ref_field = _terminal_field(
        cfg.apply_overrides(_fixed_dt_overrides(min(dt_values)) + [f"grid.N={N_ref}"])
    )
    spatial_errors = []
    for N in N_values:
        u = _terminal_field(
            cfg.apply_overrides(_fixed_dt_overrides(min(dt_values)) + [f"grid.N={N}"])
        )
        stride = N_ref // N
        sub = ref_field.data[(slice(None, None, stride),) * cfg.n]
        err = float(
            np.sqrt(np.sum(np.abs(u.data - sub) ** 2) * u.grid.cell_volume)
        )
        spatial_errors.append(err)
    drops = [
        spatial_errors[i] / max(spatial_errors[i + 1], 1e-300)
        for i in range(len(spatial_errors) - 1)
    ]
    return {
        "dt_values": list(dt_values),
        "dt_errors": errors,
        "dt_ratios": ratios,
        "dt_orders": orders,
        "N_values": list(N_values),
        "N_errors": spatial_errors,
        "N_drops": drops,
    }


# ---------------------------------------------------------------------------
# Parallel sweeps
# ---------------------------------------------------------------------------

SWEEP_AXES = {
    "c": "initial.c",
    "a": "physics.a",
    "E": "physics.E",
    "N": "grid.N",
    "dt": "controller.dt0",
}


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: tuple
    parallelism: int = 1

    def __post_init__(self):
        if self.parameter not in SWEEP_AXES:
            raise ConfigError(
                f"sweep parameter must be one of {sorted(SWEEP_AXES)}, "
                f"got {self.parameter!r}"
            )
        if not self.values:
            raise ConfigError("sweep value list must not be empty")
        if self.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")


def _sweep_member(cfg: ScenarioConfig, parameter: str, out_root: Path, indexed):
    """Run one sweep member into out_root/<param>_<index>; return its row.
    Module-level, so that a worker process can unpickle it."""
    i, value = indexed
    sub = cfg.apply_overrides([f"{SWEEP_AXES[parameter]}={value}"])
    result = run_scenario(sub, out_dir=out_root / f"{parameter}_{i:03d}")
    return {
        "index": i,
        parameter: value,
        "outcome": {0: "global", 2: "blowup"}.get(result.exit_code, "error"),
        "stop_reason": result.traj.stop_reason.value,
        "t_final": float(result.state.t),
        "exit_code": result.exit_code,
    }


def _raise(exc):
    raise exc


def sweep(spec: SweepSpec, cfg: ScenarioConfig, out_root) -> list[dict]:
    """Run one scenario per value; deterministic summary rows in value order.

    Each run writes its own bundle under out_root/<param>_<index>; partial
    failures are recorded per run and do not abort the sweep. With
    parallelism > 1 the members run in forked worker processes, and a worker
    that dies leaves an error row for each member it did not finish.
    """
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    member = functools.partial(_sweep_member, cfg, spec.parameter, out_root)
    items = list(enumerate(spec.values))
    workers = min(spec.parallelism, len(items), os.cpu_count() or 1)
    failures = (StarkNLSError,)
    if workers == 1:
        runs = [functools.partial(member, item) for item in items]
    else:
        # imported here so that `import starknls` loads neither module; fork
        # hands the workers the imported package and needs no __main__ guard
        # in the caller (docs/DECISIONS.md, "Sweep members run in processes")
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        failures += (BrokenProcessPool,)
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            runs = []
            for item in items:
                try:
                    runs.append(pool.submit(member, item).result)
                except BrokenProcessPool as exc:  # a worker died already
                    runs.append(functools.partial(_raise, exc))
    rows = []
    for (i, value), run in zip(items, runs):
        try:
            rows.append(run())
        except failures as exc:
            rows.append({"index": i, spec.parameter: value, "outcome": "error",
                         "stop_reason": f"exception: {exc}",
                         "t_final": float("nan"), "exit_code": 1})
    write_report_csv(out_root / "sweep_summary.csv", rows)
    return rows

"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the criterion lines.

Expensive runs are shared through module-scoped fixtures:

* collapse_run: supercritical quadratic-phase data (c=1.2, b=1) at a=0.01 on
  a deep 1D grid; feeds the blow-up criteria (7b, 8, 9, 10a/b).
* global runs at c in {0.9, 1.0} with a=0.1, E=0.3 (criterion 7a).
* pseudo-conformal minimal-mass collapse at a=0 (criterion 10c).
"""

import time

import numpy as np
import pytest

from starknls import (
    Field,
    GridSpec,
    ScenarioConfig,
    SweepSpec,
    a_star_bisection,
    backend_difference,
    check_mass_law,
    concentration_series,
    convergence_study,
    detect_blowup_and_fit,
    ground_state_1d_exact,
    ground_state_energy,
    l2_norm,
    petviashvili,
    run_scenario,
    sample,
    sweep,
    t_star_upper_bound,
    threshold_mass,
)
from starknls.propagator import StopReason, TrajectoryRecord

Q_MASS_SQ = 2.7206990463513267


def report(num: str, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num}: {status} - {description}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def cfg_from(**kw):
    text = """
[scenario]
id = {scenario}
t_end = {t_end}
backend = {backend}

[grid]
n = 1
N = {N}
L = {L}

[physics]
a = {a}
E = {E}

[initial]
recipe = {recipe}
c = {c}
b = {b}
T = {T}
amplitude = {amplitude}
width = {width}
k0 = {k0}

[controller]
dt0 = {dt0}
cfl = {cfl}
grad_stop = {grad_stop}
spectral_fill_max = {fill}

[observers]
sample_every_steps = {sample_every}
snapshot_every_steps = {snap_steps}
snapshot_grad_factor = {snap_factor}
"""
    defaults = dict(
        scenario="acceptance", t_end=1.0, backend="gauge", N=1024, L=20,
        a=0.0, E="0", recipe="gaussian", c=1.0, b=1.0, T=1.0, amplitude=0.5,
        width=1.0, k0="0", dt0="1e-3", cfl=0.2, grad_stop="1e4", fill=0.1,
        sample_every=1, snap_steps=0, snap_factor="",
    )
    defaults.update(kw)
    return ScenarioConfig.from_text(text.format(**defaults))


@pytest.fixture(scope="module")
def collapse_run():
    cfg = cfg_from(
        scenario="negative_energy", recipe="quadratic_phase_q", c=1.2, b=1.0,
        a=0.01, N=65536, L=13, t_end=20.0, grad_stop=2000.0,
        snap_factor=1.3,
    )
    t0 = time.time()
    result = run_scenario(cfg, write=False)
    result.runtime = time.time() - t0
    return result


@pytest.fixture(scope="module")
def global_runs():
    out = {}
    t0 = time.time()
    for c in (0.9, 1.0):
        cfg = cfg_from(
            scenario="threshold", recipe="scaled_q", c=c, a=0.1, E="0.3",
            N=4096, L=40, t_end=10.0, sample_every=5,
        )
        out[c] = run_scenario(cfg, write=False)
    out["runtime"] = time.time() - t0
    return out


@pytest.fixture(scope="module")
def pc_run():
    cfg = cfg_from(
        scenario="pseudo_conformal_collapse", recipe="pseudo_conformal",
        T=1.0, a=0.0, N=8192, L=12, t_end=3.0, dt0="5e-5", cfl=0.05,
        grad_stop=18.0, snap_factor=1.25, sample_every=10,
    )
    return run_scenario(cfg, write=False)


class TestCriterion01GroundStateOracle:
    def test_matches_closed_form(self):
        t0 = time.time()
        gs = petviashvili(GridSpec.create(1, 20.0, 1024), tol=1e-10)
        runtime = time.time() - t0
        x = gs.profile.grid.axis_coordinates(0)
        linf = float(np.max(np.abs(gs.profile.data.real - ground_state_1d_exact(x))))
        mass_err = abs(gs.mass_sq - Q_MASS_SQ)
        ok = linf < 1e-8 and mass_err < 1e-8 and runtime < 5.0
        report("1", "1D Petviashvili matches 3^(1/4) sech^(1/2)(2x)", ok,
               f"Linf={linf:.2e} |mass_sq-sqrt(3)pi/2|={mass_err:.2e} "
               f"runtime={runtime:.2f}s")


class TestCriterion02Pohozaev:
    def test_identities_1d(self, gs_1d):
        grad_dev = abs(gs_1d.grad_sq - 0.5 * gs_1d.mass_sq) / gs_1d.mass_sq
        e0 = abs(ground_state_energy(gs_1d))
        ok = grad_dev < 1e-5 and e0 < 1e-6 * gs_1d.mass_sq
        report("2", "1D Pohozaev and zero-energy identities", ok,
               f"grad_dev={grad_dev:.2e} |E0|={e0:.2e}")

    def test_identities_2d(self):
        gs = petviashvili(GridSpec.create(2, 15.0, 256), tol=1e-8)
        grad_dev = abs(gs.grad_sq - gs.mass_sq) / gs.mass_sq
        e0 = abs(ground_state_energy(gs))
        ok = grad_dev < 1e-4 and e0 < 1e-4 * gs.mass_sq
        report("2", "2D Pohozaev and zero-energy identities", ok,
               f"grad_dev={grad_dev:.2e} |E0|={e0:.2e}")


class TestCriterion03ExactMassLaw:
    def test_all_shared_runs(self, collapse_run, global_runs):
        worst_point, worst_rate = 0.0, 0.0
        for result in (collapse_run, global_runs[0.9], global_runs[1.0]):
            traj, params = result.traj, result.cfg.phys_params()
            t = traj.columns["t"]
            m = np.sqrt(traj.columns["mass_sq"])
            a = params.a
            expected = m[0] * np.exp(-a * (t - t[0]))
            worst_point = max(worst_point, float(np.max(np.abs(m / expected - 1))))
            rep = check_mass_law(traj, params)
            worst_rate = max(worst_rate, rep.max_rel_dev)
        ok = worst_point <= 1e-12 and worst_rate <= 1e-10
        report("3", "norm decays as e^{-a t} on every run; fitted mass_sq "
               "rate is 2a (adjudicates the decay-exponent question)", ok,
               f"pointwise={worst_point:.2e} rate_dev={worst_rate:.2e}")


class TestCriterion04AcceleratedFrame:
    def test_round_trip_and_backend_equivalence(self):
        from starknls import ah_forward, ah_inverse

        grid = GridSpec.create(1, 40.0, 4096)
        x = grid.axis_coordinates(0)
        f = Field(grid, np.exp(-(x**2) / 4) * np.exp(0.3j * x))
        back = ah_inverse(ah_forward(f, 0.9, [0.5]), 0.9, [0.5])
        rt = l2_norm(Field(grid, back.data - f.data)) / l2_norm(f)

        t0 = time.time()
        cfg = cfg_from(
            scenario="ah_equivalence", recipe="gaussian", amplitude=1.0,
            width=1.0, a=0.1, E="0.5", N=4096, L=40, t_end=1.0,
            dt0="1e-4", cfl="1e300", sample_every=100,
        )
        diff = backend_difference(cfg)
        runtime = time.time() - t0
        ok = rt < 1e-12 and diff < 1e-6 and runtime < 120.0
        report("4", "accelerated-frame round trip and backend equivalence", ok,
               f"round_trip={rt:.2e} backend_diff={diff:.2e} runtime={runtime:.0f}s")


@pytest.fixture(scope="module")
def conservative_run():
    cfg = cfg_from(
        scenario="conservative", recipe="gaussian", amplitude=0.5,
        width=1.0, k0="0.5", a=0.0, E="0", N=1024, L=20, t_end=1.0,
        dt0="1e-4", cfl="1e300", sample_every=10,
    )
    return run_scenario(cfg, write=False)


class TestCriterion05ConservativeLimit:
    def test_energy_and_momentum_conserved(self, conservative_run):
        traj = conservative_run.traj
        e0 = traj.columns["E0"]
        mom = traj.columns["Px"]
        de = float(np.max(np.abs(e0 - e0[0]))) / max(1.0, abs(e0[0]))
        dp = float(np.max(np.abs(mom - mom[0])))
        ok = de < 1e-8 and dp < 1e-8
        report("5", "conservative limit: E0 and P constant", ok,
               f"dE0={de:.2e} dP={dp:.2e}")

    def test_virial_identity(self, conservative_run):
        traj = conservative_run.traj
        t = traj.columns["t"]
        J = traj.columns["variance"]
        e0_init = traj.columns["E0"][0]
        dt_s = t[1] - t[0]
        d2j = (J[2:] - 2 * J[1:-1] + J[:-2]) / dt_s**2
        dev = float(np.max(np.abs(d2j - 8 * e0_init))) / abs(8 * e0_init)
        ok = dev < 0.05
        report("5", "virial identity d2J/dt2 = 8 E0", ok, f"dev={dev:.2%}")


class TestCriterion06StrangOrder:
    def test_temporal_and_spatial_convergence(self):
        cfg = cfg_from(
            scenario="convergence", recipe="gaussian", amplitude=0.9,
            width=0.7, a=0.1, N=512, L=20, t_end=0.25,
        )
        rep = convergence_study(
            cfg, dt_values=(4e-3, 2e-3, 1e-3), N_values=(128, 256, 512)
        )
        orders_ok = all(1.9 <= o <= 2.1 for o in rep["dt_orders"])
        spatial_ok = max(rep["N_drops"]) >= 10.0
        ok = orders_ok and spatial_ok
        report("6", "Strang order in [1.9, 2.1]; spectral spatial convergence",
               ok, f"orders={['%.3f' % o for o in rep['dt_orders']]} "
               f"drops={['%.1f' % d for d in rep['N_drops']]}")


class TestCriterion07Threshold:
    def test_subthreshold_runs_global(self, global_runs):
        details = []
        ok = True
        for c in (0.9, 1.0):
            result = global_runs[c]
            grad = np.sqrt(result.traj.columns["grad_norm_sq"])
            bounded = float(np.max(grad)) <= 3.0 * float(np.median(grad))
            reached = result.traj.stop_reason is StopReason.T_END
            ok = ok and bounded and reached
            details.append(f"c={c}: stop={result.traj.stop_reason.value} "
                           f"max/median={np.max(grad)/np.median(grad):.2f}")
        ok = ok and global_runs["runtime"] < 600.0
        report("7", "c in {0.9, 1.0} global to t_cap=10 with bounded gradient",
               ok, "; ".join(details))

    def test_supercritical_blows_up(self, collapse_run):
        traj = collapse_run.traj
        grad = np.sqrt(traj.columns["grad_norm_sq"])
        growth = float(np.max(grad) / grad[0])
        ok = (traj.blew_up and growth > 1e3
              and collapse_run.runtime < 600.0)
        report("7", "c=1.2 quadratic-phase data triggers a blow-up stop", ok,
               f"stop={traj.stop_reason.value} growth={growth:.0f}x "
               f"runtime={collapse_run.runtime:.0f}s")


class TestCriterion08BlowupTimeBound:
    def test_t_star_below_mass_bound(self, collapse_run):
        traj = collapse_run.traj
        fit = detect_blowup_and_fit(traj)
        mass0 = float(np.sqrt(traj.columns["mass_sq"][0]))
        bound = t_star_upper_bound(mass0, collapse_run.cfg.a, threshold_mass(1))
        ok = fit.blew_up and fit.T_star_est <= bound + 0.05
        report("8", "T* estimate satisfies the damped mass bound", ok,
               f"T*={fit.T_star_est:.4f} bound={bound:.2f}")


class TestCriterion09RateFitting:
    def test_manufactured_loglog_recovery(self):
        rng = np.random.default_rng(2024)
        sigma = np.geomspace(1e-6, 0.2, 200)[::-1]
        t = 1.0 - sigma
        gsq = np.log(np.log(1.0 / sigma)) / sigma
        gsq = gsq * (1.0 + 0.01 * rng.standard_normal(sigma.size))
        traj = TrajectoryRecord(columns={"t": t, "grad_norm_sq": gsq},
                                stop_reason=StopReason.GRAD_THRESHOLD)
        fit = detect_blowup_and_fit(traj)
        ok = (abs(fit.T_star_est - 1.0) < 1e-3
              and abs(fit.rate_exponent - 0.5) < 0.03
              and fit.loglog_residual <= fit.power_residual)
        report("9", "manufactured loglog data: T* and gamma recovered", ok,
               f"T*={fit.T_star_est:.6f} gamma={fit.rate_exponent:.4f}")

    def test_real_run_power_exponent(self, collapse_run):
        fit = detect_blowup_and_fit(collapse_run.traj)
        ok = 0.45 <= fit.rate_exponent <= 0.65 and not fit.fit_unreliable
        report("9", "real collapse: fitted power exponent in [0.45, 0.65]", ok,
               f"gamma={fit.rate_exponent:.4f} window_points={fit.window_points}")

    def test_real_run_loglog_residual_comparison(self, collapse_run):
        # The loglog law refines the self-similar rate gamma = 1/2, so it is
        # compared with that rate at equal cost: both models have two
        # parameters (C, T*) and the same profiled 1-d search over T*. The
        # free-exponent power fit has three and is a curve fit, not a blow-up
        # law; its residual is printed for reference. On pure sqrt-rate data
        # this comparison goes the other way
        # (test_diagnostics::TestBlowupFit::test_manufactured_sqrt_rate).
        # Measured values and the time-unit sensitivity are in
        # docs/DECISIONS.md.
        fit = detect_blowup_and_fit(collapse_run.traj)
        ok = fit.loglog_residual <= fit.sqrt_rate_residual
        report("9", "real collapse: loglog-model residual at most the "
               "gamma=1/2 power-law residual", ok,
               f"loglog={fit.loglog_residual:.4f} "
               f"sqrt_rate={fit.sqrt_rate_residual:.4f} "
               f"free_power={fit.power_residual:.4f}")


class TestCriterion10MassConcentration:
    def test_damped_run_final_level(self, collapse_run):
        series = concentration_series(collapse_run.traj)
        final = series[-1].window_mass
        ok = final >= 0.9 * Q_MASS_SQ
        report("10", "damped collapse: final window mass at least 0.9 |Q|^2",
               ok, f"final={final / Q_MASS_SQ:.4f} |Q|^2")

    def test_damped_run_monotone_tail(self, collapse_run):
        # The theory promises a window mass of at least |Q|^2 as w -> 0 with
        # w/lambda -> infinity. Here the shrinking window sheds the halo that
        # does not collapse (and damping removes mass), so the limit is
        # approached from above: the tail must stay above the |Q|^2
        # threshold and move monotonically, without oscillation. The a=0
        # pseudo-conformal run has no halo and approaches from below (next
        # test). Measured series in docs/DECISIONS.md.
        series = concentration_series(collapse_run.traj)
        tail = np.array([p.window_mass for p in series[-10:]])
        steps = np.diff(tail)
        one_sign = bool(np.all(steps >= -1e-12) or np.all(steps <= 1e-12))
        ok = bool(np.all(tail >= Q_MASS_SQ)) and one_sign
        report("10", "damped collapse: last 10 window masses at least |Q|^2 "
               "and monotone", ok,
               f"tail range [{tail.min() / Q_MASS_SQ:.4f}, "
               f"{tail.max() / Q_MASS_SQ:.4f}] |Q|^2, floor 1 |Q|^2")

    def test_pseudo_conformal_concentration(self, pc_run):
        traj = pc_run.traj
        series = concentration_series(traj)
        masses = np.array([p.window_mass for p in series])
        final = masses[-1]
        ok = (traj.blew_up and final >= 0.99 * Q_MASS_SQ
              and bool(np.all(np.diff(masses) >= -1e-12)))
        report("10", "pseudo-conformal collapse concentrates 0.99 |Q|^2", ok,
               f"final={final / Q_MASS_SQ:.5f} |Q|^2 over {len(series)} snapshots")


class TestCriterion11DampingBisection:
    def test_bracket_and_monotone_pattern(self):
        cfg = cfg_from(
            scenario="bisect", recipe="quadratic_phase_q", c=1.2, b=1.0,
            a=0.01, N=4096, L=13, t_end=20.0, grad_stop=100.0,
            dt0="2e-3", sample_every=20,
        )
        t0 = time.time()
        result = a_star_bisection(cfg, 0.001, 2.0, t_cap=20.0, resolution=0.1)
        runtime = time.time() - t0
        blew = dict(result.tested)
        ok = (blew[0.001] is True and blew[2.0] is False
              and result.monotone_pattern())
        report("11", "damping bisection brackets the transition with a "
               "monotone outcome pattern", ok,
               f"bracket=[{result.a_lo:.4f}, {result.a_hi:.4f}] "
               f"runs={len(result.tested)} runtime={runtime:.0f}s")


class TestCriterion12Determinism:
    def test_rerun_and_parallel_sweep_byte_identical(self, tmp_path):
        cfg = cfg_from(
            scenario="determinism", recipe="gaussian", amplitude=0.5,
            N=512, L=20, a=0.1, t_end=0.3, sample_every=5,
        )
        r1 = run_scenario(cfg, out_dir=tmp_path / "first")
        r2 = run_scenario(cfg, out_dir=tmp_path / "second")
        rerun_ok = (
            (r1.out_dir / "trajectory.csv").read_bytes()
            == (r2.out_dir / "trajectory.csv").read_bytes()
        )
        values = ("0.01", "0.05", "0.1", "0.5")
        sweep(SweepSpec("a", values, parallelism=1), cfg, tmp_path / "s1")
        sweep(SweepSpec("a", values, parallelism=8), cfg, tmp_path / "s8")
        sweep_ok = (
            (tmp_path / "s1" / "sweep_summary.csv").read_bytes()
            == (tmp_path / "s8" / "sweep_summary.csv").read_bytes()
        )
        for i in range(len(values)):
            sweep_ok = sweep_ok and (
                (tmp_path / "s1" / f"a_{i:03d}" / "trajectory.csv").read_bytes()
                == (tmp_path / "s8" / f"a_{i:03d}" / "trajectory.csv").read_bytes()
            )
        ok = rerun_ok and sweep_ok
        report("12", "identical config reproduces byte-identical CSVs, "
               "including under sweep parallelism 8", ok)

"""Observable, law-checker, rate-fit, and concentration tests."""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from starknls import (
    Field,
    GridSpec,
    PhysParams,
    StopReason,
    TrajectoryRecord,
    blowup_sufficient_condition,
    check_energy_rate,
    check_mass_law,
    check_momentum_law,
    concentration_series,
    detect_blowup_and_fit,
    mass_in_window,
    sample,
    sup_mass_in_window,
    t_star_upper_bound,
)
from starknls import diagnostics
from starknls.diagnostics import _SIGMA_MIN, _SIGMA_RTOL, _minimize_sigma
from starknls.errors import InsufficientDataError, NoBoundError, ResolutionError
from starknls.ground_state import ground_state_1d_exact
from starknls.spectral import grad_norm_sq

from conftest import random_band_limited_field

Q_MASS_SQ = 2.7206990463513267


def run_cfg_text(**kw):
    defaults = dict(
        scenario="law", t_end=1.0, n=1, N=1024, L=20.0, a=0.0, E="0",
        recipe="gaussian", amplitude=0.5, width=1.0, k0="0",
        dt0=1e-3, cfl=1e300, nl=1.0, backend="gauge",
        sample_every=1,
    )
    defaults.update(kw)
    return """
[scenario]
id = {scenario}
t_end = {t_end}
backend = {backend}

[grid]
n = {n}
N = {N}
L = {L}

[physics]
a = {a}
E = {E}
nl_strength = {nl}

[initial]
recipe = {recipe}
amplitude = {amplitude}
width = {width}
k0 = {k0}

[controller]
dt0 = {dt0}
cfl = {cfl}

[observers]
sample_every_steps = {sample_every}
""".format(**defaults)


def run_trajectory(**kw):
    """The record of a run and the physical parameters it ran with."""
    from starknls import ScenarioConfig, run_scenario

    cfg = ScenarioConfig.from_text(run_cfg_text(**kw))
    return run_scenario(cfg, write=False).traj, cfg.phys_params()


class TestSample:
    def test_ground_state_observables(self, gs_1d):
        params = PhysParams(n=1, a=0.1, E=(0.3,))
        s = sample(gs_1d.profile, 0.0, params)
        assert abs(s["E0"]) < 1e-6 * s["mass_sq"]
        assert abs(s["Px"]) < 1e-10
        assert abs(s["stark_moment"]) < 1e-10  # odd integrand, symmetric profile
        assert s["EV"] == pytest.approx(s["E0"] + s["stark_moment"], abs=1e-10)

    def test_boosted_packet_momentum(self):
        grid = GridSpec.create(1, 30.0, 2048)
        x = grid.axis_coordinates(0)
        k1 = 16 * np.pi / 30.0
        g = np.exp(-(x**2) / 2)
        f = Field(grid, g * np.exp(1j * k1 * x))
        s = sample(f, 0.0, PhysParams(n=1))
        g_mass = np.sum(g**2) * grid.dx[0]
        assert s["Px"] == pytest.approx(k1 * g_mass, abs=1e-8)

    def test_zero_field(self, grid_1d):
        z = Field(grid_1d, np.zeros(grid_1d.shape, dtype=complex))
        s = sample(z, 0.0, PhysParams(n=1, E=(0.5,)))
        assert s == dict.fromkeys(
            ("t", "mass_sq", "grad_norm_sq", "E0", "EV", "Px", "variance",
             "lp_sum", "stark_moment"), 0.0
        )

    def test_ev_identity_on_random_fields(self, grid_1d):
        params = PhysParams(n=1, a=0.2, E=(0.7,))
        for seed in range(4):
            f = random_band_limited_field(grid_1d, seed=seed)
            s = sample(f, 0.0, params)
            assert abs(s["EV"] - (s["E0"] + s["stark_moment"])) <= 1e-10 * max(
                1.0, abs(s["EV"])
            )


class TestMassLaw:
    def test_conservative(self):
        traj, params = run_trajectory(a=0.0, t_end=0.5)
        rep = check_mass_law(traj, params)
        assert rep.max_rel_dev < 1e-10

    def test_damped_rate(self):
        traj, params = run_trajectory(a=0.1, t_end=0.5)
        rep = check_mass_law(traj, params)
        assert rep.max_rel_dev < 1e-10  # fitted rate within 1e-10 of 2a

    def test_closed_form_ratio(self):
        traj, _ = run_trajectory(a=0.1, t_end=2.0)
        m = traj.columns["mass_sq"]
        assert m[-1] / m[0] == pytest.approx(np.exp(-0.4), rel=1e-12)

    def test_needs_two_samples(self):
        traj = TrajectoryRecord(columns={"t": np.array([0.0]),
                                         "mass_sq": np.array([1.0])})
        with pytest.raises(InsufficientDataError):
            check_mass_law(traj, PhysParams(n=1))


class TestEnergyRate:
    def test_conservative_limit(self):
        traj, params = run_trajectory(a=0.0, t_end=1.0, dt0=1e-4)
        rep = check_energy_rate(traj, params)
        assert rep.max_rel_dev < 1e-8

    def test_damped_rate(self):
        traj, params = run_trajectory(a=0.1, t_end=1.0)
        rep = check_energy_rate(traj, params)
        assert rep.max_rel_dev < 1e-4

    def test_stark_conservative_ev(self):
        # with a = 0 the potential-frame energy is conserved
        traj, params = run_trajectory(a=0.0, E="0.5", t_end=1.0)
        rep = check_energy_rate(traj, params)
        assert "dEV/dt" in rep.notes
        devv = float(rep.notes.split("dEV/dt dev=")[1])
        assert devv < 1e-4


class TestMomentumLaw:
    def test_e_zero_closed_form(self):
        traj, params = run_trajectory(a=0.25, t_end=1.0, k0="0.8")
        rep = check_momentum_law(traj, params)
        assert rep.max_rel_dev < 1e-8

    def test_linear_stark_adjudicates_first_power(self):
        # nonlinearity off, direct potential: dP/dt = -E mass_sq exactly
        traj, params = run_trajectory(
            a=0.0, E="0.5", nl=0.0, backend="direct", t_end=1.0, width=2.0
        )
        rep = check_momentum_law(traj, params)
        assert "q=1" in rep.notes.split(";")[0]
        assert rep.max_rel_dev < 1e-6

    def test_degenerate_flagged(self):
        traj, params = run_trajectory(a=0.0, t_end=0.2)
        rep = check_momentum_law(traj, params)
        assert "degenerate" in rep.notes

    def test_full_equation_still_first_power(self):
        # damping + potential + nonlinearity: q=1 must still win
        traj, params = run_trajectory(a=0.1, E="0.4", t_end=1.0, amplitude=0.8)
        rep = check_momentum_law(traj, params)
        assert "q=1" in rep.notes.split(";")[0]


def synthetic_trajectory(t, gsq, stop=StopReason.GRAD_THRESHOLD):
    """A record of the two columns the fit reads."""
    return TrajectoryRecord(
        columns={"t": np.asarray(t, dtype=float),
                 "grad_norm_sq": np.asarray(gsq, dtype=float)},
        stop_reason=stop,
    )


def manufactured_window(law):
    """Collapse window with T* = 1 and 1% noise: grad_sq following the
    loglog law C loglog(1/(T-t))/(T-t) (C = 1), or the bare self-similar
    rate 1/(T-t)."""
    rng = np.random.default_rng(42)
    sigma = np.geomspace(1e-6, 0.2, 200)[::-1]
    gsq = np.log(np.log(1.0 / sigma)) / sigma if law == "loglog" else 1.0 / sigma
    return 1.0 - sigma, gsq * (1.0 + 0.01 * rng.standard_normal(sigma.size))


class TestBlowupFit:
    def test_manufactured_loglog(self):
        rep = detect_blowup_and_fit(synthetic_trajectory(*manufactured_window("loglog")))
        assert rep.blew_up
        assert rep.T_star_est == pytest.approx(1.0, abs=1e-3)
        assert rep.rate_exponent == pytest.approx(0.5, abs=0.03)
        assert rep.loglog_residual <= rep.power_residual
        assert rep.loglog_residual <= rep.sqrt_rate_residual
        assert not rep.fit_unreliable

    def test_manufactured_sqrt_rate(self):
        # the self-similar rate (T-t)^(-1/2) with no loglog correction: the
        # loglog-against-sqrt-rate comparison of acceptance criterion 9 must
        # go the other way here, so that check can fail
        rep = detect_blowup_and_fit(synthetic_trajectory(*manufactured_window("sqrt")))
        assert rep.rate_exponent == pytest.approx(0.5, abs=0.01)
        assert rep.sqrt_rate_residual < rep.loglog_residual
        assert not rep.fit_unreliable

    def test_manufactured_pure_power(self):
        # the pseudo-conformal rate (T-t)^(-1) for the gradient norm, exact:
        # the fit must return it to the search's tolerance
        T_true = 2.0
        sigma = np.geomspace(1e-6, 0.3, 150)[::-1]
        t = T_true - sigma
        gsq = sigma**-2.0
        rep = detect_blowup_and_fit(synthetic_trajectory(t, gsq))
        assert abs(rep.rate_exponent - 1.0) < 1e-6
        assert abs(rep.T_star_est - T_true) < 1e-10
        assert rep.power_residual <= rep.loglog_residual

    def test_exact_pseudo_conformal_series(self):
        # the 1D pseudo-conformal solution S collapses with
        # |grad S|^2 = A/(1-t)^2 + B exactly, A = |Q'|^2 and B = |x Q|^2/4;
        # 20,000 samples up to |grad S| = 2000
        grid = GridSpec(n=1, shape=4096, half_widths=30.0)
        x = grid.axis_coordinates(0)
        q = ground_state_1d_exact(x)
        A = grad_norm_sq(Field(grid, q))
        B = float(np.sum(x**2 * q**2) * grid.cell_volume / 4.0)
        assert A == pytest.approx(1.36035, abs=1e-5)
        assert B == pytest.approx(0.41957, abs=1e-5)
        t = np.linspace(0.0, 1.0 - np.sqrt(A / (2000.0**2 - B)), 20000)
        rep = detect_blowup_and_fit(synthetic_trajectory(t, A / (1.0 - t) ** 2 + B))
        assert not rep.fit_unreliable
        assert abs(rep.T_star_est - 1.0) < 1e-6
        assert abs(rep.rate_exponent - 1.0) < 1e-3

    def test_constant_series_not_blowup(self):
        t = np.linspace(0, 1, 50)
        gsq = np.full(50, 2.0)
        rep = detect_blowup_and_fit(
            synthetic_trajectory(t, gsq, stop=StopReason.T_END)
        )
        assert not rep.blew_up

    def test_t_star_exceeds_last_sample(self):
        sigma = np.geomspace(1e-5, 0.2, 120)[::-1]
        t = 1.0 - sigma
        rep = detect_blowup_and_fit(synthetic_trajectory(t, sigma**-1.1))
        assert rep.T_star_est > t[-1]

    def test_sparse_window_flagged(self):
        sigma = np.geomspace(1e-4, 0.2, 12)[::-1]
        t = 1.0 - sigma
        rep = detect_blowup_and_fit(synthetic_trajectory(t, 1.0 / sigma))
        assert rep.fit_unreliable


def assert_search_matches_scipy(objective, span):
    """_minimize_sigma against scipy's bounded method over ln sigma on the
    same bracket. scipy stops within 2 (sqrt(2.2e-16) |ln sigma| + xatol/3)
    of its minimizer in ln sigma; the search within _SIGMA_RTOL."""
    sigma = _minimize_sigma(objective, span)
    ref = minimize_scalar(lambda y: objective(np.exp(y)),
                          bounds=(np.log(_SIGMA_MIN), np.log(span)),
                          method="bounded", options={"xatol": 1e-12})
    tol = 2.0 * (np.sqrt(2.2e-16) * abs(ref.x) + 1e-12 / 3.0) + _SIGMA_RTOL
    assert abs(np.log(sigma) - ref.x) <= tol
    return sigma


class TestBoundedMinimizer:
    """The golden-section search in ln sigma against scipy's bounded method."""

    @pytest.mark.parametrize("law", ["loglog", "sqrt"])
    def test_fit_objectives_match_scipy(self, law, monkeypatch):
        searched = []

        def checked(objective, span):
            searched.append(assert_search_matches_scipy(objective, span))
            return _minimize_sigma(objective, span)

        monkeypatch.setattr(diagnostics, "_minimize_sigma", checked)
        detect_blowup_and_fit(synthetic_trajectory(*manufactured_window(law)))
        # the loglog fit, the free power fit and the gamma = 1/2 power fit
        assert len(searched) == 3

    def test_parabola(self):
        sigma = assert_search_matches_scipy(lambda s: (np.log(s) + 7.0) ** 2, 0.2)
        assert sigma == pytest.approx(np.exp(-7.0), rel=_SIGMA_RTOL)

    @pytest.mark.parametrize("slope", [1.0, -1.0])
    def test_minimum_at_a_bound(self, slope):
        sigma = assert_search_matches_scipy(lambda s: slope * s, 0.2)
        assert sigma == pytest.approx(_SIGMA_MIN if slope > 0 else 0.2,
                                      rel=_SIGMA_RTOL)

    def test_evaluation_budget(self):
        # ln(0.2 / 1e-12) shrinks by the golden ratio below 1e-10 in 55 steps,
        # whatever the objective
        for objective in (lambda s: s, lambda s: -s, lambda s: np.cos(1e3 * s)):
            calls = []
            _minimize_sigma(lambda s: calls.append(s) or objective(s), 0.2)
            assert len(calls) == 57


class TestMassWindows:
    def test_full_box_captures_everything(self, gs_1d):
        grid = gs_1d.profile.grid
        full = mass_in_window(gs_1d.profile, (0.0,), 19.9)
        assert full == pytest.approx(gs_1d.mass_sq, rel=1e-12)

    def test_window_five_captures_99(self, gs_1d):
        m = mass_in_window(gs_1d.profile, (0.0,), 5.0)
        assert m >= 0.99 * gs_1d.mass_sq

    def test_monotone_in_radius(self, gs_1d):
        radii = [0.5, 1.0, 2.0, 4.0, 8.0]
        masses = [mass_in_window(gs_1d.profile, (0.0,), w) for w in radii]
        assert all(b >= a for a, b in zip(masses, masses[1:]))

    def test_sup_translation_invariant(self, gs_1d):
        grid = gs_1d.profile.grid
        m0, c0 = sup_mass_in_window(gs_1d.profile, 2.0)
        shifted = Field(grid, np.roll(gs_1d.profile.data, 217))
        m1, c1 = sup_mass_in_window(shifted, 2.0)
        assert abs(m1 - m0) <= 1e-10 * m0
        assert c1[0] != c0[0]

    def test_sup_matches_fixed_center(self, gs_1d):
        m_sup, center = sup_mass_in_window(gs_1d.profile, 3.0)
        m_fix = mass_in_window(gs_1d.profile, center, 3.0)
        assert m_sup == pytest.approx(m_fix, rel=1e-12)

    def test_tiny_window_rejected(self, gs_1d):
        with pytest.raises(ResolutionError):
            mass_in_window(gs_1d.profile, (0.0,), 1e-4)


class TestConcentrationSeries:
    def test_global_run_bounded_by_total_mass(self):
        from starknls import ScenarioConfig, run_scenario

        cfg = ScenarioConfig.from_text(run_cfg_text(
            a=0.1, t_end=1.0, amplitude=0.8,
        ) + "snapshot_every_steps = 200\n")
        traj = run_scenario(cfg, write=False).traj
        series = concentration_series(traj)
        masses = traj.columns["mass_sq"]
        for point in series:
            assert point.window_mass <= masses[0] + 1e-12

    def test_requires_snapshots(self):
        traj = TrajectoryRecord(columns={"t": np.array([0.0])})
        with pytest.raises(InsufficientDataError):
            concentration_series(traj)


class TestTStarBound:
    def test_arithmetic(self):
        assert t_star_upper_bound(np.e, 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_threshold_case_rejected(self):
        with pytest.raises(NoBoundError):
            t_star_upper_bound(1.0, 0.5, 1.0)

    def test_zero_damping_rejected(self):
        with pytest.raises(NoBoundError):
            t_star_upper_bound(2.0, 0.0, 1.0)


class TestBlowupSufficientCondition:
    def test_ground_state_is_borderline_false(self, gs_1d):
        params = PhysParams(n=1, a=0.1)
        assert not blowup_sufficient_condition(gs_1d.profile, params)

    def test_quadratic_phase_supercritical_true(self, gs_1d):
        grid = gs_1d.profile.grid
        x = grid.axis_coordinates(0)
        data = 1.2 * gs_1d.profile.data.real * np.exp(-1j * x**2 / 4)
        assert blowup_sufficient_condition(Field(grid, data), PhysParams(n=1))

    def test_subcritical_false(self, gs_1d):
        grid = gs_1d.profile.grid
        half = Field(grid, 0.5 * gs_1d.profile.data)
        assert not blowup_sufficient_condition(half, PhysParams(n=1))

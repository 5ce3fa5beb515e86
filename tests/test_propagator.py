"""Substep, full-step, and driver tests for the split-step integrator.

Oracles: the dispersion relation for plane waves, the closed-form free
Gaussian  u(t,x) = s0 (s0^2 + 2 i t)^(-1/2) exp(-x^2 / (2 (s0^2 + 2 i t)))
for u0 = exp(-x^2 / (2 s0^2)), and exact exponential damping factors.
"""

import ctypes
import dataclasses
import operator
import platform
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import types
import warnings

import numpy as np
import pytest

from starknls import (
    Backend,
    DiagnosticHooks,
    Field,
    GridSpec,
    PhysParams,
    SimState,
    StepController,
    StopReason,
    ah_forward,
    diagnostics,
    evolve,
    kinetic_substep,
    l2_norm,
    l2_norm_sq,
    nonlinear_damped_substep,
    momentum,
    stark_substep_direct,
    strang_step,
)

from starknls import propagator, spectral
from starknls.propagator import (
    EXIT_CODES,
    OUTCOMES,
    TrajectoryRecord,
    _kinetic_multiplier,
    _Stepper,
)

from conftest import COMPLEX_FFTS, child_env, random_band_limited_field


def rel_l2(a: Field, b_data) -> float:
    ref = np.sqrt(np.sum(np.abs(b_data) ** 2) * a.grid.cell_volume)
    diff = np.sqrt(np.sum(np.abs(a.data - b_data) ** 2) * a.grid.cell_volume)
    return diff / max(ref, 1e-300)


class TestKineticSubstep:
    def test_plane_wave_dispersion(self, grid_1d):
        k1 = 5 * np.pi / 20.0
        x = grid_1d.axis_coordinates(0)
        f = Field(grid_1d, np.exp(1j * k1 * x))
        tau = 0.37
        out = kinetic_substep(f, tau)
        expected = np.exp(1j * (k1 * x - k1**2 * tau))
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_tau_zero_identity(self, grid_1d):
        f = random_band_limited_field(grid_1d, seed=0)
        out = kinetic_substep(f, 0.0)
        assert rel_l2(out, f.data) < 1e-15

    def test_free_gaussian_closed_form(self):
        grid = GridSpec.create(1, 40.0, 4096)
        x = grid.axis_coordinates(0)
        s0 = 1.0
        f = Field(grid, np.exp(-(x**2) / (2 * s0**2)).astype(complex))
        tau = 0.5
        out = kinetic_substep(f, tau)
        s_t = s0**2 + 2j * tau
        expected = s0 / np.sqrt(s_t) * np.exp(-(x**2) / (2 * s_t))
        assert rel_l2(out, expected) < 1e-10

    def test_norm_preserving(self, grid_1d):
        f = random_band_limited_field(grid_1d, seed=7)
        out = kinetic_substep(f, 1.7)
        assert abs(l2_norm_sq(out) - l2_norm_sq(f)) < 1e-12 * l2_norm_sq(f)


class TestNonlinearDampedSubstep:
    def test_undamped_phase_rotation(self, grid_1d):
        f = Field(grid_1d, np.full(grid_1d.shape, 1.0 + 0j))
        out = nonlinear_damped_substep(f, 0.1, a=0.0, p=5.0)
        assert np.max(np.abs(out.data - np.exp(0.1j))) < 1e-14

    def test_exact_damping_factor(self, grid_1d):
        f = random_band_limited_field(grid_1d, seed=1)
        out = nonlinear_damped_substep(f, 2.0, a=0.5, p=5.0)
        assert l2_norm(out) == pytest.approx(np.exp(-1.0) * l2_norm(f), rel=1e-13)

    def test_zero_field_fixed_point(self, grid_1d):
        z = Field(grid_1d, np.zeros(grid_1d.shape, dtype=complex))
        out = nonlinear_damped_substep(z, 1.0, a=0.3, p=5.0)
        assert np.all(out.data == 0)

    def test_damped_phase_matches_quadrature(self, grid_1d):
        # phase increment equals the time integral of rho(s)^(p-1)
        f = Field(grid_1d, np.full(grid_1d.shape, 0.8 + 0j))
        a, p, tau = 0.7, 5.0, 0.9
        out = nonlinear_damped_substep(f, tau, a=a, p=p)
        s = np.linspace(0.0, tau, 20001)
        phase_expected = np.trapezoid((0.8 * np.exp(-a * s)) ** (p - 1), s)
        measured = np.angle(out.data[0] / f.data[0])
        assert measured == pytest.approx(phase_expected, abs=1e-9)

    def test_nl_strength_zero_keeps_phase(self, grid_1d):
        f = random_band_limited_field(grid_1d, seed=2)
        out = nonlinear_damped_substep(f, 0.3, a=0.2, p=5.0, nl_strength=0.0)
        expected = f.data * np.exp(-0.2 * 0.3)
        assert np.max(np.abs(out.data - expected)) < 1e-14


class TestStarkSubstepDirect:
    def test_zero_vector_identity(self, grid_1d):
        f = random_band_limited_field(grid_1d, seed=3)
        out = stark_substep_direct(f, 0.5, [0.0])
        assert np.array_equal(out.data, f.data)

    def test_unimodular(self, grid_1d):
        f = random_band_limited_field(grid_1d, seed=4)
        out = stark_substep_direct(f, 0.8, [0.6])
        assert np.max(np.abs(np.abs(out.data) - np.abs(f.data))) < 1e-14

    def test_momentum_shift(self):
        # Ehrenfest: the spectral centroid moves by -E tau
        grid = GridSpec.create(1, 30.0, 2048)
        x = grid.axis_coordinates(0)
        f = Field(grid, np.exp(-(x**2) / 2).astype(complex))
        E, tau = 0.7, 0.4
        out = stark_substep_direct(f, tau, [E])
        p_before = momentum(f)[0] / l2_norm_sq(f)
        p_after = momentum(out)[0] / l2_norm_sq(out)
        assert p_after - p_before == pytest.approx(-E * tau, abs=1e-6)


def make_state(grid, data, a=0.0, E=(0.0,), backend=Backend.GAUGE_FRAME, nl=1.0):
    params = PhysParams(n=grid.n, a=a, E=tuple(E), nl_strength=nl)
    return SimState(t=0.0, field=Field(grid, data), params=params, backend=backend)


class TestStrangStep:
    def test_solitary_wave_modulus_stationary(self, gs_1d):
        grid = gs_1d.profile.grid
        state = make_state(grid, gs_1d.profile.data)
        for _ in range(1000):
            state = strang_step(state, 1e-3)
        drift = np.sqrt(
            np.sum((np.abs(state.field.data) - gs_1d.profile.data.real) ** 2)
            * grid.cell_volume
        )
        assert drift < 1e-4

    def test_exact_mass_contract(self, grid_1d):
        f = random_band_limited_field(grid_1d, seed=5)
        state = make_state(grid_1d, f.data, a=0.1)
        m0 = l2_norm(state.field)
        for _ in range(100):
            state = strang_step(state, 0.01)
        assert l2_norm(state.field) / m0 == pytest.approx(np.exp(-0.1), rel=1e-12)

    def test_second_order_in_dt(self):
        # error against a dt/8 reference drops 4x when dt halves
        grid = GridSpec.create(1, 40.0, 1024)
        x = grid.axis_coordinates(0)
        data = 0.9 * np.exp(-(x**2) / 2).astype(complex)

        def terminal(dt, t_end=0.25):
            state = make_state(grid, data, a=0.1)
            n = int(round(t_end / dt))
            for _ in range(n):
                state = strang_step(state, dt)
            return state.field.data

        ref = terminal(2e-3 / 8)
        e_coarse = np.linalg.norm(terminal(2e-3) - ref)
        e_fine = np.linalg.norm(terminal(1e-3) - ref)
        assert 3.5 <= e_coarse / e_fine <= 4.5

    def test_time_reversal_via_conjugation(self, grid_1d):
        # conj(u(T)) evolved forward for T and conjugated returns u(0)
        f = random_band_limited_field(grid_1d, seed=8)
        state = make_state(grid_1d, 0.5 * f.data)
        for _ in range(200):
            state = strang_step(state, 1e-3)
        back = make_state(grid_1d, np.conj(state.field.data))
        for _ in range(200):
            back = strang_step(back, 1e-3)
        final = np.conj(back.field.data)
        err = np.sqrt(np.sum(np.abs(final - 0.5 * f.data) ** 2) * grid_1d.cell_volume)
        assert err < 1e-6

    @pytest.mark.parametrize("E", [0.0, 0.6])
    def test_equals_composed_substeps(self, grid_1d, E):
        # kinetic(dt/2) o [potential(dt) o nonlinear(dt)] o kinetic(dt/2)
        f = random_band_limited_field(grid_1d, seed=9)
        dt, a = 0.01, 0.3
        state = make_state(grid_1d, 0.7 * f.data, a=a, E=(E,),
                           backend=Backend.DIRECT_POTENTIAL)
        g = kinetic_substep(state.field, dt / 2)
        g = nonlinear_damped_substep(g, dt, a=a, p=5.0)
        g = kinetic_substep(stark_substep_direct(g, dt, [E]), dt / 2)
        assert rel_l2(strang_step(state, dt).field, g.data) < 1e-13

    def test_rejects_nonpositive_dt(self, grid_1d):
        state = make_state(grid_1d, np.ones(grid_1d.shape, dtype=complex))
        with pytest.raises(ValueError):
            strang_step(state, 0.0)


class TestEvolve:
    def test_global_subthreshold_run(self, gs_1d):
        # mass below threshold with damping: runs to t_end, gradient bounded
        grid = gs_1d.profile.grid
        state = make_state(grid, 0.9 * gs_1d.profile.data, a=0.1, E=(0.3,))
        ctrl = StepController(dt0=1e-3, grad_stop=50.0)
        final, traj = evolve(state, 2.0, ctrl, DiagnosticHooks(sample_every_steps=10))
        assert traj.stop_reason is StopReason.T_END
        assert final.t == pytest.approx(2.0, abs=1e-9)
        assert np.max(np.sqrt(traj.columns["grad_norm_sq"])) < 10.0

    def test_blowup_stop_and_mass_law(self, gs_1d):
        grid = GridSpec.create(1, 13.0, 8192)
        x = grid.axis_coordinates(0)
        from starknls.ground_state import radial_interpolant

        q = radial_interpolant(gs_1d)(np.abs(x))
        data = 1.2 * q * np.exp(-1j * x**2 / 4)
        state = make_state(grid, data, a=0.01)
        ctrl = StepController(dt0=1e-3, cfl_const=0.2, grad_stop=100.0)
        final, traj = evolve(state, 5.0, ctrl, DiagnosticHooks())
        assert traj.stop_reason is StopReason.GRAD_THRESHOLD
        assert final.t < 5.0
        m = traj.columns["mass_sq"]
        t = traj.columns["t"]
        expected = m[0] * np.exp(-2 * 0.01 * (t - t[0]))
        assert np.max(np.abs(m / expected - 1.0)) < 1e-12

    def test_gauge_modulus_identity(self, grid_1d):
        # |u(t, x)| equals the shifted frame modulus |phi(t, x + t^2 E)|
        # phi is the E = 0 run over the same fixed steps
        f = random_band_limited_field(grid_1d, seed=10)
        ctrl = StepController(dt0=1e-3, cfl_const=1e300)
        hooks = DiagnosticHooks(sample_every_steps=100)
        phi_run, u_run = (
            evolve(make_state(grid_1d, 0.3 * f.data, a=0.05, E=(E,)), 0.5, ctrl, hooks)[0]
            for E in (0.0, 0.4)
        )
        phi, u, t = phi_run.field, u_run.field, u_run.t
        shift_cells = t * t * 0.4 / grid_1d.dx[0]
        # compare against spectral shift of the modulus profile
        spec = np.fft.fft(phi.data)
        k = np.fft.fftfreq(grid_1d.shape[0], d=1.0 / grid_1d.shape[0])
        shifted = np.fft.ifft(spec * np.exp(2j * np.pi * k * shift_cells / grid_1d.shape[0]))
        assert np.max(np.abs(np.abs(u.data) - np.abs(shifted))) < 1e-9

    def test_backend_equivalence_short(self):
        grid = GridSpec.create(1, 40.0, 2048)
        x = grid.axis_coordinates(0)
        data = np.exp(-(x**2) / 2).astype(complex)
        ctrl = StepController(dt0=1e-3, cfl_const=1e300)
        hooks = DiagnosticHooks(sample_every_steps=1000)
        g_final, _ = evolve(
            make_state(grid, data, a=0.1, E=(0.5,)), 0.5, ctrl, hooks
        )
        d_final, _ = evolve(
            make_state(grid, data, a=0.1, E=(0.5,), backend=Backend.DIRECT_POTENTIAL),
            0.5, ctrl, hooks,
        )
        diff = np.sqrt(
            np.sum(np.abs(g_final.field.data - d_final.field.data) ** 2)
            * grid.cell_volume
        )
        assert diff < 1e-6

    def test_dt_underflow_stop(self, grid_1d):
        f = random_band_limited_field(grid_1d, seed=11)
        state = make_state(grid_1d, f.data)
        ctrl = StepController(dt0=1e-3, cfl_const=1e-300, dt_min=1e-6)
        final, traj = evolve(state, 1.0, ctrl, DiagnosticHooks())
        assert traj.stop_reason is StopReason.DT_UNDERFLOW

    def test_last_step_cut_below_dt_min_ends_at_t_end(self, grid_1d):
        # ten steps of dt0 leave 5e-10 to t_end; the cut step that covers it
        # is far below dt_min, but dt_min bounds only the adaptive step
        x = grid_1d.axis_coordinates(0)
        state = make_state(grid_1d, np.exp(-(x**2)).astype(complex))
        ctrl = StepController(dt0=1e-3, dt_min=1e-6)
        final, traj = evolve(state, 0.0100000005, ctrl, DiagnosticHooks())
        assert traj.stop_reason is StopReason.T_END
        assert final.step_count == 11
        assert final.t == pytest.approx(0.0100000005, abs=1e-15)

    def test_requires_future_t_end(self, grid_1d):
        state = make_state(grid_1d, np.ones(grid_1d.shape, dtype=complex))
        with pytest.raises(ValueError):
            evolve(state, 0.0, StepController())

    @pytest.mark.parametrize("t_end", [np.inf, np.nan])
    def test_rejects_nonfinite_t_end(self, grid_1d, t_end):
        state = make_state(grid_1d, np.ones(grid_1d.shape, dtype=complex))
        with pytest.raises(ValueError, match="finite"):
            evolve(state, t_end, StepController())

    def test_snapshot_cadences(self, grid_1d):
        f = random_band_limited_field(grid_1d, seed=12)
        state = make_state(grid_1d, f.data)
        hooks = DiagnosticHooks(sample_every_steps=5, snapshot_every_steps=50)
        final, traj = evolve(state, 0.2, StepController(dt0=1e-3), hooks)
        assert len(traj.snapshots) == 5  # steps 0, 50, 100, 150 + final
        assert traj.snapshots[-1].t == pytest.approx(final.t)

    def test_2d_run_mass_law_and_energy_identity(self):
        grid = GridSpec.create(2, 8.0, 64)
        f = random_band_limited_field(grid, modes=8, seed=13)
        state = make_state(grid, 0.5 * f.data, a=0.1, E=(0.2, -0.1))
        final, traj = evolve(
            state, 0.2, StepController(dt0=2e-3), DiagnosticHooks(sample_every_steps=5)
        )
        assert traj.stop_reason is StopReason.T_END
        t = traj.columns["t"]
        m = traj.columns["mass_sq"]
        assert np.max(np.abs(m / (m[0] * np.exp(-0.2 * t)) - 1)) < 1e-12
        ev, e0, stark = (traj.columns[k] for k in ("EV", "E0", "stark_moment"))
        assert np.all(np.abs(ev - (e0 + stark)) <= 1e-10 * np.maximum(1, np.abs(ev)))

    def test_seam_warning_in_direct_backend(self):
        # data parked against the box edge trips the seam monitor
        grid = GridSpec.create(1, 20.0, 1024)
        x = grid.axis_coordinates(0)
        data = np.exp(-((x - 19.0) ** 2)).astype(complex)
        state = make_state(grid, data, E=(0.5,), backend=Backend.DIRECT_POTENTIAL)
        _, traj = evolve(state, 0.05, StepController(dt0=1e-3), DiagnosticHooks())
        assert any(code == "seam_contamination" for code, _ in traj.warnings)


def small_collapse_state(gs_1d, E=0.0):
    # 1.2 Q with an inward quadratic phase: an adaptive-dt run toward collapse
    grid = GridSpec.create(1, 13.0, 2048)
    x = grid.axis_coordinates(0)
    from starknls.ground_state import radial_interpolant

    q = radial_interpolant(gs_1d)(np.abs(x))
    return make_state(grid, 1.2 * q * np.exp(-1j * x**2 / 4), a=0.01, E=(E,))


def use_path(monkeypatch, path):
    """Make evolve run its observer jobs inline, or on its worker thread
    whatever the grid size."""
    overlap = path == "overlap"
    monkeypatch.setattr(propagator, "_OVERLAP_MIN_POINTS", 0 if overlap else sys.maxsize)
    if overlap and not propagator._overlaps_observers(GridSpec.create(1, 1.0, 2)):
        pytest.skip("this process may run on one CPU only")


@pytest.fixture(params=["inline", "overlap"])
def observer_path(request, monkeypatch):
    use_path(monkeypatch, request.param)
    return request.param


def run_on_path(observer_path, *args):
    """evolve(*args), checking that every sample ran on the calling thread
    (inline) or on one other thread (overlap)."""
    inner, threads = diagnostics.sample, set()

    def sample(*a, **kw):
        threads.add(threading.get_ident())
        return inner(*a, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagnostics, "sample", sample)
        result = evolve(*args)
    here = threading.get_ident()
    if observer_path == "inline":
        assert threads == {here}
    else:
        assert len(threads) == 1 and here not in threads
    return result


def modulated_gaussian(grid, amplitude=1.0):
    """amplitude exp(-x^2) carried at 0.9 of the Nyquist wavenumber: the top
    1/8 of its spectrum holds 0.861 of the mass."""
    x = grid.axis_coordinates(0)
    return amplitude * np.exp(-(x**2) + 0.9j * np.pi / grid.dx[0] * x)


STOP_ORDER = (
    StopReason.DIVERGED,
    StopReason.GRAD_THRESHOLD,
    StopReason.SPECTRAL_FILL,
    StopReason.T_END,
    StopReason.DT_UNDERFLOW,
)

# the comparison by which each rule fires, value against threshold
FIRES = {
    StopReason.DIVERGED: lambda value, threshold: not value < threshold,
    StopReason.GRAD_THRESHOLD: operator.gt,
    StopReason.SPECTRAL_FILL: operator.gt,
    StopReason.T_END: operator.ge,
    StopReason.DT_UNDERFLOW: operator.lt,
}


class TestStopTable:
    """Each rule of evolve's stop table fires by its own comparison and
    records the value that fired it; the rules are read in one order."""

    @pytest.fixture(scope="class")
    def grid_512(self):
        return GridSpec.create(1, 20.0, 512)

    @staticmethod
    def run_to_stop(reason, grid, gs_1d):
        """A run that ends by reason, with the value and the threshold that
        rule should record, read from the final sample."""
        gauss = np.exp(-(grid.axis_coordinates(0) ** 2)).astype(complex)
        state, t_end, ctrl = {  # a run that each rule ends
            StopReason.DIVERGED: (make_state(grid, 1e160 * gauss), 5.0, StepController()),
            StopReason.GRAD_THRESHOLD: (small_collapse_state(gs_1d), 5.0,
                                        StepController(grad_stop=60.0)),
            StopReason.SPECTRAL_FILL: (make_state(grid, modulated_gaussian(grid)), 5.0,
                                       StepController(spectral_fill_max=0.5)),
            StopReason.T_END: (make_state(grid, gauss), 0.01, StepController(dt0=1e-3)),
            StopReason.DT_UNDERFLOW: (make_state(grid, gauss), 5.0,
                                      StepController(cfl_const=1e-300, dt_min=1e-6)),
        }[reason]
        with np.errstate(over="ignore", invalid="ignore"):
            final, traj = evolve(state, t_end, ctrl, DiagnosticHooks())
        col = {name: values[-1] for name, values in traj.columns.items()}
        expected = {
            StopReason.DIVERGED: (col["mass_sq"] + col["grad_norm_sq"], np.inf),
            StopReason.GRAD_THRESHOLD: (np.sqrt(col["grad_norm_sq"]), 60.0),
            StopReason.SPECTRAL_FILL: (col["spectral_fill"], 0.5),
            StopReason.T_END: (final.t, 0.01 - 1e-12),
            StopReason.DT_UNDERFLOW: (1e-300 / col["grad_norm_sq"], 1e-6),
        }[reason]
        return traj, expected

    @pytest.mark.parametrize("reason", STOP_ORDER, ids=lambda reason: reason.value)
    def test_rule_records_its_trigger(self, reason, grid_512, gs_1d):
        traj, (value, threshold) = self.run_to_stop(reason, grid_512, gs_1d)
        assert traj.stop_reason is reason
        assert FIRES[reason](traj.stop_value, traj.stop_threshold)
        assert traj.stop_threshold == threshold
        np.testing.assert_allclose(traj.stop_value, value, rtol=1e-12)
        assert traj.stop_trigger.startswith(f"{reason.value} (")

    @pytest.mark.parametrize("reason", [StopReason.DIVERGED, StopReason.SPECTRAL_FILL],
                             ids=lambda reason: reason.value)
    def test_fires_before_the_first_step(self, reason, grid_512, gs_1d):
        traj, _ = self.run_to_stop(reason, grid_512, gs_1d)
        assert len(traj.columns["t"]) == 1
        if reason is StopReason.SPECTRAL_FILL:
            assert traj.stop_value == pytest.approx(0.861, abs=1e-3)

    @pytest.mark.parametrize("first", range(len(STOP_ORDER)),
                             ids=lambda first: STOP_ORDER[first].value)
    def test_earlier_row_wins(self, grid_512, first):
        # at t = 1 every rule from STOP_ORDER[first] on fires before the
        # first step and every earlier one does not: at amplitude 1e152
        # |grad u|^2 overflows while mass_sq stays finite (1.3e304), and the
        # top band holds 0.861 of the mass at either amplitude
        amplitude = 1e152 if first == 0 else 1.0
        state = dataclasses.replace(
            make_state(grid_512, modulated_gaussian(grid_512, amplitude)), t=1.0
        )
        ctrl = StepController(
            cfl_const=1e-300,  # dt = cfl / |grad u|^2 < dt_min
            grad_stop=1.0 if first <= 1 else 1e3,  # |grad u| = 40.5
            spectral_fill_max=0.5 if first <= 2 else 0.99,
        )
        t_end = 1.0 + 1e-13 if first <= 3 else 2.0
        with np.errstate(over="ignore", invalid="ignore"):
            _, traj = evolve(state, t_end, ctrl, DiagnosticHooks())
        assert traj.stop_reason is STOP_ORDER[first]


class TestOutcomeTable:
    """One table says what each stop means for the run, one which exit code
    each meaning gets."""

    def test_every_stop_has_an_outcome_and_every_outcome_an_exit_code(self):
        assert set(OUTCOMES) == set(StopReason)
        assert set(OUTCOMES.values()) == set(EXIT_CODES)
        assert EXIT_CODES == {"global": 0, "blowup": 2, "error": 1}

    @pytest.mark.parametrize("reason, outcome", [
        (StopReason.T_END, "global"),
        (StopReason.GRAD_THRESHOLD, "blowup"),
        (StopReason.SPECTRAL_FILL, "blowup"),
        (StopReason.DT_UNDERFLOW, "error"),
        (StopReason.DIVERGED, "error"),
    ], ids=lambda value: getattr(value, "value", value))
    def test_record_reads_its_outcome_from_the_table(self, reason, outcome):
        traj = TrajectoryRecord(stop_reason=reason)
        assert traj.outcome == OUTCOMES[reason] == outcome
        assert traj.blew_up is (outcome == "blowup")


class TestFusedKernel:
    @pytest.mark.parametrize("E", [0.0, 0.3])
    def test_sample_cadence_keeps_trajectory(self, gs_1d, E):
        state = small_collapse_state(gs_1d, E)
        ctrl = StepController(grad_stop=60.0)
        runs = [
            evolve(state, 5.0, ctrl, DiagnosticHooks(sample_every_steps=every))
            for every in (1, 7)
        ]
        (f1, tr1), (f7, tr7) = runs
        assert tr1.stop_reason is StopReason.GRAD_THRESHOLD
        assert f1.step_count == f7.step_count > 50
        assert np.max(np.abs(np.diff(tr1.columns["dt"][1:]))) > 0  # dt adapts
        assert f1.t == f7.t
        assert rel_l2(f7.field, f1.field.data) < 1e-12

    @staticmethod
    def count_transforms(state, fft_calls, monkeypatch, observer_path):
        """Steps, samples, complex transforms in all and per sample call of
        one sampled run. A sample call is credited with the transforms made
        on its own thread while it ran, so the steps that run next to it on
        the overlapped path are not."""
        real_sample = diagnostics.sample
        in_sample = []

        def complex_calls(thread=None):
            counts = fft_calls if thread is None else fft_calls.on_thread(thread)
            return sum(counts[k] for k in COMPLEX_FFTS)

        def counted_sample(*args, **kwargs):
            before = complex_calls(threading.get_ident())
            out = real_sample(*args, **kwargs)
            in_sample.append(complex_calls(threading.get_ident()) - before)
            return out

        monkeypatch.setattr(diagnostics, "sample", counted_sample)
        final, traj = run_on_path(observer_path, state, 5.0, StepController(grad_stop=60.0),
                                  DiagnosticHooks(sample_every_steps=3))
        steps, samples = final.step_count, len(traj.columns["t"])
        assert steps > 50 and samples == len(in_sample)
        return steps, samples, complex_calls(), in_sample

    def test_transform_budget(self, gs_1d, fft_calls, monkeypatch, observer_path):
        # E = 0: two transforms per step, one per sample, and the initial
        # spectrum; the observers reuse the kernel's spectrum
        steps, samples, calls, in_sample = self.count_transforms(
            small_collapse_state(gs_1d), fft_calls, monkeypatch, observer_path
        )
        assert calls <= 2 * steps + samples + 2
        assert in_sample == [0] * samples

    def test_transform_budget_in_frame(self, gs_1d, fft_calls, monkeypatch,
                                       observer_path):
        # E != 0 in the frame: a sample maps out with one inverse transform
        # and takes its power with one forward transform; the final state is
        # the final sample's field, so it costs nothing more
        steps, samples, calls, in_sample = self.count_transforms(
            small_collapse_state(gs_1d, E=0.3), fft_calls, monkeypatch, observer_path
        )
        assert calls <= 2 * steps + 2 * samples + 1
        assert in_sample == [1] * samples

    def test_observed_states_match_repeated_strang_step(self, gs_1d):
        # every sampled or snapshotted field has received its owed half-step:
        # replaying the run's dt series through strang_step gives the same
        # states. strang_step takes its mass reference from each step's own
        # spectrum, so the two differ by round-off grown over the collapse
        # (2.6e-11 at the end); a missing half-step shows as 7e-4 to 9e-2.
        state = small_collapse_state(gs_1d)
        hooks = DiagnosticHooks(sample_every_steps=1, snapshot_every_steps=10)
        final, traj = evolve(state, 5.0, StepController(grad_stop=60.0), hooks)
        snaps = {round(s.t, 12): s.field for s in traj.snapshots}
        checked = 0
        for dt in traj.columns["dt"][1:].tolist():
            state = strang_step(state, dt)
            snap = snaps.get(round(state.t, 12))
            if snap is not None:
                assert rel_l2(snap, state.field.data) < 1e-9
                checked += 1
        assert checked == len(traj.snapshots) - 1  # all but the initial one
        assert rel_l2(final.field, state.field.data) < 1e-9


def fingerprint(final, traj):
    """Everything one evolve call returns, as bytes (nan equals nan)."""
    def bits(*values):
        return np.array(values, dtype=np.float64).tobytes()

    return {
        "columns": {name: values.tobytes() for name, values in traj.columns.items()},
        "snapshots": [(bits(s.t, s.grad_norm), s.field.data.tobytes())
                      for s in traj.snapshots],
        "warnings": [(code, bits(t)) for code, t in traj.warnings],
        "stop": (traj.stop_reason, bits(traj.stop_value, traj.stop_threshold)),
        "final": (bits(final.t), final.step_count, final.field.data.tobytes()),
    }


class TestObserverOverlap:
    """On the overlapped path evolve records what it records inline, bit for
    bit, and its worker thread never outlives the call."""

    @staticmethod
    def both_paths(monkeypatch, *args):
        runs = {}
        for path in ("inline", "overlap"):
            use_path(monkeypatch, path)
            runs[path] = fingerprint(*run_on_path(path, *args))
        return runs["inline"], runs["overlap"]

    @pytest.mark.parametrize(
        "E, backend",
        [(0.0, Backend.GAUGE_FRAME), (0.3, Backend.GAUGE_FRAME),
         (0.3, Backend.DIRECT_POTENTIAL)],
        ids=["E0", "gauge", "direct"],
    )
    @pytest.mark.parametrize(
        "hooks",
        [DiagnosticHooks(sample_every_steps=1, snapshot_grad_factor=1.2),
         DiagnosticHooks(sample_every_steps=7, snapshot_every_steps=10)],
        ids=["every-step-grad-snapshots", "every-7th-step-snapshots"],
    )
    def test_overlap_records_the_inline_bits(self, gs_1d, monkeypatch, E, backend, hooks):
        state = dataclasses.replace(small_collapse_state(gs_1d, E), backend=backend)
        inline, overlap = self.both_paths(
            monkeypatch, state, 5.0, StepController(grad_stop=60.0), hooks
        )
        assert len(inline["snapshots"]) > 5
        if E and backend is Backend.GAUGE_FRAME:  # the frame run reaches the seam
            assert {code for code, _ in inline["warnings"]} == {
                "seam_contamination", "boundary_mass"}
        assert overlap == inline

    @pytest.mark.parametrize("reason", [StopReason.DIVERGED, StopReason.SPECTRAL_FILL],
                             ids=lambda reason: reason.value)
    def test_stop_before_the_first_step(self, monkeypatch, reason):
        # only the final sample exists. The diverged field overflows in the
        # sample, which the caller's np.errstate silences on the worker too.
        grid = GridSpec.create(1, 20.0, 512)
        if reason is StopReason.DIVERGED:
            state = make_state(grid, 1e160 * np.exp(-(grid.axis_coordinates(0) ** 2)))
        else:
            state = make_state(grid, modulated_gaussian(grid))
        ctrl = StepController(spectral_fill_max=0.5)
        hooks = DiagnosticHooks(snapshot_every_steps=3)
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("error", RuntimeWarning)
            inline, overlap = self.both_paths(monkeypatch, state, 5.0, ctrl, hooks)
        assert inline["stop"][0] is reason
        assert inline["final"][1] == 0 and len(inline["columns"]["t"]) == 8
        assert len(inline["snapshots"]) == 1
        assert overlap == inline

    def test_short_switch_interval_keeps_the_bits(self, gs_1d, monkeypatch):
        # the threads switch every microsecond, so a job that read an array
        # the next step writes, or a buffer the last job still uses, shows
        state = small_collapse_state(gs_1d, E=0.3)
        hooks = DiagnosticHooks(snapshot_grad_factor=1.2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            inline, overlap = self.both_paths(
                monkeypatch, state, 5.0, StepController(grad_stop=60.0), hooks
            )
        finally:
            sys.setswitchinterval(interval)
        assert overlap == inline

    def test_no_thread_outlives_the_call(self, gs_1d, monkeypatch):
        use_path(monkeypatch, "overlap")
        before = threading.active_count()
        run_on_path("overlap", small_collapse_state(gs_1d), 5.0,
                    StepController(grad_stop=60.0), DiagnosticHooks())
        assert threading.active_count() == before

    def test_observer_error_reaches_the_caller(self, gs_1d, monkeypatch):
        use_path(monkeypatch, "overlap")
        error, threads, real_sample = RuntimeError("observer failed"), [], diagnostics.sample

        def failing_sample(*args, **kwargs):
            threads.append(threading.get_ident())
            if len(threads) == 3:  # while the run goes on
                raise error
            return real_sample(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "sample", failing_sample)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as raised:
            evolve(small_collapse_state(gs_1d), 5.0, StepController(grad_stop=60.0),
                   DiagnosticHooks())
        assert raised.value is error
        assert len(threads) == 3 and threading.get_ident() not in threads
        assert threading.active_count() == before


class TestPhysicalStates:
    """Every state evolve and strang_step take or return holds the physical
    field; the accelerated frame stays inside the kernel."""

    DT = 2.0**-10  # a fixed step that sums exactly to the split time

    def gauge_state(self, grid, E):
        f = random_band_limited_field(grid, seed=14)
        return make_state(grid, 0.5 * f.data, a=0.1, E=(E,))

    def run(self, state, t_end):
        ctrl = StepController(dt0=self.DT, cfl_const=1e300)
        return evolve(state, t_end, ctrl, DiagnosticHooks(sample_every_steps=64))[0]

    def test_split_run_matches_unbroken(self, grid_1d):
        # the continuation maps the physical state at t = 0.25 into the frame
        state = self.gauge_state(grid_1d, 0.3)
        whole = self.run(state, 0.5)
        half = self.run(state, 0.25)
        rest = self.run(half, 0.5)
        assert half.t == 0.25 and rest.t == whole.t == 0.5
        assert rest.step_count == whole.step_count == 512
        assert rel_l2(rest.field, whole.field.data) < 1e-12

    def test_strang_step_replay_gives_physical_field(self, grid_1d):
        # the frame run mapped out equals the E = 0 run mapped by ah_forward
        state = self.gauge_state(grid_1d, 0.3)
        final = self.run(state, 0.25)
        frame = self.run(self.gauge_state(grid_1d, 0.0), 0.25)
        assert rel_l2(final.field, ah_forward(frame.field, 0.25, [0.3]).data) < 1e-12
        for _ in range(final.step_count):
            state = strang_step(state, self.DT)
        assert state.t == final.t
        assert rel_l2(state.field, final.field.data) < 1e-12

    @pytest.mark.parametrize(
        "E, backend",
        [(0.0, Backend.GAUGE_FRAME), (0.3, Backend.GAUGE_FRAME),
         (0.3, Backend.DIRECT_POTENTIAL)],
        ids=["E0", "gauge", "direct"],
    )
    def test_final_state_is_last_snapshot(self, grid_1d, E, backend):
        f = random_band_limited_field(grid_1d, seed=15)
        state = make_state(grid_1d, 0.5 * f.data, a=0.1, E=(E,), backend=backend)
        hooks = DiagnosticHooks(sample_every_steps=7, snapshot_every_steps=40)
        final, traj = evolve(state, 0.1, StepController(dt0=1e-3), hooks)
        last = traj.snapshots[-1]
        assert last.t == final.t
        assert np.array_equal(last.field.data, final.field.data)


class TestKineticMultiplier:
    @pytest.mark.parametrize(
        "grid",
        [
            GridSpec.create(1, 13.0, 65536),
            GridSpec.create(2, (10.0, 7.0), (64, 32)),
            GridSpec.create(3, 5.0, 16),
            GridSpec.create(1, 1.0, 2),
        ],
        ids=["1d-65536", "2d-64x32", "3d-16", "1d-2"],
    )
    @pytest.mark.parametrize("tau", [0.37, 1.234e-5])
    def test_mirrored_half_is_bit_identical(self, grid, tau):
        # the phase on the modes 0..N/2 of the last axis, the rest mirrored
        full = spectral._cis(grid.k_sq * -tau)
        half = _kinetic_multiplier(grid.k_sq, tau)
        assert np.array_equal(half.view(np.float64), full.view(np.float64))


class TestStepAllocations:
    @pytest.mark.parametrize("E", [0.0, 0.3])
    def test_step_allocates_under_four_arrays(self, E):
        # The nonlinear factor goes into a kernel-owned buffer and |k|^2 |fh|^2
        # into its scratch; what a step allocates is the phase and the two
        # half-angle arrays of _cis, three N-point float arrays at the peak
        # (four before, with the factor allocated per step).
        grid = GridSpec.create(1, 13.0, 8192)
        x = grid.axis_coordinates(0)
        state = make_state(grid, 1.2 * np.exp(-(x**2)) * np.exp(-0.25j * x**2),
                           a=0.01, E=(E,))
        kernel = _Stepper(state)
        kernel.step(1e-3)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            kernel.step(1e-3)
            kernel.step(0.9e-3)  # rebuilds the kinetic multiplier
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 8 * grid.num_points


class TestTransformScratch:
    @pytest.fixture
    def fresh_helper(self):
        # the helper runs once per process; forget that around the test, so
        # the next kernel applies the real setting again
        spectral._keep_transform_scratch.cache_clear()
        yield spectral._keep_transform_scratch
        spectral._keep_transform_scratch.cache_clear()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc only")
    def test_step_takes_no_page_faults(self):
        # under glibc's default policy numpy.fft's ~2 MB work buffer at
        # N = 65536 is faulted back in on every transform, ~1,470 faults per
        # step. A fresh interpreter, because large frees earlier in this
        # process move glibc's dynamic thresholds.
        script = textwrap.dedent(
            """
            import resource
            import numpy as np
            from starknls import Field, GridSpec, PhysParams, SimState
            from starknls.propagator import _Stepper

            grid = GridSpec.create(1, 13.0, 65536)
            x = grid.axis_coordinates(0)
            field = Field(grid, 1.2 * np.exp(-(x**2)) + 0j)
            state = SimState(t=0.0, field=field, params=PhysParams(n=1, a=0.01))
            kernel = _Stepper(state)
            for _ in range(3):
                kernel.step(1e-4)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for dt in np.linspace(1e-4, 5e-5, 20):  # a new multiplier every step
                kernel.step(float(dt))
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            """
        )
        out = subprocess.run([sys.executable, "-c", script], env=child_env(),
                             check=True, capture_output=True, text=True, timeout=120)
        assert int(out.stdout) / 20 <= 50

    def test_libc_without_mallopt_is_a_no_op(self, fresh_helper, monkeypatch):
        opened = []

        def no_mallopt(name):
            opened.append(name)
            return types.SimpleNamespace()

        monkeypatch.setattr(ctypes, "CDLL", no_mallopt)
        assert fresh_helper() is False
        assert fresh_helper() is False
        assert opened == [None]

    @pytest.mark.parametrize("accepted", [True, False])
    def test_mallopt_result_is_checked(self, fresh_helper, monkeypatch, accepted):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return int(accepted)

        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        assert fresh_helper() is accepted
        mmap_call = (spectral._M_MMAP_THRESHOLD, 32 << 20)
        trim_call = (spectral._M_TRIM_THRESHOLD, 64 << 20)
        # a rejected mmap threshold leaves the trim threshold alone
        assert calls == ([mmap_call, trim_call] if accepted else [mmap_call])

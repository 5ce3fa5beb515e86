"""Accelerated-frame transform and pseudo-conformal profile tests."""

import numpy as np
import pytest

from starknls import (
    Field,
    GridSpec,
    PseudoConformalParams,
    ah_forward,
    ah_inverse,
    grad_norm_sq,
    ground_state_1d_exact,
    l2_norm,
    l2_norm_sq,
    pseudo_conformal_profile,
)
from starknls.errors import ResolutionError

from conftest import random_band_limited_field

Q_MASS_SQ = 2.7206990463513267


def rel_l2(a: Field, b: Field) -> float:
    return l2_norm(Field(a.grid, a.data - b.data)) / max(l2_norm(b), 1e-300)


class TestAcceleratedFrame:
    def test_t_zero_is_identity(self, grid_1d):
        f = random_band_limited_field(grid_1d, seed=1)
        out = ah_forward(f, 0.0, [0.4])
        assert np.array_equal(out.data, f.data)

    def test_e_zero_is_identity(self, grid_1d):
        f = random_band_limited_field(grid_1d, seed=2)
        out = ah_inverse(f, 0.7, [0.0])
        assert np.array_equal(out.data, f.data)

    def test_modulus_is_shifted_modulus(self, grid_1d):
        # shift by a whole number of grid cells so the comparison is exact
        dx = grid_1d.dx[0]
        shift_cells = 37
        t = 1.0
        E = shift_cells * dx / t**2
        f = random_band_limited_field(grid_1d, seed=3)
        out = ah_forward(f, t, [E])
        expected = np.abs(np.roll(f.data, -shift_cells))
        assert np.max(np.abs(np.abs(out.data) - expected)) < 1e-10

    def test_isometry(self, grid_1d):
        f = random_band_limited_field(grid_1d, seed=4)
        out = ah_forward(f, 0.73, [0.4])
        assert abs(l2_norm_sq(out) - l2_norm_sq(f)) <= 1e-12 * l2_norm_sq(f)

    def test_round_trip(self, grid_1d):
        f = random_band_limited_field(grid_1d, seed=5)
        back = ah_inverse(ah_forward(f, 0.73, [0.4]), 0.73, [0.4])
        assert rel_l2(back, f) < 1e-12

    def test_round_trip_2d(self):
        grid = GridSpec.create(2, 8.0, 64)
        f = random_band_limited_field(grid, modes=8, seed=6)
        E = [0.3, -0.2]
        back = ah_inverse(ah_forward(f, 1.1, E), 1.1, E)
        assert rel_l2(back, f) < 1e-12

    def test_gradient_decomposition_bounds(self, grid_1d):
        # |grad u| lies within t |E| ||phi|| of |grad phi|
        t, E = 1.3, 0.5
        for seed in range(5):
            f = random_band_limited_field(grid_1d, seed=seed)
            gu = np.sqrt(grad_norm_sq(ah_forward(f, t, [E])))
            gp = np.sqrt(grad_norm_sq(f))
            drift = t * E * l2_norm(f)
            assert gu <= gp + drift + 1e-9
            assert gu >= gp - drift - 1e-9


class TestPseudoConformalProfile:
    def test_t_minus_one_substitution(self, gs_1d):
        # at T - t = 1 the profile is e^{i(theta+1)} Q(x-x0) e^{-i|x-x0|^2/4}
        grid = gs_1d.profile.grid
        pc = PseudoConformalParams(theta=0.0, T=3.0, x0=(0.0,), t=2.0)
        prof = pseudo_conformal_profile(grid, pc, gs_1d)
        x = grid.axis_coordinates(0)
        expected = (
            ground_state_1d_exact(x)
            * np.exp(-1j * x**2 / 4.0)
            * np.exp(1j)
        )
        assert rel_l2(prof, Field(grid, expected)) < 1e-6

    def test_mass_isometry_across_times(self, gs_1d):
        grid = GridSpec.create(1, 12.0, 4096)
        for t in (0.0, 0.5, 0.8, 0.95):
            pc = PseudoConformalParams(T=1.0, t=t)
            prof = pseudo_conformal_profile(grid, pc, gs_1d)
            assert l2_norm_sq(prof) == pytest.approx(Q_MASS_SQ, rel=1e-6)

    def test_gradient_growth_exponent(self, gs_1d):
        # ||grad S(t)|| ~ C / (T-t): log-log slope within 0.05 of -1
        grid = GridSpec.create(1, 10.0, 4096)
        lams = np.geomspace(0.05, 0.3, 8)
        grads = []
        for lam in lams:
            pc = PseudoConformalParams(T=1.0, t=1.0 - lam)
            prof = pseudo_conformal_profile(grid, pc, gs_1d)
            grads.append(np.sqrt(grad_norm_sq(prof)))
        slope = np.polyfit(np.log(lams), np.log(grads), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.05)

    def test_unresolvable_width_rejected(self, gs_1d):
        grid = GridSpec.create(1, 10.0, 256)  # dx = 0.078
        with pytest.raises(ResolutionError):
            pseudo_conformal_profile(
                grid, PseudoConformalParams(T=1.0, t=1.0 - 0.1), gs_1d
            )

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PseudoConformalParams(T=1.0, t=1.5)

    def test_minimal_mass_data_is_global_under_damping(self, gs_1d):
        # threshold-mass collapsing data cannot blow up once damping bites:
        # the transient focusing arrests and the run reaches t_end
        from starknls import (
            Backend, DiagnosticHooks, PhysParams, SimState, StepController,
            StopReason, evolve,
        )

        grid = GridSpec.create(1, 12.0, 8192)
        prof = pseudo_conformal_profile(
            grid, PseudoConformalParams(T=1.0, t=0.0), gs_1d
        )
        state = SimState(
            t=0.0, field=prof, params=PhysParams(n=1, a=0.3),
            backend=Backend.GAUGE_FRAME,
        )
        ctrl = StepController(dt0=1e-3, cfl_const=0.1, grad_stop=500.0)
        final, traj = evolve(state, 2.0, ctrl, DiagnosticHooks(sample_every_steps=20))
        assert traj.stop_reason is StopReason.T_END
        grad = np.sqrt(traj.columns["grad_norm_sq"])
        assert np.max(grad) < 50.0  # focusing arrested well before resolution loss

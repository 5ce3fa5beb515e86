"""Ground-state solver tests against the closed form and independent oracles.

Frozen values derive from symbolic computation with Q = 3^(1/4) sech^(1/2)(2x):
substitution confirms Q'' - Q + Q^5 = 0 exactly, and

    Q(0)        = 3^(1/4)        = 1.3160740129524924
    int Q^2     = sqrt(3) pi / 2 = 2.7206990463513267
    int Q'^2    = 1.3603495231756634
    int Q^6     = 4.0810485695269902
    threshold   = sqrt(int Q^2)  = 1.6494541661869016

The 2D solver is cross-checked against a radial shooting oracle for
Q'' + Q'/r - Q + Q^3 = 0 computed inside the test.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from starknls import (
    GridSpec,
    Field,
    grad_norm_sq,
    ground_state_1d_exact,
    ground_state_energy,
    petviashvili,
    threshold_mass,
)
from starknls.errors import IterationError, ResolutionError
from starknls.ground_state import radial_interpolant

Q_PEAK = 1.3160740129524924
Q_MASS_SQ = 2.7206990463513267
Q_GRAD_SQ = 1.3603495231756634
Q_P6_SUM = 4.0810485695269902
THRESHOLD_1D = 1.6494541661869016


class TestClosedForm:
    def test_peak_value(self):
        assert ground_state_1d_exact(0.0) == pytest.approx(Q_PEAK, rel=1e-14)

    def test_monotone_decay(self):
        x = np.linspace(0, 15, 400)
        q = ground_state_1d_exact(x)
        assert np.all(np.diff(q) < 0)
        assert ground_state_1d_exact(30.0) < 1e-12

    def test_satisfies_equation(self):
        # high-order finite differences on a fine mesh as an independent check
        h = 1e-4
        x = np.linspace(-4, 4, 801)
        q = ground_state_1d_exact(x)
        qpp = (
            ground_state_1d_exact(x + h)
            - 2 * q
            + ground_state_1d_exact(x - h)
        ) / h**2
        residual = qpp - q + q**5
        assert np.max(np.abs(residual)) < 1e-6

    def test_analytic_mass(self):
        x = np.linspace(-20, 20, 200001)
        q = ground_state_1d_exact(x)
        mass = np.trapezoid(q**2, x)
        assert mass == pytest.approx(Q_MASS_SQ, rel=1e-10)


class TestPetviashvili1D:
    def test_matches_closed_form(self, grid_1d, gs_1d):
        x = grid_1d.axis_coordinates(0)
        err = np.max(np.abs(gs_1d.profile.data.real - ground_state_1d_exact(x)))
        assert err < 1e-8

    def test_mass(self, gs_1d):
        assert gs_1d.mass_sq == pytest.approx(Q_MASS_SQ, abs=1e-8)

    def test_pohozaev_pair(self, gs_1d):
        assert gs_1d.grad_sq == pytest.approx(0.5 * gs_1d.mass_sq, rel=1e-5)
        p6 = np.sum(gs_1d.profile.data.real**6) * gs_1d.profile.grid.cell_volume
        assert p6 == pytest.approx(gs_1d.grad_sq + gs_1d.mass_sq, rel=1e-5)
        assert p6 == pytest.approx(Q_P6_SUM, rel=1e-6)

    def test_strictly_positive_and_symmetric(self, gs_1d):
        q = gs_1d.profile.data.real
        assert q.min() > 0
        mirrored = np.roll(q[::-1], 1)
        assert np.max(np.abs(q - mirrored)) <= 1e-8 * q.max()

    def test_residual_below_tolerance(self, gs_1d):
        assert gs_1d.residual < 1e-9

    def test_seed_invariance(self, grid_1d, gs_1d):
        wide = petviashvili(grid_1d, tol=1e-10, seed_width=2.0)
        diff = np.max(np.abs(wide.profile.data.real - gs_1d.profile.data.real))
        assert diff < 10 * 1e-10

    def test_residual_monotone_after_burn_in(self, grid_1d):
        # re-run recording the residual history via small max_iter probes
        residuals = []
        for budget in range(1, 30):
            try:
                gs = petviashvili(grid_1d, tol=1e-30, max_iter=budget)
            except IterationError as exc:
                residuals.append(exc.last_residual)
            else:  # pragma: no cover - tol=1e-30 never converges
                residuals.append(gs.residual)
        burn_in = residuals[20:]
        assert all(
            later <= earlier * (1 + 1e-9) + 1e-14
            for earlier, later in zip(burn_in, burn_in[1:])
        )


@pytest.fixture(scope="module")
def gs_2d():
    return petviashvili(GridSpec.create(2, 15.0, 256), tol=1e-8)


class TestPetviashvili2D:
    def test_resolution_consistency(self, gs_2d):
        fine = petviashvili(GridSpec.create(2, 15.0, 512), tol=1e-8)
        assert abs(fine.mass_sq - gs_2d.mass_sq) / gs_2d.mass_sq < 1e-3

    def test_pohozaev(self, gs_2d):
        assert gs_2d.grad_sq == pytest.approx(gs_2d.mass_sq, rel=1e-5)

    def test_radial_symmetry(self, gs_2d):
        q = gs_2d.profile.data.real
        peak = q.max()
        mirror_x = np.roll(q[::-1, :], 1, axis=0)
        mirror_y = np.roll(q[:, ::-1], 1, axis=1)
        assert np.max(np.abs(q - mirror_x)) <= 1e-8 * peak
        assert np.max(np.abs(q - mirror_y)) <= 1e-8 * peak
        assert np.max(np.abs(q - q.T)) <= 1e-8 * peak

    def test_energy_zero(self, gs_2d):
        assert abs(ground_state_energy(gs_2d)) < 1e-4 * gs_2d.mass_sq

    def test_shooting_oracle(self, gs_2d):
        """Independent radial oracle: integrate Q'' + Q'/r - Q + Q^3 = 0 and
        bisect the peak amplitude for the decaying positive solution."""

        def rhs(r, y):
            q, dq = y
            return [dq, q - q**3 - dq / max(r, 1e-12)]

        def shoot(alpha, r_max=14.0):
            r0 = 1e-6
            q0 = alpha + 0.25 * (alpha - alpha**3) * r0**2
            dq0 = 0.5 * (alpha - alpha**3) * r0
            sol = solve_ivp(
                rhs, (r0, r_max), [q0, dq0], rtol=1e-11, atol=1e-13,
                dense_output=True, max_step=0.05,
            )
            q = sol.y[0]
            # overshoot: crosses zero; undershoot: turns back upward
            if np.any(q < 0):
                return 1, sol
            return -1, sol

        lo, hi = 2.0, 2.5
        assert shoot(lo)[0] == -1 and shoot(hi)[0] == 1
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            if shoot(mid)[0] > 0:
                hi = mid
            else:
                lo = mid
        alpha = 0.5 * (lo + hi)
        # peak amplitude agrees with the grid solver
        assert gs_2d.profile.data.real.max() == pytest.approx(alpha, abs=2e-4)
        # mass 2 pi int Q^2 r dr agrees within the grid tolerance
        _, sol = shoot(alpha)
        r = np.linspace(1e-6, 12.0, 4000)
        q = sol.sol(r)[0]
        q = np.where(np.abs(q) < 1e3, q, 0.0)
        mass = 2 * np.pi * np.trapezoid(q**2 * r, r)
        assert gs_2d.mass_sq == pytest.approx(mass, rel=1e-3)


class TestPetviashvili3D:
    def test_pohozaev_self_consistency(self):
        # no external oracle frozen for 3D; the scaling identities are the check
        gs = petviashvili(GridSpec.create(3, 10.0, 128), tol=1e-8)
        assert gs.grad_sq == pytest.approx(1.5 * gs.mass_sq, rel=1e-4)
        assert abs(ground_state_energy(gs)) < 1e-4 * gs.mass_sq


class TestThreshold:
    def test_1d_value(self):
        assert threshold_mass(1) == pytest.approx(THRESHOLD_1D, abs=1e-8)

    def test_refinement_invariance(self):
        coarse = threshold_mass(1, N=1024, L=20.0)
        fine = threshold_mass(1, N=2048, L=20.0)
        assert abs(fine - coarse) / coarse < 1e-6

    def test_2d_stable_across_resolutions(self):
        a = threshold_mass(2, N=256, L=15.0)
        b = threshold_mass(2, N=512, L=15.0)
        assert abs(a - b) / a < 1e-3

    def test_cache_returns_same_object(self):
        from starknls import cached_ground_state

        assert cached_ground_state(1, N=1024, L=20.0) is cached_ground_state(
            1, N=1024, L=20.0
        )


class TestEnergy:
    def test_ground_state_energy_vanishes(self, gs_1d):
        assert abs(ground_state_energy(gs_1d)) < 1e-6 * gs_1d.mass_sq

    def test_scaled_down_profile_has_positive_energy(self, gs_1d):
        grid = gs_1d.profile.grid
        half = Field(grid, 0.5 * gs_1d.profile.data)
        p6 = np.sum(np.abs(half.data) ** 6) * grid.cell_volume
        e0 = 0.25 * gs_1d.grad_sq - p6 / 3.0
        assert e0 > 0


class TestErrors:
    def test_bad_tolerance(self, grid_1d):
        with pytest.raises(ResolutionError):
            petviashvili(grid_1d, tol=0.0)

    def test_coarse_grid_rejected(self):
        with pytest.raises(ResolutionError):
            petviashvili(GridSpec.create(1, 20.0, 128))  # dx = 0.3125

    def test_iteration_budget(self, grid_1d):
        with pytest.raises(IterationError) as info:
            petviashvili(grid_1d, tol=1e-30, max_iter=10)
        assert info.value.last_residual is not None


class TestRadialInterpolant:
    def test_matches_closed_form(self, gs_1d):
        # cubic-spline error peaks near r=0 at |Q''''| dx^4 / 384 ~ 2e-7
        q_of_r = radial_interpolant(gs_1d)
        r = np.linspace(0.0, 8.0, 500)
        assert np.max(np.abs(q_of_r(r) - ground_state_1d_exact(r))) < 1e-6

    def test_zero_beyond_domain(self, gs_1d):
        q_of_r = radial_interpolant(gs_1d)
        assert q_of_r(np.array([1000.0]))[0] == 0.0


class TestHalfSpectrumSolver:
    @pytest.mark.parametrize(
        "grid",
        [
            GridSpec(n=1, shape=256, half_widths=20.0),
            GridSpec(n=2, shape=(64, 32), half_widths=(6.0, 3.0)),
            GridSpec(n=3, shape=(32, 32, 16), half_widths=(3.0, 3.0, 1.5)),
        ],
        ids=["1d", "2d", "3d"],
    )
    def test_grad_sq_matches_full_spectrum(self, grid):
        # the solver's grad_sq is a weighted half-spectrum sum; the full
        # complex-spectrum Parseval sum is the reference
        gs = petviashvili(grid)
        ref = grad_norm_sq(gs.profile)
        assert gs.grad_sq == pytest.approx(ref, rel=1e-12)

    def test_three_real_transforms_per_iteration(self, monkeypatch):
        real = ("rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")
        complex_ = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")
        calls = dict.fromkeys(real + complex_, 0)

        def counted(name):
            fn = getattr(np.fft, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(np.fft, name, counted(name))
        gs = petviashvili(GridSpec.create(2, 6.0, 64))
        monkeypatch.undo()
        assert sum(calls[k] for k in complex_) == 0
        assert 0 < sum(calls[k] for k in real) <= 3 * gs.iterations + 1

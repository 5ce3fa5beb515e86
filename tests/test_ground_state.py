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

import platform
import subprocess
import sys
import textwrap

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
from starknls.ground_state import (
    _octant_transform,
    _octant_weights,
    _unfold,
    radial_interpolant,
)

from conftest import COMPLEX_FFTS, REAL_FFTS, child_env

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
        assert np.array_equal(q, np.roll(q[::-1], 1))
        assert np.argmax(q) == q.size // 2

    @pytest.mark.parametrize("N, L", [(4096, 40.0), (8192, 13.0), (65536, 13.0)])
    def test_positive_on_benchmark_grids(self, N, L):
        # the tails reach eps * max Q on [-40, 40), where a less accurate
        # transform (the half-length DCT-I recurrence) leaves negative samples
        # and the positivity check raises. The periodic box adds the images'
        # tails, about Q(L) at x = -L
        grid = GridSpec.create(1, L, N)
        q = petviashvili(grid).profile.data.real
        assert q.min() > 0
        err = np.max(np.abs(q - ground_state_1d_exact(grid.axis_coordinates(0))))
        assert err < 1e-8 + 2.0 * ground_state_1d_exact(L)

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

    def test_64_cubed_solve_is_pinned(self):
        # the benchmark's solve: its iteration count and mass to round-off
        gs = petviashvili(GridSpec.create(3, 6.25, 64))
        assert gs.iterations == 48
        assert gs.mass_sq == pytest.approx(63.7905297906987, rel=1e-13)


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
        # inf would stop after one iteration, nan would spend the budget
        for tol in (0.0, -1e-8, np.inf, np.nan):
            with pytest.raises(ResolutionError, match=r"\btol\b"):
                petviashvili(grid_1d, tol=tol)

    def test_coarse_grid_rejected(self):
        with pytest.raises(ResolutionError):
            petviashvili(GridSpec.create(1, 20.0, 128))  # dx = 0.3125

    def test_iteration_budget(self, grid_1d):
        with pytest.raises(IterationError) as info:
            petviashvili(grid_1d, tol=1e-30, max_iter=10)
        assert info.value.last_residual is not None
        # the residual of the last iterate, though its change is above tol
        assert np.isfinite(info.value.last_residual)


class TestRadialInterpolant:
    def test_matches_closed_form(self, gs_1d):
        # cubic-spline error peaks near r=0 at |Q''''| dx^4 / 384 ~ 2e-7
        q_of_r = radial_interpolant(gs_1d)
        r = np.linspace(0.0, 8.0, 500)
        assert np.max(np.abs(q_of_r(r) - ground_state_1d_exact(r))) < 1e-6

    def test_zero_beyond_domain(self, gs_1d):
        q_of_r = radial_interpolant(gs_1d)
        assert q_of_r(np.array([1000.0]))[0] == 0.0


HALF_SPECTRUM_GRIDS = pytest.mark.parametrize(
    "grid",
    [
        GridSpec(n=1, shape=256, half_widths=20.0),
        GridSpec(n=2, shape=(64, 32), half_widths=(6.0, 3.0)),
        GridSpec(n=3, shape=(32, 32, 16), half_widths=(3.0, 3.0, 1.5)),
    ],
    ids=["1d", "2d", "3d"],
)


class TestHalfSpectrumSolver:
    @HALF_SPECTRUM_GRIDS
    def test_grad_sq_matches_full_spectrum(self, grid):
        # the solver's grad_sq is a weighted sum over the octant spectrum;
        # the full complex-spectrum Parseval sum is the reference
        gs = petviashvili(grid)
        ref = grad_norm_sq(gs.profile)
        assert gs.grad_sq == pytest.approx(ref, rel=1e-12)

    @HALF_SPECTRUM_GRIDS
    def test_residual_is_that_of_the_returned_profile(self, grid):
        # sup |lap Q - Q + Q^p| recomputed with the full complex spectrum.
        # The two Laplacians differ by round-off, eps (1 + k_max^2) max Q;
        # the residual of the previous iterate is off by tens of percent.
        gs = petviashvili(grid)
        q = gs.profile.data.real
        lap = np.fft.ifftn(-grid.k_sq * np.fft.fftn(q)).real
        ref = np.max(np.abs(lap - q + q ** (1.0 + 4.0 / grid.n)))
        floor = 4.0 * np.finfo(float).eps * (1.0 + grid.k_sq.max()) * q.max()
        assert abs(gs.residual - ref) <= floor
        assert floor < 1e-3 * ref

    @HALF_SPECTRUM_GRIDS
    def test_profile_is_mirror_symmetric_with_peak_at_center(self, grid):
        q = petviashvili(grid).profile.data.real
        for axis in range(grid.n):
            assert np.array_equal(q, np.roll(np.flip(q, axis), 1, axis=axis))
        assert np.unravel_index(np.argmax(q), q.shape) == tuple(N // 2 for N in grid.shape)

    def test_two_real_transforms_per_iteration(self, fft_calls):
        # the seed's transform, two per iteration, and the residual's only on
        # the last iterations, once the iterates have settled. One n-D octant
        # transform is one irfft per axis
        grid = GridSpec.create(2, 6.0, 64)
        gs = petviashvili(grid)
        assert sum(fft_calls[k] for k in COMPLEX_FFTS) == 0
        real = sum(fft_calls[k] for k in REAL_FFTS)
        assert real == fft_calls["irfft"] and real % grid.n == 0
        assert 0 < real // grid.n <= 2 * gs.iterations + 3

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc only")
    def test_iterations_take_no_page_faults(self):
        # at 64^3 every transform and temporary is a fresh 0.3-0.6 MB block;
        # under glibc's default policy a warm solve faults ~380 pages per
        # iteration.
        # A fresh interpreter, because large frees earlier in this process
        # move glibc's dynamic thresholds.
        script = textwrap.dedent(
            """
            import resource
            from starknls import GridSpec
            from starknls.errors import IterationError
            from starknls.ground_state import petviashvili

            grid = GridSpec.create(3, 6.25, 64)
            for budget in (5, 25):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                try:
                    petviashvili(grid, tol=1e-30, max_iter=budget)
                except IterationError:
                    pass
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            """
        )
        out = subprocess.run([sys.executable, "-c", script], env=child_env(),
                             check=True, capture_output=True, text=True, timeout=120)
        assert int(out.stdout) / 25 <= 10


OCTANT_SHAPES = pytest.mark.parametrize(
    "shape", [(2,), (16,), (64, 32), (8, 2), (2, 4, 8), (16, 8, 4)]
)


def random_octant(shape, seed=5):
    """Random samples on the octant of an even field on a grid of shape."""
    return np.random.default_rng(seed).normal(size=[N // 2 + 1 for N in shape])


class TestOctantTransform:
    @OCTANT_SHAPES
    def test_unfold_is_even_and_keeps_the_octant(self, shape):
        q = random_octant(shape)
        full = _unfold(q)
        assert full.shape == shape
        for axis in range(len(shape)):
            assert np.array_equal(full, np.roll(np.flip(full, axis), 1, axis=axis))
        octant = np.ix_(*(np.r_[N // 2 : N, 0] for N in shape))
        assert np.array_equal(full[octant], q)

    @OCTANT_SHAPES
    def test_matches_full_real_transform(self, shape):
        # with the box center moved to index 0 the full field's DFT is real;
        # its modes 0 to N/2 per axis are the octant transform
        q = random_octant(shape)
        spec = np.fft.rfftn(np.fft.ifftshift(_unfold(q)))
        modes = spec[tuple(slice(N // 2 + 1) for N in shape)]
        scale = np.max(np.abs(modes))
        assert np.max(np.abs(modes.imag)) <= 1e-13 * scale
        assert np.max(np.abs(_octant_transform(q) - modes.real)) <= 1e-13 * scale

    @OCTANT_SHAPES
    def test_is_its_own_inverse_up_to_the_point_count(self, shape):
        q = random_octant(shape)
        back = _octant_transform(_octant_transform(q)) / np.prod(shape)
        assert np.max(np.abs(back - q)) <= 1e-13 * np.max(np.abs(q))

    @OCTANT_SHAPES
    def test_backward_norm_divides_by_the_point_count(self, shape):
        q = random_octant(shape)
        plain = _octant_transform(q)
        scaled = _octant_transform(q, "backward") * np.prod(shape)
        assert np.max(np.abs(scaled - plain)) <= 1e-13 * np.max(np.abs(plain))

    @OCTANT_SHAPES
    def test_weights_turn_octant_sums_into_full_sums(self, shape):
        # random data fills every plane, m = 0 and m = N/2 included
        q = random_octant(shape)
        assert np.sum(_octant_weights(shape) * q) == pytest.approx(
            np.sum(_unfold(q)), rel=1e-13
        )
        spec = _octant_transform(q)
        full = np.abs(np.fft.fftn(_unfold(q))) ** 2
        assert np.sum(_octant_weights(shape) * spec**2) == pytest.approx(
            np.sum(full), rel=1e-13
        )

"""Grid, transform, norm, and snapshot-format tests.

Frozen reference values for the 1D ground state come from symbolic
integration of the closed form 3^(1/4) sech^(1/2)(2x):

    int Q^2 dx   = sqrt(3) pi / 2 = 2.7206990463513267
    int Q'^2 dx  = 1.3603495231756634   (= mass_sq / 2)
"""

import tracemalloc

import numpy as np
import pytest

from starknls import (
    Field,
    GridSpec,
    PhysParams,
    boundary_mass_fraction,
    grad_norm_sq,
    ground_state_1d_exact,
    inner,
    kinetic_substep,
    l2_norm,
    l2_norm_sq,
    mass_in_window,
    read_snapshot,
    sample,
    write_snapshot,
)
from starknls.errors import DivergedFieldError, GridMismatchError, StarkNLSError
from starknls.gauge import ah_forward_spectrum, ah_inverse
from starknls.spectral import power_fill_fraction, power_momentum

from conftest import random_band_limited_field

Q_MASS_SQ = 2.7206990463513267
Q_GRAD_SQ = 1.3603495231756634


def fft(f):
    """Unitary DFT of a field, the package's transform convention."""
    return np.fft.fftn(f.data, norm="ortho")


def laplacian(f):
    """Spectral Laplacian: multiplier -|k|^2 per mode of the grid."""
    return Field(f.grid, np.fft.ifftn(-f.grid.k_sq * fft(f), norm="ortho"))


def plane_wave(grid, mode=3):
    k1 = mode * np.pi / grid.half_widths[0]
    x = grid.axis_coordinates(0)
    return k1, Field(grid, np.exp(1j * k1 * x))


class TestGridSpec:
    def test_spacing_identity(self):
        grid = GridSpec.create(1, 17.5, 256)
        assert grid.dx[0] * grid.shape[0] == 2 * 17.5

    def test_wavenumber_layout(self, grid_1d):
        k = grid_1d.axis_wavenumbers(0)
        assert k[0] == 0.0
        assert k[1] == pytest.approx(np.pi / 20.0)
        assert k[grid_1d.shape[0] // 2] == pytest.approx(-np.pi / 20.0 * 512)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            GridSpec.create(1, 10.0, 384)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            GridSpec.create(4, 10.0, 64)

    def test_anisotropic_axes(self):
        grid = GridSpec(n=2, shape=(64, 128), half_widths=(5.0, 10.0))
        assert grid.dx == (10.0 / 64, 20.0 / 128)

    @pytest.mark.parametrize(
        "grid, x0",
        [
            (GridSpec.create(1, 20.0, 256), (0.7,)),
            (GridSpec.create(2, (5.0, 10.0), (64, 128)), (0.7, -1.3)),
            (GridSpec.create(3, 4.0, 16), (0.0, 0.5, -0.25)),
        ],
        ids=["1d", "2d", "3d"],
    )
    def test_distance_sq_bits(self, grid, x0):
        # the sum the initial-data recipes built before the helper existed
        ref = np.zeros(grid.shape)
        for xg, c in zip(grid.coordinate_grids, x0):
            ref = ref + (xg - c) ** 2
        assert np.array_equal(grid.distance_sq(x0), ref)
        assert np.array_equal(grid.radius_sq, grid.distance_sq(0.0))

    @pytest.mark.parametrize(
        "call",
        [
            lambda g, v: g.linear_phase(v),
            lambda g, v: g.distance_sq(v),
            lambda g, v: mass_in_window(Field(g, np.ones(g.shape)), v, 1.0),
            lambda g, v: ah_inverse(Field(g, np.ones(g.shape)), 0.5, v),
            lambda g, v: ah_forward_spectrum(np.ones(g.shape, complex), g, 0.5, v),
        ],
        ids=["linear_phase", "distance_sq", "mass_in_window", "ah_inverse",
             "ah_forward_spectrum"],
    )
    def test_per_axis_vectors_follow_one_rule(self, call):
        # one component serves every axis; any other length but n fails alike
        grid = GridSpec.create(2, 4.0, 16)
        call(grid, (0.5,))
        with pytest.raises(ValueError, match="expected 1 or 2 per-axis values, got 3"):
            call(grid, (0.1, 0.2, 0.3))

    def test_cached_wavenumbers_are_read_only(self, grid_1d):
        k = grid_1d.axis_wavenumbers(0)
        assert k is grid_1d.axis_wavenumbers(0)
        with pytest.raises(ValueError):
            k[0] = 1.0


class TestTransforms:
    def test_constant_field_is_dc_mode(self):
        grid = GridSpec.create(1, 5.0, 8)
        coeffs = fft(Field(grid, np.ones(8, dtype=complex)))
        assert abs(coeffs[0]) > 1.0
        assert np.max(np.abs(coeffs[1:])) < 1e-14

    def test_pure_mode(self, grid_1d):
        k1, f = plane_wave(grid_1d)
        coeffs = fft(f)
        hot = np.argmax(np.abs(coeffs))
        assert grid_1d.axis_wavenumbers(0)[hot] == pytest.approx(k1)
        coeffs_rest = coeffs.copy()
        coeffs_rest[hot] = 0.0
        assert np.max(np.abs(coeffs_rest)) < 1e-12

    def test_round_trip(self, grid_1d):
        f = random_band_limited_field(grid_1d, seed=11)
        g = Field(grid_1d, np.fft.ifftn(fft(f), norm="ortho"))
        assert l2_norm(Field(grid_1d, g.data - f.data)) <= 1e-13 * l2_norm(f)

    def test_non_finite_rejected(self, grid_1d):
        data = np.ones(grid_1d.shape, dtype=complex)
        data[5] = np.nan
        with pytest.raises(DivergedFieldError):
            kinetic_substep(Field(grid_1d, data), 1e-3)

    def test_parseval(self, grid_1d):
        f = random_band_limited_field(grid_1d, seed=3)
        spectral = np.sum(np.abs(fft(f)) ** 2) * grid_1d.cell_volume
        assert abs(l2_norm_sq(f) - spectral) <= 1e-12 * l2_norm_sq(f)


class TestLaplacian:
    def test_plane_wave_eigenfunction(self, grid_1d):
        k1, f = plane_wave(grid_1d)
        lap = laplacian(f)
        assert np.max(np.abs(lap.data + k1**2 * f.data)) < 1e-10

    def test_constant_maps_to_zero(self):
        grid = GridSpec.create(2, 5.0, 32)
        lap = laplacian(Field(grid, np.full(grid.shape, 2.0 + 0j)))
        assert np.max(np.abs(lap.data)) < 1e-13

    def test_sine_eigenfunction(self):
        # sin(pi x / L) is periodic on [-L, L) with eigenvalue -(pi/L)^2;
        # N chosen so high-mode round-off (eps * k_max^2) stays below 1e-12
        grid = GridSpec.create(1, 20.0, 256)
        x = grid.axis_coordinates(0)
        kl = np.pi / grid.half_widths[0]
        f = Field(grid, np.sin(kl * x).astype(complex))
        lap = laplacian(f)
        assert np.max(np.abs(lap.data + kl**2 * f.data)) < 1e-12

    def test_self_adjoint(self, grid_1d):
        f = random_band_limited_field(grid_1d, seed=5)
        g = random_band_limited_field(grid_1d, seed=6)
        lhs = inner(laplacian(f), g)
        rhs = inner(f, laplacian(g))
        assert abs(lhs - rhs) <= 1e-10 * l2_norm(f) * l2_norm(g)


class TestNorms:
    def test_zero_field(self, grid_1d):
        z = Field(grid_1d, np.zeros(grid_1d.shape, dtype=complex))
        assert l2_norm(z) == 0.0
        # lp_sum of the quintic (p = 5) equation is the integral of |u|^6
        assert sample(z, 0.0, PhysParams(n=1))["lp_sum"] == 0.0

    def test_constant_volume(self):
        grid = GridSpec.create(2, 3.0, 32)
        f = Field(grid, np.ones(grid.shape, dtype=complex))
        assert l2_norm_sq(f) == pytest.approx((2 * 3.0) ** 2, rel=1e-14)

    def test_ground_state_mass(self, grid_1d):
        x = grid_1d.axis_coordinates(0)
        q = Field(grid_1d, ground_state_1d_exact(x).astype(complex))
        assert l2_norm_sq(q) == pytest.approx(Q_MASS_SQ, rel=1e-10)

    def test_grid_mismatch(self, grid_1d):
        other = GridSpec.create(1, 20.0, 512)
        f = Field(grid_1d, np.ones(grid_1d.shape, dtype=complex))
        g = Field(other, np.ones(other.shape, dtype=complex))
        with pytest.raises(GridMismatchError):
            inner(f, g)


class TestGradNormSq:
    def test_constant_is_zero(self, grid_1d):
        f = Field(grid_1d, np.full(grid_1d.shape, 1.5 + 0j))
        assert grad_norm_sq(f) < 1e-20

    def test_plane_wave(self, grid_1d):
        k1, f = plane_wave(grid_1d)
        assert grad_norm_sq(f) == pytest.approx(k1**2 * l2_norm_sq(f), rel=1e-12)

    def test_ground_state_pohozaev(self, grid_1d):
        # int Q'^2 = (n/2) int Q^2 for the mass-critical profile
        x = grid_1d.axis_coordinates(0)
        q = Field(grid_1d, ground_state_1d_exact(x).astype(complex))
        assert grad_norm_sq(q) == pytest.approx(Q_GRAD_SQ, rel=1e-6)
        assert grad_norm_sq(q) == pytest.approx(0.5 * l2_norm_sq(q), rel=1e-6)

    def test_matches_laplacian_quadratic_form(self, grid_1d):
        f = random_band_limited_field(grid_1d, seed=9)
        quad = -inner(laplacian(f), f).real
        assert abs(grad_norm_sq(f) - quad) <= 1e-10 * max(1.0, grad_norm_sq(f))


class TestDiagnosticsMasks:
    def test_spectral_fill_of_smooth_field(self, grid_1d):
        f = random_band_limited_field(grid_1d, seed=2)
        power = np.abs(np.fft.fftn(f.data, norm="ortho")) ** 2
        assert power_fill_fraction(power, grid_1d) < 1e-8

    def test_spectral_fill_of_noise(self, grid_1d):
        rng = np.random.default_rng(0)
        f = Field(grid_1d, rng.normal(size=grid_1d.shape) + 0j)
        power = np.abs(np.fft.fftn(f.data, norm="ortho")) ** 2
        fill = power_fill_fraction(power, grid_1d)
        assert 0.05 < fill < 0.4  # white noise spreads mass over all modes

    def test_boundary_mass(self, grid_1d):
        x = grid_1d.axis_coordinates(0)
        centered = Field(grid_1d, np.exp(-(x**2)).astype(complex))
        assert boundary_mass_fraction(centered) < 1e-10
        shifted = Field(grid_1d, np.exp(-((x - 19.5) ** 2)).astype(complex))
        assert boundary_mass_fraction(shifted) > 0.1


def noise_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return Field(grid, rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape))


def allocated_bytes(fn):
    """Peak bytes fn allocates above what is live when it starts (numpy
    reports its array buffers to tracemalloc)."""
    fn()  # fills the grid's caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


OBSERVER_GRIDS = [
    GridSpec.create(1, 13.0, 4096),
    GridSpec.create(2, (6.0, 4.0), (64, 32)),
    GridSpec.create(3, 4.0, 16),
]


def sample_with_temporaries(u, t, params):
    """Every observable of diagnostics.sample, each by the expression with a
    fresh product array that the scratch-array sums replace."""
    grid = u.grid
    vol = grid.cell_volume
    density = np.abs(u.data) ** 2
    power = np.abs(np.fft.fftn(u.data, norm="ortho")) ** 2
    grad_sq = float(np.sum(grid.k_sq * power) * vol)
    p = params.p
    lp_density = density * density * density if p == 5.0 else density ** ((p + 1.0) / 2.0)
    lp_sum = float(np.sum(lp_density) * vol)
    e0 = grad_sq - 2.0 / (p + 1.0) * lp_sum
    stark_moment = 0.0
    for xg, e in zip(grid.coordinate_grids, params.E):
        if e != 0.0:
            stark_moment += e * float(np.sum(xg * density) * vol)
    radius_sq = np.zeros(grid.shape)
    for xg in grid.coordinate_grids:
        radius_sq = radius_sq + xg**2
    return {
        "t": t,
        "mass_sq": float(np.sum(density) * vol),
        "grad_norm_sq": grad_sq,
        "E0": e0,
        "EV": e0 + stark_moment,
        **{name: float(np.sum(kg * power) * vol)
           for name, kg in zip(("Px", "Py", "Pz"), grid.wavenumber_grids)},
        "variance": float(np.sum(radius_sq * density) * vol),
        "lp_sum": lp_sum,
        "stark_moment": stark_moment,
    }


class TestObserverSums:
    """The observers' weighted sums write into a scratch array: the same
    bits as the expression with temporaries, and no array allocated per
    call."""

    @pytest.fixture(params=OBSERVER_GRIDS, ids=["1d", "2d", "3d"])
    def case(self, request):
        grid = request.param
        u = noise_field(grid)
        power = np.abs(np.fft.fftn(u.data, norm="ortho")) ** 2
        density = np.abs(u.data) ** 2
        return grid, u, power, density, np.empty(grid.shape)

    @pytest.mark.parametrize("p", [None, 3.0, 5.0, 2.5], ids=["critical", "3", "5", "2.5"])
    def test_same_bits_as_temporaries(self, case, p):
        grid, u, power, density, scratch = case
        assert power_momentum(power, grid, scratch) == tuple(
            float(np.sum(kg * power) * grid.cell_volume) for kg in grid.wavenumber_grids
        )
        params = PhysParams(n=grid.n, a=0.1, E=(0.3,) * grid.n, p=p)
        expected = sample_with_temporaries(u, 0.5, params)
        for got in (
            sample(u, 0.5, params, power=power, density=density, scratch=scratch),
            sample(u, 0.5, params),
        ):
            assert got == expected

    def test_no_array_allocated(self, case):
        grid, u, power, density, scratch = case
        params = PhysParams(n=grid.n, a=0.1, E=(0.3,) * grid.n)
        array_bytes = 8 * grid.num_points
        for fn in (
            lambda: power_momentum(power, grid, scratch),
            lambda: sample(u, 0.5, params, power=power, density=density,
                           scratch=scratch),
        ):
            assert allocated_bytes(fn) < array_bytes / 4


class TestFieldInvariants:
    def test_immutable(self, grid_1d):
        f = Field(grid_1d, np.ones(grid_1d.shape, dtype=complex))
        with pytest.raises(ValueError):
            f.data[0] = 2.0
        with pytest.raises(AttributeError):
            f.data = np.zeros(grid_1d.shape)

    def test_shape_checked(self, grid_1d):
        with pytest.raises(GridMismatchError):
            Field(grid_1d, np.ones(17, dtype=complex))


class TestSnapshotFormat:
    def test_bit_exact_round_trip(self, tmp_path, grid_1d):
        f = random_band_limited_field(grid_1d, seed=21)
        path = tmp_path / "field.dnls"
        write_snapshot(path, f)
        g = read_snapshot(path)
        assert g.grid == grid_1d
        assert np.array_equal(
            g.data.view(np.uint64), f.data.view(np.uint64)
        ), "round trip must be bit-exact"

    def test_round_trip_2d(self, tmp_path):
        grid = GridSpec(n=2, shape=(32, 64), half_widths=(4.0, 8.0))
        rng = np.random.default_rng(1)
        f = Field(grid, rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape))
        path = tmp_path / "field2d.dnls"
        write_snapshot(path, f)
        g = read_snapshot(path)
        assert g.grid.shape == (32, 64)
        assert g.grid.half_widths == (4.0, 8.0)
        assert np.array_equal(g.data, f.data)

    def test_truncated_at_every_byte(self, tmp_path):
        grid = GridSpec(n=2, shape=(2, 4), half_widths=(1.0, 2.0))
        path = tmp_path / "field.dnls"
        write_snapshot(path, Field(grid, np.arange(8.0).reshape(2, 4) + 1j))
        raw = path.read_bytes()
        cut = tmp_path / "cut.dnls"
        for size in range(len(raw)):
            cut.write_bytes(raw[:size])
            with pytest.raises(StarkNLSError, match="cut.dnls"):
                read_snapshot(cut)
        cut.write_bytes(raw + b"\x00")
        with pytest.raises(StarkNLSError, match="payload"):
            read_snapshot(cut)

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bogus.dnls"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(Exception, match="magic"):
            read_snapshot(path)

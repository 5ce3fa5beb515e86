"""Grid, transform, norm, and snapshot-format tests.

Frozen reference values for the 1D ground state come from symbolic
integration of the closed form 3^(1/4) sech^(1/2)(2x):

    int Q^2 dx   = sqrt(3) pi / 2 = 2.7206990463513267
    int Q'^2 dx  = 1.3603495231756634   (= mass_sq / 2)
"""

import numpy as np
import pytest

from starknls import (
    Field,
    GridSpec,
    boundary_mass_fraction,
    forward_transform,
    grad_norm_sq,
    ground_state_1d_exact,
    inner,
    inverse_transform,
    l2_norm,
    l2_norm_sq,
    laplacian,
    lp_norm,
    read_snapshot,
    spectral_fill_fraction,
    write_snapshot,
)
from starknls.errors import DivergedFieldError, GridMismatchError, StarkNLSError

from conftest import random_band_limited_field

Q_MASS_SQ = 2.7206990463513267
Q_GRAD_SQ = 1.3603495231756634


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


class TestTransforms:
    def test_constant_field_is_dc_mode(self):
        grid = GridSpec.create(1, 5.0, 8)
        spec = forward_transform(Field(grid, np.ones(8, dtype=complex)))
        coeffs = spec.coefficients
        assert abs(coeffs[0]) > 1.0
        assert np.max(np.abs(coeffs[1:])) < 1e-14

    def test_pure_mode(self, grid_1d):
        k1, f = plane_wave(grid_1d)
        coeffs = forward_transform(f).coefficients
        hot = np.argmax(np.abs(coeffs))
        assert grid_1d.axis_wavenumbers(0)[hot] == pytest.approx(k1)
        coeffs_rest = coeffs.copy()
        coeffs_rest[hot] = 0.0
        assert np.max(np.abs(coeffs_rest)) < 1e-12

    def test_round_trip(self, grid_1d):
        f = random_band_limited_field(grid_1d, seed=11)
        g = inverse_transform(forward_transform(f))
        assert l2_norm(Field(grid_1d, g.data - f.data)) <= 1e-13 * l2_norm(f)

    def test_non_finite_rejected(self, grid_1d):
        data = np.ones(grid_1d.shape, dtype=complex)
        data[5] = np.nan
        with pytest.raises(DivergedFieldError):
            forward_transform(Field(grid_1d, data))

    def test_parseval(self, grid_1d):
        f = random_band_limited_field(grid_1d, seed=3)
        spec = forward_transform(f)
        spectral = np.sum(np.abs(spec.coefficients) ** 2) * grid_1d.cell_volume
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
        assert lp_norm(z, 6.0) == 0.0

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

    @pytest.mark.parametrize("shape", [(16,), (8, 4), (4, 8, 2)])
    def test_half_spectrum_weights(self, shape):
        # white noise fills every mode, the Nyquist planes included
        grid = GridSpec(n=len(shape), shape=shape, half_widths=(1.0,) * len(shape))
        q = np.random.default_rng(3).normal(size=shape)
        full = np.abs(np.fft.fftn(q, norm="ortho")) ** 2
        half = np.abs(np.fft.rfftn(q, norm="ortho")) ** 2
        ksq_half = grid.k_sq[..., : shape[-1] // 2 + 1]
        for weight, full_weight in ((1.0, 1.0), (ksq_half, grid.k_sq)):
            assert np.sum(grid.rfft_weights * weight * half) == pytest.approx(
                np.sum(full_weight * full), rel=1e-13
            )


class TestDiagnosticsMasks:
    def test_spectral_fill_of_smooth_field(self, grid_1d):
        f = random_band_limited_field(grid_1d, seed=2)
        assert spectral_fill_fraction(forward_transform(f)) < 1e-8

    def test_spectral_fill_of_noise(self, grid_1d):
        rng = np.random.default_rng(0)
        f = Field(grid_1d, rng.normal(size=grid_1d.shape) + 0j)
        fill = spectral_fill_fraction(forward_transform(f))
        assert 0.05 < fill < 0.4  # white noise spreads mass over all modes

    def test_boundary_mass(self, grid_1d):
        x = grid_1d.axis_coordinates(0)
        centered = Field(grid_1d, np.exp(-(x**2)).astype(complex))
        assert boundary_mass_fraction(centered) < 1e-10
        shifted = Field(grid_1d, np.exp(-((x - 19.5) ** 2)).astype(complex))
        assert boundary_mass_fraction(shifted) > 0.1


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

"""Periodic grids, complex fields, and FFT-based spectral operations.

Conventions used throughout the package:

* The domain is the periodic box [-L, L) per axis, sampled at N points per
  axis (N a power of two), row-major (C order) layout.
* Discrete wavenumbers per axis are (pi/L) * {0, 1, ..., N/2-1, -N/2, ..., -1}
  in standard FFT ordering (index 0 is k = 0).
* Transforms are unitary ("ortho" normalization), so Parseval holds with the
  same quadrature weight dx^n on both sides.
* Integrals are uniform Riemann sums with weight dx^n, which are exact for
  band-limited periodic data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DivergedFieldError, GridMismatchError


def _as_tuple(value, n, cast):
    if np.isscalar(value):
        return tuple(cast(value) for _ in range(n))
    out = tuple(cast(v) for v in value)
    if len(out) != n:
        raise ValueError(f"expected {n} per-axis values, got {len(out)}")
    return out


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-L, L)^n.

    Attributes:
        n: spatial dimension, 1 to 3.
        shape: points per axis (each a power of two).
        half_widths: box half-width L per axis.
    """

    n: int
    shape: tuple[int, ...]
    half_widths: tuple[float, ...]

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.n}")
        object.__setattr__(self, "shape", _as_tuple(self.shape, self.n, int))
        object.__setattr__(
            self, "half_widths", _as_tuple(self.half_widths, self.n, float)
        )
        for N in self.shape:
            if N < 2 or (N & (N - 1)) != 0:
                raise ValueError(f"points per axis must be a power of two, got {N}")
        for L in self.half_widths:
            if not (L > 0 and np.isfinite(L)):
                raise ValueError(f"half-width must be positive and finite, got {L}")

    @classmethod
    def create(cls, n: int, L, N) -> "GridSpec":
        return cls(n=n, shape=_as_tuple(N, n, int), half_widths=_as_tuple(L, n, float))

    @property
    def dx(self) -> tuple[float, ...]:
        """Grid spacing per axis; dx * N == 2 L exactly."""
        return tuple(2.0 * L / N for L, N in zip(self.half_widths, self.shape))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.dx))

    @property
    def num_points(self) -> int:
        return int(np.prod(self.shape))

    @property
    def nyquist(self) -> tuple[float, ...]:
        """Largest resolvable wavenumber magnitude per axis, pi/dx."""
        return tuple(np.pi / d for d in self.dx)

    def axis_coordinates(self, axis: int) -> np.ndarray:
        N = self.shape[axis]
        L = self.half_widths[axis]
        return -L + (2.0 * L / N) * np.arange(N)

    def axis_wavenumbers(self, axis: int) -> np.ndarray:
        N = self.shape[axis]
        L = self.half_widths[axis]
        return (np.pi / L) * np.fft.fftfreq(N, d=1.0 / N)

    @cached_property
    def coordinate_grids(self) -> tuple[np.ndarray, ...]:
        """Meshgrid ('ij' indexing) of coordinates, one array per axis."""
        axes = [self.axis_coordinates(a) for a in range(self.n)]
        return tuple(np.meshgrid(*axes, indexing="ij")) if self.n > 1 else (axes[0],)

    @cached_property
    def wavenumber_grids(self) -> tuple[np.ndarray, ...]:
        axes = [self.axis_wavenumbers(a) for a in range(self.n)]
        return tuple(np.meshgrid(*axes, indexing="ij")) if self.n > 1 else (axes[0],)

    @cached_property
    def k_sq(self) -> np.ndarray:
        """|k|^2 on the full wavenumber grid."""
        ksq = np.zeros(self.shape)
        for kg in self.wavenumber_grids:
            ksq = ksq + kg**2
        return ksq

    @cached_property
    def rfft_weights(self) -> np.ndarray:
        """Weights along the last axis of the rfftn half spectrum (N//2 + 1
        modes) that turn a sum over it into the full-spectrum sum for a real
        field: 2 where a mode stands for itself and its conjugate partner,
        1 on the k = 0 and Nyquist planes, which have no partner."""
        weights = np.full(self.shape[-1] // 2 + 1, 2.0)
        weights[0] = weights[-1] = 1.0
        return weights

    @cached_property
    def radius_sq(self) -> np.ndarray:
        """|x|^2 on the full coordinate grid."""
        rsq = np.zeros(self.shape)
        for xg in self.coordinate_grids:
            rsq = rsq + xg**2
        return rsq

    @cached_property
    def _high_band_mask(self) -> np.ndarray:
        # Top 1/8 of the resolvable spectrum: |k| >= (7/8) * min-axis Nyquist.
        kcut = 0.875 * min(self.nyquist)
        return np.sqrt(self.k_sq) >= kcut

    @cached_property
    def _boundary_mask(self) -> np.ndarray:
        # Outer 1/16 shell of the box on any axis.
        mask = np.zeros(self.shape, dtype=bool)
        for xg, L in zip(self.coordinate_grids, self.half_widths):
            mask |= np.abs(xg) >= (15.0 / 16.0) * L
        return mask

    def __repr__(self):
        return f"GridSpec(n={self.n}, shape={self.shape}, half_widths={self.half_widths})"


class Field:
    """Complex wave-function samples attached to a grid.

    Instances are immutable values: the sample array is made read-only at
    construction and the grid reference never changes, so fields are safe to
    share across threads.
    """

    __slots__ = ("grid", "data")

    def __init__(self, grid: GridSpec, data: np.ndarray):
        data = np.ascontiguousarray(data, dtype=np.complex128)
        if data.shape != grid.shape:
            raise GridMismatchError(
                f"data shape {data.shape} does not match grid shape {grid.shape}"
            )
        data.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.data.view(np.float64))))

    def __repr__(self):
        return f"Field(grid={self.grid!r})"


class SpectralField:
    """Unitary-normalized Fourier coefficients of a Field, FFT layout."""

    __slots__ = ("grid", "coefficients")

    def __init__(self, grid: GridSpec, coefficients: np.ndarray):
        coefficients = np.ascontiguousarray(coefficients, dtype=np.complex128)
        if coefficients.shape != grid.shape:
            raise GridMismatchError(
                f"coefficient shape {coefficients.shape} != grid shape {grid.shape}"
            )
        coefficients.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "coefficients", coefficients)

    def __setattr__(self, name, value):
        raise AttributeError("SpectralField is immutable")


@dataclass(frozen=True)
class PhysParams:
    """Physical parameters of the damped focusing equation with uniform field.

    Attributes:
        n: spatial dimension.
        a: damping coefficient, >= 0.
        E: uniform-field vector in R^n (may be zero).
        p: nonlinearity exponent; defaults to the mass-critical 1 + 4/n.
        nl_strength: multiplier on the focusing term (0 disables it, used by
            linear-flow diagnostics; 1 is the physical equation).
    """

    n: int
    a: float = 0.0
    E: tuple[float, ...] = ()
    p: float | None = None
    nl_strength: float = 1.0

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.n}")
        if not (self.a >= 0.0 and np.isfinite(self.a)):
            raise ValueError(f"damping coefficient must be >= 0, got {self.a}")
        E = self.E if len(self.E) else (0.0,) * self.n
        object.__setattr__(self, "E", _as_tuple(E, self.n, float))
        if not all(np.isfinite(e) for e in self.E):
            raise ValueError(f"field vector E must be finite, got {self.E}")
        p = self.p if self.p is not None else 1.0 + 4.0 / self.n
        if not p > 1.0:
            raise ValueError(f"nonlinearity exponent must exceed 1, got {p}")
        object.__setattr__(self, "p", float(p))
        if not np.isfinite(self.nl_strength):
            raise ValueError("nl_strength must be finite")

    @property
    def E_norm(self) -> float:
        return float(np.sqrt(sum(e * e for e in self.E)))

    @property
    def is_critical(self) -> bool:
        return abs(self.p - (1.0 + 4.0 / self.n)) < 1e-12


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------


def forward_transform(field: Field) -> SpectralField:
    """Unitary DFT of a field. Raises DivergedFieldError on non-finite input."""
    if not field.is_finite():
        raise DivergedFieldError("field contains non-finite samples")
    return SpectralField(field.grid, np.fft.fftn(field.data, norm="ortho"))


def inverse_transform(spec: SpectralField) -> Field:
    return Field(spec.grid, np.fft.ifftn(spec.coefficients, norm="ortho"))


def laplacian(field: Field) -> Field:
    """Spectral Laplacian: multiplier -|k|^2 per mode."""
    spec = forward_transform(field)
    out = np.fft.ifftn(-spec.grid.k_sq * spec.coefficients, norm="ortho")
    return Field(field.grid, out)


# ---------------------------------------------------------------------------
# Norms, inner products, quadrature
# ---------------------------------------------------------------------------


def l2_norm_sq(field: Field) -> float:
    """Squared L2 norm by Riemann quadrature (equals the spectral sum)."""
    return float(np.sum(np.abs(field.data) ** 2) * field.grid.cell_volume)


def l2_norm(field: Field) -> float:
    return float(np.sqrt(l2_norm_sq(field)))


def lp_norm(field: Field, q: float) -> float:
    """L^q norm, (integral |f|^q dx)^(1/q)."""
    s = np.sum(np.abs(field.data) ** q) * field.grid.cell_volume
    return float(s ** (1.0 / q))


def inner(f: Field, g: Field) -> complex:
    """L2 inner product, conjugate-linear in the first argument."""
    if f.grid is not g.grid and f.grid != g.grid:
        raise GridMismatchError("inner product requires identical grids")
    return complex(np.sum(np.conj(f.data) * g.data) * f.grid.cell_volume)


def grad_norm_sq(field: Field) -> float:
    """Sum over axes of the squared L2 norm of each partial derivative.

    Computed spectrally via Parseval as sum_k |k|^2 |f_hat(k)|^2 dx^n.
    """
    spec = forward_transform(field)
    return float(
        np.sum(spec.grid.k_sq * np.abs(spec.coefficients) ** 2)
        * field.grid.cell_volume
    )


def momentum(field: Field) -> tuple[float, ...]:
    """Im integral(conj(u) grad u) per axis, computed as sum k |u_hat|^2."""
    spec = forward_transform(field)
    w = np.abs(spec.coefficients) ** 2 * field.grid.cell_volume
    return tuple(float(np.sum(kg * w)) for kg in field.grid.wavenumber_grids)


def spectral_fill_fraction(spec: SpectralField) -> float:
    """Fraction of total mass carried by the top 1/8 of the spectrum.

    The high band is |k| >= (7/8) of the smallest per-axis Nyquist wavenumber.
    Values near 1 mean the grid resolution is exhausted.
    """
    power = np.abs(spec.coefficients) ** 2
    total = float(np.sum(power))
    if total == 0.0:
        return 0.0
    return float(np.sum(power[spec.grid._high_band_mask]) / total)


def boundary_mass_fraction(field: Field) -> float:
    """Fraction of the L2 mass inside the outer 1/16 shell of the box."""
    power = np.abs(field.data) ** 2
    total = float(np.sum(power))
    if total == 0.0:
        return 0.0
    return float(np.sum(power[field.grid._boundary_mask]) / total)

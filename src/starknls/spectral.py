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

import ctypes
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import GridMismatchError


def _as_tuple(value, n, cast):
    """n per-axis values from a scalar, one value (used on every axis) or n."""
    out = tuple(cast(v) for v in ((value,) if np.ndim(value) == 0 else value))
    if len(out) == 1:
        return out * n
    if len(out) != n:
        raise ValueError(f"expected 1 or {n} per-axis values, got {len(out)}")
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
        for N, L in zip(self.shape, self.half_widths):
            if N < 2 or (N & (N - 1)) != 0:
                raise ValueError(f"points per axis must be a power of two, got {N}")
            if not 0 < 2.0 * L / N < np.inf:  # 2L/N can underflow or overflow
                raise ValueError(f"half-width {L} at N={N}: spacing 2L/N "
                                 "must be positive and finite")

    @classmethod
    def create(cls, n: int, L, N) -> "GridSpec":
        return cls(n=n, shape=N, half_widths=L)

    @property
    def dx(self) -> tuple[float, ...]:
        """Grid spacing per axis; dx * N == 2 L exactly."""
        return tuple(2.0 * L / N for L, N in zip(self.half_widths, self.shape))

    @cached_property
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
        """Wavenumbers of one axis in FFT order (cached, read-only)."""
        return self._axis_wavenumbers[axis]

    @cached_property
    def _axis_wavenumbers(self) -> tuple[np.ndarray, ...]:
        axes = tuple(
            (np.pi / L) * np.fft.fftfreq(N, d=1.0 / N)
            for L, N in zip(self.half_widths, self.shape)
        )
        for k in axes:
            k.setflags(write=False)
        return axes

    @cached_property
    def coordinate_grids(self) -> tuple[np.ndarray, ...]:
        """Meshgrid ('ij' indexing) of coordinates, one array per axis."""
        axes = [self.axis_coordinates(a) for a in range(self.n)]
        return tuple(np.meshgrid(*axes, indexing="ij")) if self.n > 1 else (axes[0],)

    @cached_property
    def wavenumber_grids(self) -> tuple[np.ndarray, ...]:
        axes = self._axis_wavenumbers
        return tuple(np.meshgrid(*axes, indexing="ij")) if self.n > 1 else axes

    @cached_property
    def k_sq(self) -> np.ndarray:
        """|k|^2 on the full wavenumber grid."""
        ksq = np.zeros(self.shape)
        for kg in self.wavenumber_grids:
            ksq = ksq + kg**2
        return ksq

    def linear_phase(self, coeffs) -> np.ndarray:
        """The pointwise field  sum_axis coeffs[axis] * x_axis  on the grid:
        the Stark potential E.x, or the phase k0.x of a plane wave."""
        coeffs = _as_tuple(coeffs, self.n, float)
        out = np.zeros(self.shape)
        for xg, c in zip(self.coordinate_grids, coeffs):
            if c != 0.0:
                out += c * xg
        return out

    def distance_sq(self, x0) -> np.ndarray:
        """|x - x0|^2 on the full coordinate grid (a new array)."""
        x0 = _as_tuple(x0, self.n, float)
        out = np.zeros(self.shape)
        for xg, c in zip(self.coordinate_grids, x0):
            out += (xg - c) ** 2
        return out

    @cached_property
    def radius_sq(self) -> np.ndarray:
        """|x|^2 on the full coordinate grid."""
        return self.distance_sq(0.0)

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
    construction and the grid reference never changes, so a field can be
    shared without a copy.
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


@dataclass(frozen=True)
class PhysParams:
    """Physical parameters of the damped focusing equation with uniform field.

    Attributes:
        n: spatial dimension.
        a: damping coefficient, >= 0.
        E: uniform-field vector in R^n (may be zero); one component is used
            on every axis.
        p: nonlinearity exponent; defaults to the mass-critical 1 + 4/n.
        nl_strength: multiplier on the focusing term (0 disables it, used by
            linear-flow diagnostics; 1 is the physical equation).
    """

    n: int
    a: float = 0.0
    E: tuple[float, ...] = (0.0,)
    p: float | None = None
    nl_strength: float = 1.0

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.n}")
        if not (self.a >= 0.0 and np.isfinite(self.a)):
            raise ValueError(f"damping coefficient must be >= 0, got {self.a}")
        object.__setattr__(self, "E", _as_tuple(self.E, self.n, float))
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


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------


def _cis(phase: np.ndarray, scale: float = 1.0, out: np.ndarray | None = None):
    """scale * exp(i phase), written into the real and imaginary views of one
    complex array (out, if given), by the half-angle tangent t = tan(phase/2):

        scale * cos(phase) = d - scale,   scale * sin(phase) = t d,
        with d = 2 scale / (1 + t^2).

    Where numpy dispatches tan to SIMD code and runs cos and sin as scalar
    code (measured on an AVX-512 host; unmeasured elsewhere), this costs a
    quarter to a third of the cos/sin pair. It is not bit-identical to
    np.exp: each part lies within 4 eps * scale of scale * cos(phase) and
    scale * sin(phase) as numpy evaluates them, for |phase| up to 1e9 and
    next to odd multiples of pi (measured at most 2.3 eps * scale from
    those, 1.9 eps * scale from the exact values; docs/DECISIONS.md). A
    non-finite phase gives a non-finite result.
    """
    if out is None:
        out = np.empty(np.shape(phase), dtype=np.complex128)
    t = np.multiply(phase, 0.5)
    np.tan(t, out=t)
    d = np.square(t)
    d += 1.0
    np.divide(2.0 * scale, d, out=d)
    np.multiply(t, d, out=out.imag)
    np.subtract(d, scale, out=out.real)
    return out


def _weighted_sum(weight: np.ndarray, values: np.ndarray, scratch=None) -> float:
    """sum(weight * values) with the product written into scratch (a new
    array if None), so it has the bits of np.sum(weight * values). Not
    np.dot: BLAS sums an N-point dot product in an order that depends on its
    thread count."""
    return float(np.multiply(weight, values, out=scratch).sum())


_M_TRIM_THRESHOLD = -1  # mallopt parameter numbers (glibc malloc.h)
_M_MMAP_THRESHOLD = -3
_SCRATCH_MMAP_THRESHOLD = 32 << 20  # glibc's ceiling for its dynamic threshold
_SCRATCH_TRIM_THRESHOLD = 64 << 20  # 2x, the ratio of glibc's dynamic rule


@cache
def _keep_transform_scratch() -> bool:
    """Keep numpy.fft's per-call work buffer mapped between transforms.

    numpy.fft allocates and frees about 2 MB of scratch per call at
    N = 65536 (also with out=); under glibc's default policy it is faulted
    back in on every call, 480 minor faults. Pinning the mmap and trim
    thresholds, at values glibc's dynamic policy can itself reach, keeps it
    mapped (docs/DECISIONS.md).

    A process-wide side effect on the C allocator, applied once per process.
    Returns whether it was applied: without mallopt (not glibc), or when
    glibc rejects the value, nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # mallopt returns 0 when it rejects a value; the trim threshold is only
    # raised together with the mmap threshold
    return bool(
        mallopt(_M_MMAP_THRESHOLD, _SCRATCH_MMAP_THRESHOLD)
        and mallopt(_M_TRIM_THRESHOLD, _SCRATCH_TRIM_THRESHOLD)
    )


# ---------------------------------------------------------------------------
# Norms, inner products, quadrature
# ---------------------------------------------------------------------------


def l2_norm_sq(field: Field) -> float:
    """Squared L2 norm by Riemann quadrature (equals the spectral sum)."""
    return float(np.sum(np.abs(field.data) ** 2) * field.grid.cell_volume)


def l2_norm(field: Field) -> float:
    return float(np.sqrt(l2_norm_sq(field)))


def inner(f: Field, g: Field) -> complex:
    """L2 inner product, conjugate-linear in the first argument."""
    if f.grid is not g.grid and f.grid != g.grid:
        raise GridMismatchError("inner product requires identical grids")
    return complex(np.sum(np.conj(f.data) * g.data) * f.grid.cell_volume)


def grad_norm_sq(field: Field) -> float:
    """Sum over axes of the squared L2 norm of each partial derivative.

    Computed spectrally via Parseval as sum_k |k|^2 |f_hat(k)|^2 dx^n.
    """
    power = np.abs(np.fft.fftn(field.data, norm="ortho")) ** 2
    return float(np.sum(field.grid.k_sq * power) * field.grid.cell_volume)


def momentum(field: Field) -> tuple[float, ...]:
    """Im integral(conj(u) grad u) per axis, computed as sum k |u_hat|^2."""
    power = np.abs(np.fft.fftn(field.data, norm="ortho")) ** 2
    return power_momentum(power, field.grid)


def power_momentum(power: np.ndarray, grid: GridSpec, scratch=None) -> tuple[float, ...]:
    """Momentum per axis from the power spectrum |u_hat|^2 of a field.
    scratch is a float array of the grid's shape the sums may overwrite."""
    vol = grid.cell_volume
    return tuple(
        _weighted_sum(kg, power, scratch) * vol for kg in grid.wavenumber_grids
    )


def power_fill_fraction(power: np.ndarray, grid: GridSpec) -> float:
    """Fraction of total mass carried by the top 1/8 of the spectrum, from
    the power spectrum |u_hat|^2 of a field.

    The high band is |k| >= (7/8) of the smallest per-axis Nyquist wavenumber.
    Values near 1 mean the grid resolution is exhausted.
    """
    total = float(np.sum(power))
    return float(np.sum(power[grid._high_band_mask]) / total) if total else 0.0


def boundary_mass_fraction(field: Field, density: np.ndarray | None = None) -> float:
    """Fraction of the L2 mass inside the outer 1/16 shell of the box.

    density is |u|^2 of the field, if the caller already has it.
    """
    if density is None:
        density = np.abs(field.data) ** 2
    total = float(np.sum(density))
    if total == 0.0:
        return 0.0
    return float(np.sum(density[field.grid._boundary_mask]) / total)

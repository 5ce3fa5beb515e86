"""Exact field transforms: accelerated-frame (Avron-Herbst) maps and the
pseudo-conformal minimal-mass profile.

The Avron-Herbst transform converts solutions phi of the damped free equation
(E = 0) into solutions u of the equation with uniform-field potential E . x:

    u(t, x)   = phi(t, x + t^2 E) * exp(-i (t E.x + |E|^2 t^3 / 3))
    phi(t, x) = u(t, x - t^2 E)   * exp(+i (t E.x - 2 |E|^2 t^3 / 3))

Both maps are L2 isometries and exact mutual inverses at the same (t, E).
Spatial shifts by t^2 E are applied as Fourier phase ramps, which is exact
for band-limited fields and keeps the round trip tight to round-off. The
constant |E|^2 t^3 phases are physically unobservable but are retained so the
round-trip identities hold exactly as written.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError
from .ground_state import GroundState, radial_interpolant
from .spectral import Field, GridSpec, _as_tuple, _cis


def _shift_spectrum(spec: np.ndarray, grid: GridSpec, offsets) -> np.ndarray:
    """Spectrum of the field sampled at x + offset per axis: each axis gets
    the phase ramp exp(i k s). spec itself is not modified."""
    for axis, s in enumerate(offsets):
        if s == 0.0:
            continue
        shape = [1] * grid.n
        shape[axis] = grid.shape[axis]
        spec = spec * _cis(grid.axis_wavenumbers(axis) * s).reshape(shape)
    return spec


def ah_forward_spectrum(
    spec: np.ndarray, grid: GridSpec, t: float, E, e_dot_x: np.ndarray | None = None
) -> np.ndarray:
    """Samples of the uniform-field solution u at time t, given the unitary
    spectrum of the E = 0 frame field (left unmodified).

    The t^2 E shift is folded into the spectrum before the one inverse
    transform. e_dot_x is E.x on the grid, for callers that map many times.
    """
    E = _as_tuple(E, grid.n, float)
    u = np.fft.ifftn(_shift_spectrum(spec, grid, [t * t * e for e in E]),
                     norm="ortho")
    if e_dot_x is None:
        e_dot_x = grid.linear_phase(E)
    # -(t E.x + |E|^2 t^3 / 3), bit for bit, in one array
    phase = np.multiply(e_dot_x, -t)
    phase -= sum(e * e for e in E) * t**3 / 3.0
    u *= _cis(phase)
    return u


def ah_forward(phi: Field, t: float, E) -> Field:
    """Map an E = 0 frame field to the uniform-field solution at time t."""
    if t == 0.0 or not np.any(E):
        return phi
    spec = np.fft.fftn(phi.data, norm="ortho")
    return Field(phi.grid, ah_forward_spectrum(spec, phi.grid, t, E))


def ah_inverse(u: Field, t: float, E) -> Field:
    """Inverse map; exact inverse of ah_forward at the same (t, E)."""
    if t == 0.0 or not np.any(E):
        return u
    grid = u.grid
    E = _as_tuple(E, grid.n, float)
    spec = _shift_spectrum(np.fft.fftn(u.data, norm="ortho"), grid,
                           [-t * t * e for e in E])
    phase = t * grid.linear_phase(E) - 2.0 * sum(e * e for e in E) * t**3 / 3.0
    return Field(grid, np.fft.ifftn(spec, norm="ortho") * _cis(phase))


@dataclass(frozen=True)
class PseudoConformalParams:
    """Parameters of the explicit minimal-mass collapsing profile.

    theta: global phase; T: collapse time; x0: collapse point; t: evaluation
    time, strictly less than T.
    """

    theta: float = 0.0
    T: float = 1.0
    x0: tuple[float, ...] = (0.0,)
    t: float = 0.0

    def __post_init__(self):
        if not self.T - self.t > 0:
            raise ValueError(f"need t < T, got t={self.t}, T={self.T}")


def pseudo_conformal_profile(
    grid: GridSpec, pc: PseudoConformalParams, gs: GroundState
) -> Field:
    """Explicit collapsing solution built from the ground-state profile:

        S(t, x) = e^{i theta} (T-t)^{-n/2} Q((x-x0)/(T-t))
                  * exp(-i |x-x0|^2 / (4 (T-t))) * exp(i / (T-t))

    An L2 isometry of Q for every admissible t; the gradient norm grows like
    (T-t)^{-1} as t approaches T.

    Raises ResolutionError when the squeezed profile width T-t falls below
    8 grid cells.
    """
    lam = pc.T - pc.t
    if lam < 8.0 * max(grid.dx):
        raise ResolutionError(
            f"profile width {lam:.4g} below 8 dx = {8 * max(grid.dx):.4g}"
        )
    r_sq = grid.distance_sq(pc.x0)
    q_of_r = radial_interpolant(gs)
    amplitude = q_of_r(np.sqrt(r_sq) / lam) / lam ** (grid.n / 2.0)
    phase = pc.theta - r_sq / (4.0 * lam) + 1.0 / lam
    return Field(grid, amplitude * np.exp(1j * phase))

"""Ground-state solitary profiles of the focusing mass-critical equation.

The profile solves  lap(Q) - Q + Q^(1+4/n) = 0  with Q positive, radial and
decaying. Its L2 norm is the global-existence threshold; in one dimension the
profile has the closed form  3^(1/4) sech^(1/2)(2 x).

The solver is a Petviashvili (spectral renormalization) fixed point

    Q_{m+1} = S_m^gamma * (1 - lap)^(-1) (Q_m^p),
    S_m     = <Q_m, (1 - lap) Q_m> / <Q_m, Q_m^p>,
    gamma   = p / (p - 1),

which has S_m -> 1 at the solution; the stabilizing power gamma removes the
scaling degeneracy of the bare map. The Gaussian seed is even in every axis
and the map keeps it so, so the iterate is stored on its octant x >= 0 only,
N/2 + 1 points per axis, where its transform is a DCT-I along each axis. Each
iteration costs two such transforms: Q_m^p forward and Q_{m+1} back. The
equation residual needs a third, the spectral Laplacian of the iterate; it is
evaluated only once the iterates have settled below tol, and for the last
iterate of a spent budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DegenerateSeedError, IterationError, ResolutionError
from .spectral import Field, GridSpec, _keep_transform_scratch

DEFAULT_TOL = {1: 1e-10, 2: 1e-8, 3: 1e-8}

# dx above this cannot resolve the O(1)-width profile
MAX_RESOLVED_DX = 0.2

DEFAULT_GRIDS = {
    1: (1024, 20.0),
    2: (256, 15.0),
    3: (128, 10.0),
}


def ground_state_1d_exact(x) -> np.ndarray:
    """Closed-form 1D profile 3^(1/4) sech^(1/2)(2 x)."""
    x = np.asarray(x, dtype=float)
    return 3.0**0.25 / np.cosh(2.0 * x) ** 0.5


@dataclass(frozen=True)
class GroundState:
    """Converged profile with its basic functionals.

    Attributes:
        profile: real positive profile stored as a complex Field, peak at the
            box center.
        mass_sq: squared L2 norm.
        grad_sq: squared L2 norm of the gradient.
        residual: sup norm of lap(Q) - Q + Q^p on the grid.
        iterations: fixed-point iterations used.
    """

    profile: Field
    mass_sq: float
    grad_sq: float
    residual: float
    iterations: int

    @property
    def n(self) -> int:
        return self.profile.grid.n

    @property
    def threshold(self) -> float:
        """L2 norm of the profile (the global-existence threshold)."""
        return float(np.sqrt(self.mass_sq))


def _octant_weights(shape) -> np.ndarray:
    """Weights that turn a sum over the octant points (or modes) of an even
    field into the sum over the full grid (or spectrum): per axis 1 on the
    planes m = 0 and m = N/2, which have no mirror image, and 2 elsewhere."""
    return reduce(np.multiply.outer,
                  [np.r_[1.0, np.full(N // 2 - 1, 2.0), 1.0] for N in shape])


def _octant_transform(q: np.ndarray, norm: str = "forward") -> np.ndarray:
    """DFT of an even field from its octant samples, unnormalised, or over the
    number of grid points with norm="backward". Per axis, the octant q_0, ...,
    q_{N/2} is the half spectrum of its even extension, so an irfft of length
    N cut to points 0 to N/2 is the extension's real DFT (a DCT-I); complex
    input keeps it off numpy's slower path for real input. The box center's
    sign (-1)^k is left out; it cancels between the two directions and in
    |q^|^2.
    """
    for m in reversed(q.shape):  # each axis is transformed last, then moved first
        q = np.fft.irfft(q.astype(complex), 2 * m - 2, norm=norm)
        q = np.moveaxis(q[..., :m], -1, 0)
    return q


def _unfold(q: np.ndarray) -> np.ndarray:
    """The full-grid field of an even field's octant samples, by reflection
    about the center index N/2 of each axis."""
    return q[np.ix_(*(np.abs(np.arange(2 * m - 2) - (m - 1)) for m in q.shape))]


def petviashvili(
    grid: GridSpec,
    tol: float | None = None,
    max_iter: int = 500,
    seed_width: float = 1.0,
) -> GroundState:
    """Compute the ground state on a grid by spectral renormalization.

    Args:
        grid: periodic grid; must satisfy dx < 0.2 on every axis.
        tol: stop when the sup-norm change between iterates falls below tol
            and the equation residual is below 10 * tol.
        max_iter: iteration budget.
        seed_width: width of the centered Gaussian seed exp(-|x|^2 / (2 w^2)).

    Raises:
        ResolutionError: tol is not positive and finite, or dx is too coarse.
        DegenerateSeedError: the iteration collapsed to the zero field.
        IterationError: no convergence within max_iter (carries the last
            residual).
    """
    n = grid.n
    if tol is None:
        tol = DEFAULT_TOL[n]
    if not (tol > 0 and np.isfinite(tol)):
        raise ResolutionError(f"tol must be positive and finite, got {tol}")
    if max(grid.dx) >= MAX_RESOLVED_DX:
        raise ResolutionError(
            f"dx={max(grid.dx):.3f} too coarse for the unit-width profile "
            f"(need dx < {MAX_RESOLVED_DX})"
        )

    # the iteration's transforms and temporaries would otherwise be faulted
    # in afresh on every iteration (docs/DECISIONS.md)
    _keep_transform_scratch()
    p = 1.0 + 4.0 / n
    gamma = p / (p - 1.0)
    # octant samples and modes, per axis 0 to N/2: the points are the center
    # N/2 up to N - 1, then x = -L (the image of +L)
    weight = _octant_weights(grid.shape)
    r_sq = reduce(np.add.outer, [grid.axis_coordinates(a)[np.r_[N // 2 : N, 0]] ** 2
                                 for a, N in enumerate(grid.shape)])
    ksq = reduce(np.add.outer, [grid.axis_wavenumbers(a)[: N // 2 + 1] ** 2
                                for a, N in enumerate(grid.shape)])
    # qh is the octant spectrum over the number of points: q = T(qh)
    points = grid.num_points
    inv_helmholtz = 1.0 / (1.0 + ksq)
    num_weight = weight * (1.0 + ksq) * points

    # the spectral residual cannot fall below the round-off floor of the
    # Laplacian evaluation, eps * k_max^2; accept the larger target
    resid_target = max(10.0 * tol, 4.0 * np.finfo(float).eps * (1.0 + ksq.max()))

    # qh and qp always belong to the current iterate q: the spectrum of
    # q_new is in hand before its inverse transform, and the residual's q^p
    # is the next iteration's
    q = np.exp(-r_sq / (2.0 * seed_width**2))
    qh = _octant_transform(q, "backward")
    qp = q**p
    residual = np.inf
    for m in range(1, max_iter + 1):
        num = np.sum(num_weight * qh**2)
        den = np.sum(weight * q * qp)
        if not den > 0:
            raise DegenerateSeedError("iteration collapsed to the zero field")
        stab = num / den
        qh_new = stab**gamma * _octant_transform(qp, "backward") * inv_helmholtz
        q_new = _octant_transform(qh_new)
        change = float(np.max(np.abs(q_new - q)))
        q, qh = q_new, qh_new
        qp = q**p
        # the residual costs a third transform: evaluate it only where the
        # stopping test reads it, and for the last iterate of a spent budget
        if change < tol or m == max_iter:
            residual = float(np.max(np.abs(_octant_transform(-ksq * qh) - q + qp)))
            if change < tol and residual < resid_target:
                break
    else:
        raise IterationError(
            f"no convergence in {max_iter} iterations (residual {residual:.3e})",
            last_residual=residual,
        )

    # tail samples below the round-off floor eps * max(Q) carry no sign
    # information; genuine sign structure still fails here
    if q.min() <= -16.0 * np.finfo(float).eps * q.max():
        raise IterationError(
            "converged profile is not strictly positive", last_residual=residual
        )
    q = np.maximum(q, np.finfo(float).tiny)
    mass_sq = float(np.sum(weight * q**2) * grid.cell_volume)
    grad_sq = float(np.sum(weight * ksq * qh**2) * points * grid.cell_volume)
    return GroundState(
        profile=Field(grid, _unfold(q).astype(np.complex128)),
        mass_sq=mass_sq,
        grad_sq=grad_sq,
        residual=residual,
        iterations=m,
    )


def ground_state_energy(gs: GroundState) -> float:
    """Unperturbed energy  |grad Q|^2 - 2/(p+1) * int Q^(p+1);  zero for the
    mass-critical profile."""
    n = gs.n
    p = 1.0 + 4.0 / n
    q = gs.profile.data.real
    lp_sum = float(np.sum(q ** (p + 1.0)) * gs.profile.grid.cell_volume)
    return gs.grad_sq - 2.0 / (p + 1.0) * lp_sum


def radial_interpolant(gs: GroundState):
    """Cubic-spline evaluator r -> Q(r) built from the grid profile.

    Samples the profile along the first axis from the box center outward
    (the profile is radial, so one ray determines it). Evaluations beyond
    the sampled radius return 0, consistent with the exponential decay.
    scipy is imported here, not with the package, so that only the
    pseudo-conformal profile pays for its import (docs/DECISIONS.md).
    """
    from scipy.interpolate import CubicSpline

    grid = gs.profile.grid
    center = tuple(s // 2 for s in grid.shape)
    ray = gs.profile.data.real[center[:-1] + (slice(center[-1], None),)]
    # values along the last axis at radius 0, dx, 2 dx, ...
    radii = np.arange(ray.size) * grid.dx[-1]
    spline = CubicSpline(radii, ray, bc_type=((1, 0.0), "natural"))
    r_max = radii[-1]

    def evaluate(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros(r.shape)
        inside = r <= r_max
        out[inside] = spline(r[inside])
        return out

    return evaluate


_CACHE: dict[tuple, GroundState] = {}


def cached_ground_state(
    n: int,
    N: int | None = None,
    L: float | None = None,
    tol: float | None = None,
) -> GroundState:
    """Ground state memoized per dimension, grid and tolerance."""
    if N is None or L is None:
        N_def, L_def = DEFAULT_GRIDS[n]
        N = N if N is not None else N_def
        L = L if L is not None else L_def
    if tol is None:
        tol = DEFAULT_TOL[n]
    key = (n, N, float(L), float(tol))
    if key not in _CACHE:
        _CACHE[key] = petviashvili(GridSpec.create(n, L, N), tol=tol)
    return _CACHE[key]


def threshold_mass(n: int, **grid_kwargs) -> float:
    """L2 norm of the ground state for dimension n (cached)."""
    return cached_ground_state(n, **grid_kwargs).threshold

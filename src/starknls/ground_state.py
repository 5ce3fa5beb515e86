"""Ground-state solitary profiles of the focusing mass-critical equation.

The profile solves  lap(Q) - Q + Q^(1+4/n) = 0  with Q positive, radial and
decaying. Its L2 norm is the global-existence threshold; in one dimension the
profile has the closed form  3^(1/4) sech^(1/2)(2 x).

The solver is a Petviashvili (spectral renormalization) fixed point

    Q_{m+1} = S_m^gamma * (1 - lap)^(-1) (Q_m^p),
    S_m     = <Q_m, (1 - lap) Q_m> / <Q_m, Q_m^p>,
    gamma   = p / (p - 1),

which has S_m -> 1 at the solution; the stabilizing power gamma removes the
scaling degeneracy of the bare map. The iterate is real, so each iteration
costs two real transforms on the half spectrum: Q_m^p forward and Q_{m+1}
back. The equation residual needs a third, the spectral Laplacian of the
iterate; it is evaluated only once the iterates have settled below tol, and
for the last iterate of a spent budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeedError, IterationError, ResolutionError
from .spectral import Field, GridSpec, _keep_transform_scratch, l2_norm_sq

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


def _recenter_peak(q: np.ndarray) -> tuple[np.ndarray, bool]:
    """Roll the array so the maximum sits at index N/2 per axis; also report
    whether it moved."""
    peak = np.unravel_index(np.argmax(q), q.shape)
    shifts = [s // 2 - p for s, p in zip(q.shape, peak)]
    rolled = any(shifts)
    if rolled:
        q = np.roll(q, shifts, axis=tuple(range(q.ndim)))
    return q, rolled


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
        ResolutionError: tol <= 0 or the grid is too coarse.
        DegenerateSeedError: the iteration collapsed to the zero field.
        IterationError: no convergence within max_iter (carries the last
            residual).
    """
    n = grid.n
    if tol is None:
        tol = DEFAULT_TOL[n]
    if tol <= 0:
        raise ResolutionError(f"tolerance must be positive, got {tol}")
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
    # the iterate is real: work on the rfftn half spectrum (last axis N//2+1)
    shape = grid.shape
    axes = tuple(range(n))
    ksq = np.ascontiguousarray(grid.k_sq[..., : shape[-1] // 2 + 1])
    inv_helmholtz = 1.0 / (1.0 + ksq)
    num_weight = grid.rfft_weights * (1.0 + ksq)

    # the spectral residual cannot fall below the round-off floor of the
    # Laplacian evaluation, eps * k_max^2; accept the larger target
    resid_target = max(10.0 * tol, 4.0 * np.finfo(float).eps * (1.0 + ksq.max()))

    def inverse(qh):
        return np.fft.irfftn(qh, s=shape, axes=axes, norm="ortho")

    # qh and qp always belong to the current iterate q: the spectrum of
    # q_new is in hand before its inverse transform, and the residual's q^p
    # is the next iteration's
    q = np.exp(-grid.radius_sq / (2.0 * seed_width**2))
    qh = np.fft.rfftn(q, norm="ortho")
    qp = q**p
    residual = np.inf
    for m in range(1, max_iter + 1):
        num = np.sum(num_weight * (qh.real**2 + qh.imag**2))
        den = np.sum(q * qp)
        if not den > 0:
            raise DegenerateSeedError("iteration collapsed to the zero field")
        stab = num / den
        qh_new = stab**gamma * np.fft.rfftn(qp, norm="ortho") * inv_helmholtz
        q_new, rolled = _recenter_peak(inverse(qh_new))
        if rolled:
            qh_new = np.fft.rfftn(q_new, norm="ortho")
        change = float(np.max(np.abs(q_new - q)))
        q, qh = q_new, qh_new
        qp = q**p
        # the residual costs a third transform: evaluate it only where the
        # stopping test reads it, and for the last iterate of a spent budget
        if change < tol or m == max_iter:
            residual = float(np.max(np.abs(inverse(-ksq * qh) - q + qp)))
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
    field = Field(grid, q.astype(np.complex128))
    mass_sq = l2_norm_sq(field)
    power = qh.real**2 + qh.imag**2
    grad_sq = float(np.sum(grid.rfft_weights * ksq * power) * grid.cell_volume)
    return GroundState(
        profile=field,
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

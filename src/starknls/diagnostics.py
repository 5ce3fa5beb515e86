"""Observable functionals, modified conservation-law checkers, blow-up
detection and rate fitting, and mass-concentration measurements.

Functional conventions (all quadratures are Riemann sums with weight dx^n),
named as the trajectory.csv columns and the keys of sample's row:

    mass_sq      = integral |u|^2
    grad_norm_sq = integral |grad u|^2   (spectral)
    lp_sum       = integral |u|^(p+1)
    E0           = grad_norm_sq - 2/(p+1) lp_sum
    stark_moment = integral (E.x) |u|^2
    EV           = E0 + stark_moment     (definitional identity)
    P = (Px, Py, Pz) = Im integral conj(u) grad u, one column per axis
    variance     = integral |x|^2 |u|^2

Expected evolution laws for the damped equation with uniform field E and
damping a (adjudicated empirically by the checkers):

    mass_sq(t)   = e^{-2 a t} mass_sq(0)
    d E0 / dt    = -2 E.P - 2 a grad_norm_sq + 2 a lp_sum
    d EV / dt    = -2 a stark_moment - 2 a grad_norm_sq + 2 a lp_sum
    d P  / dt    = -E mass_sq^q - 2 a P   with q in {1, 2} adjudicated
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, log, sqrt

import numpy as np

from .errors import InsufficientDataError, NoBoundError, ResolutionError
from .spectral import Field, PhysParams, _as_tuple, _weighted_sum, power_momentum
from .storage import MOMENTUM_COLUMNS

# fit-window policy: samples with grad_norm at least this factor above the
# trajectory minimum belong to the collapse window
FIT_WINDOW_FACTOR = 30.0
FIT_MIN_POINTS = 20


@dataclass(frozen=True)
class LawCheckReport:
    """Outcome of checking one evolution law over a trajectory."""

    law_id: str
    max_rel_dev: float
    notes: str = ""

    def __post_init__(self):
        if self.max_rel_dev < 0:
            raise ValueError("deviation must be nonnegative")


@dataclass(frozen=True)
class BlowupReport:
    """Blow-up detection and collapse-rate fit summary.

    rate_exponent is the exponent gamma of the pure power fit
    grad_norm = C (T* - t)^(-gamma); residuals are RMS misfits of
    log grad_sq over the collapse window. sqrt_rate_residual is the misfit of
    the self-similar rate gamma = 1/2, the law the loglog correction
    refines; it has the same two parameters (C, T*) as the loglog model.
    A report without a fit reads nan in the fields it did not fit.
    """

    blew_up: bool
    stop_reason: str
    T_star_est: float = np.nan
    rate_exponent: float = np.nan
    loglog_residual: float = np.nan
    power_residual: float = np.nan
    sqrt_rate_residual: float = np.nan
    fit_unreliable: bool = False
    window_points: int = 0


def sample(
    u: Field, t: float, params: PhysParams,
    power: np.ndarray | None = None, density: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> dict[str, float]:
    """Evaluate every observable on a (physical-frame) field: the sample's
    trajectory row, keyed by the trajectory.csv column names (t, mass_sq,
    grad_norm_sq, E0, EV, one momentum column per axis, variance) without
    dt and spectral_fill, plus lp_sum and stark_moment.

    power is |u_hat|^2 of the unitary spectrum of u, and density is |u|^2,
    if the caller already has them; otherwise power is computed here with
    one transform. scratch is a float array of the grid's shape that the
    weighted sums overwrite (one is allocated if None).
    """
    grid = u.grid
    vol = grid.cell_volume
    data = u.data
    if density is None:
        density = np.abs(data) ** 2
    if scratch is None:
        scratch = np.empty(grid.shape)
    mass_sq = float(np.sum(density) * vol)

    if power is None:
        power = np.abs(np.fft.fftn(data, norm="ortho"))
        np.square(power, out=power)
    grad_sq = _weighted_sum(grid.k_sq, power, scratch) * vol
    mom = power_momentum(power, grid, scratch)

    p = params.p
    if p == 5.0:  # a cube by pow would round differently
        lp_density = np.multiply(density, density, out=scratch)
        lp_density *= density
    elif p == 3.0:
        lp_density = np.square(density, out=scratch)
    else:
        lp_density = np.power(density, (p + 1.0) / 2.0, out=scratch)
    lp_sum = float(np.sum(lp_density) * vol)
    e0 = grad_sq - 2.0 / (p + 1.0) * lp_sum

    stark_moment = 0.0
    if params.E_norm > 0:
        for xg, e in zip(grid.coordinate_grids, params.E):
            if e != 0.0:
                stark_moment += e * (_weighted_sum(xg, density, scratch) * vol)
    variance = _weighted_sum(grid.radius_sq, density, scratch) * vol

    return {
        "t": t, "mass_sq": mass_sq, "grad_norm_sq": grad_sq, "E0": e0,
        "EV": e0 + stark_moment, **dict(zip(MOMENTUM_COLUMNS, mom)),
        "variance": variance, "lp_sum": lp_sum, "stark_moment": stark_moment,
    }


# ---------------------------------------------------------------------------
# Law checkers
# ---------------------------------------------------------------------------


def _require_samples(traj, minimum):
    count = len(traj.columns["t"])
    if count < minimum:
        raise InsufficientDataError(
            f"need at least {minimum} samples, trajectory has {count}"
        )


def _momentum(traj, n):
    """The momentum columns as one (samples, n) array."""
    return np.column_stack([traj.columns[name] for name in MOMENTUM_COLUMNS[:n]])


def check_mass_law(traj, params: PhysParams) -> LawCheckReport:
    """Fit log mass_sq(t) = -c t + const and compare c against 2 a.

    The damping factor enters each step exactly, so the fitted rate matches
    2 a to round-off; the report also carries the worst pointwise deviation
    of mass_sq(t) from e^{-2 a t} mass_sq(0).
    """
    _require_samples(traj, 2)
    t = traj.columns["t"]
    m = traj.columns["mass_sq"]
    a = params.a
    if np.any(m <= 0):
        raise InsufficientDataError("mass series contains non-positive entries")
    span = t[-1] - t[0]
    if span <= 0:
        raise InsufficientDataError("degenerate time span")
    slope = np.polyfit(t, np.log(m), 1)[0]
    fitted_rate = -slope
    rate_dev = abs(fitted_rate - 2.0 * a)
    pointwise = np.max(np.abs(m / (m[0] * np.exp(-2.0 * a * (t - t[0]))) - 1.0))
    return LawCheckReport(
        law_id="mass_decay",
        max_rel_dev=float(rate_dev),
        notes=(
            f"fitted_rate={fitted_rate:.12e} expected={2.0 * a:.12e} "
            f"pointwise_dev={pointwise:.3e}"
        ),
    )


def _rate_deviation(t, series, rhs, scale):
    """Max deviation of d(series)/dt from rhs, relative to a common scale."""
    dnum = np.gradient(series, t)
    return float(np.max(np.abs(dnum - rhs)) / scale)


def check_energy_rate(traj, params: PhysParams) -> LawCheckReport:
    """Compare numerically differentiated E0(t) and EV(t) against their
    stated rates. The cross term in the E0 rate is the real quantity
    -2 E.P(u); in the conservative limit (a = 0, E = 0) both rates vanish
    and the check reduces to constancy of the energies."""
    _require_samples(traj, 5)
    t = traj.columns["t"]
    e0 = traj.columns["E0"]
    ev = traj.columns["EV"]
    gsq = traj.columns["grad_norm_sq"]
    lp = traj.columns["lp_sum"]
    stark = traj.columns["stark_moment"]
    mom = _momentum(traj, params.n)
    a = params.a
    E = np.asarray(params.E)

    if a == 0.0 and params.E_norm == 0.0:
        scale = max(1.0, abs(e0[0]))
        dev0 = np.max(np.abs(e0 - e0[0])) / scale
        devv = np.max(np.abs(ev - ev[0])) / scale
        return LawCheckReport(
            law_id="energy_decay",
            max_rel_dev=float(max(dev0, devv)),
            notes=f"conservative limit: dE0={dev0:.3e} dEV={devv:.3e}",
        )

    rhs0 = -2.0 * (mom @ E) - 2.0 * a * gsq + 2.0 * a * lp
    rhsv = -2.0 * a * stark - 2.0 * a * gsq + 2.0 * a * lp
    # one scale for both laws: the run's rate magnitude, floored at one
    # energy unit per unit time so a vanishing right-hand side stays testable
    span = t[-1] - t[0]
    scale = max(
        np.max(np.abs(rhs0)),
        np.max(np.abs(rhsv)),
        max(1.0, abs(e0[0]), abs(ev[0])) / span,
    )
    dev0 = _rate_deviation(t, e0, rhs0, scale)
    devv = _rate_deviation(t, ev, rhsv, scale)
    return LawCheckReport(
        law_id="energy_decay",
        max_rel_dev=float(max(dev0, devv)),
        notes=f"dE0/dt dev={dev0:.3e} dEV/dt dev={devv:.3e}",
    )


def check_momentum_law(traj, params: PhysParams) -> LawCheckReport:
    """Adjudicate d P/dt = -E mass_sq^q - 2 a P for q in {1, 2}.

    Reports the winning exponent and both residuals. With E = 0 the source
    vanishes and the check is the closed form P(t) = e^{-2 a t} P(0); with
    E = 0 and a = 0 both exponents fit trivially (degenerate, flagged)."""
    _require_samples(traj, 5)
    t = traj.columns["t"]
    mom = _momentum(traj, params.n)
    m = traj.columns["mass_sq"]
    a = params.a
    E = np.asarray(params.E)

    if params.E_norm == 0.0:
        expected = mom[0][None, :] * np.exp(-2.0 * a * (t - t[0]))[:, None]
        # |P| <= ||u|| ||grad u||: a bound, not |P| itself, so a run that
        # keeps P = 0 to round-off reads round-off, not 1
        scale = max(np.max(np.sqrt(m * traj.columns["grad_norm_sq"])), 1e-30)
        dev = float(np.max(np.abs(mom - expected)) / scale)
        degenerate = a == 0.0
        notes = f"E=0 closed form dev={dev:.3e}"
        if degenerate:
            notes += "; degenerate adjudication (a=0, E=0): both exponents trivial"
        return LawCheckReport(law_id="momentum_decay", max_rel_dev=dev, notes=notes)

    dmom = np.gradient(mom, t, axis=0)
    devs = {}
    for q in (1, 2):
        rhs = -np.outer(m**q, E) - 2.0 * a * mom
        scale = max(np.max(np.abs(rhs)), np.max(np.abs(dmom)), 1e-30)
        devs[q] = float(np.max(np.abs(dmom - rhs)) / scale)
    winner = 1 if devs[1] <= devs[2] else 2
    return LawCheckReport(
        law_id="momentum_decay",
        max_rel_dev=devs[winner],
        notes=(
            f"adjudicated exponent q={winner}; "
            f"residual q=1: {devs[1]:.3e}, q=2: {devs[2]:.3e}"
        ),
    )


# ---------------------------------------------------------------------------
# Blow-up detection and rate fitting
# ---------------------------------------------------------------------------


_SIGMA_MIN = 1e-12
_SIGMA_RTOL = 1e-10
_INV_PHI = 0.5 * (sqrt(5.0) - 1.0)


def _minimize_sigma(objective, span):
    """Minimizer of objective(sigma) over sigma = T* - t_last in
    [_SIGMA_MIN, span], by golden-section search in ln sigma (J. Kiefer,
    Proc. AMS 4 (1953) 502).

    Each step keeps the golden fraction of the bracket, so the search stops
    once the bracket is narrower than _SIGMA_RTOL in ln sigma, a relative
    tolerance on sigma, after a number of steps fixed by the bracket alone
    (55 for a window spanning 0.2). A minimum at an end of the bracket is
    found to the same tolerance."""
    a, b = log(_SIGMA_MIN), log(span)
    x1, x2 = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    f1, f2 = objective(exp(x1)), objective(exp(x2))
    while b - a > _SIGMA_RTOL:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = objective(exp(x1))
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = objective(exp(x2))
    return exp(x1) if f1 <= f2 else exp(x2)


def _profiled_loglog_fit(t, gsq):
    """Fit grad_sq = C loglog(1/(T-t)) / (T-t) by least squares on
    log grad_sq; log C is profiled out, leaving a 1-d search over
    sigma = T* - t_last."""
    before = t[-1] - t
    span = max(t[-1] - t[0], 1e-9)

    def objective(sigma):
        sig = sigma + before
        inner = np.log(1.0 / sig)
        if np.any(inner <= 1.0):
            return 1e300
        r = np.log(gsq) - (np.log(np.log(inner)) - np.log(sig))
        r = r - r.mean()
        return float(np.sum(r * r))

    sigma = _minimize_sigma(objective, span)
    rms = np.sqrt(objective(sigma) / len(t))
    return float(t[-1] + sigma), float(rms)


def _profiled_power_fit(t, gnorm, gamma=None):
    """Fit grad_norm = C (T-t)^(-gamma): given T*, (log C, gamma) solve a
    linear regression in log space; sigma = T* - t_last by 1-d search. A
    given gamma is held fixed and only log C is regressed."""
    before = t[-1] - t
    span = max(t[-1] - t[0], 1e-9)
    Y = np.log(gnorm)

    def regress(sigma):
        X = -np.log(sigma + before)
        if gamma is None:
            A = np.vstack([np.ones_like(X), X]).T
            coef, *_ = np.linalg.lstsq(A, Y, rcond=None)
            r = Y - A @ coef
        else:
            coef = (np.mean(Y - gamma * X), gamma)
            r = Y - coef[0] - gamma * X
        return coef, float(np.sum(r * r))

    sigma = _minimize_sigma(lambda s: regress(s)[1], span)
    coef, ss = regress(sigma)
    # residual in log grad_sq units for comparability with the loglog model
    rms = np.sqrt(4.0 * ss / len(t))
    return float(t[-1] + sigma), float(coef[1]), float(rms)


def detect_blowup_and_fit(traj) -> BlowupReport:
    """Estimate T* and the collapse rate from a trajectory.

    The collapse window is the contiguous tail of samples whose gradient
    norm exceeds FIT_WINDOW_FACTOR times the trajectory minimum; fewer than
    FIT_MIN_POINTS such samples sets the fit_unreliable flag. Both the
    loglog model (grad_sq ~ C loglog(1/(T*-t))/(T*-t)) and the pure power
    model (grad_norm ~ C (T*-t)^(-gamma)) are fitted; T_star_est comes from
    whichever fits better. The power model is also fitted with gamma held at
    1/2; that gives sqrt_rate_residual and does not enter T_star_est. A
    trajectory that did not end in a blow-up stop reports blew_up=False with
    no fit; one that did and holds a non-finite t or grad_norm_sq, or a t
    that decreases, raises InsufficientDataError."""
    stop_name = traj.stop_reason.value
    if not traj.blew_up:
        return BlowupReport(blew_up=False, stop_reason=stop_name)
    for name in ("t", "grad_norm_sq"):
        if not np.all(np.isfinite(traj.columns[name])):
            raise InsufficientDataError(f"column {name} holds non-finite values")
    t = traj.columns["t"]
    if np.any(np.diff(t) < 0):
        raise InsufficientDataError("column t decreases")
    gnorm = np.sqrt(traj.columns["grad_norm_sq"])
    # collapse window: the contiguous tail above the growth threshold (a
    # mid-run dip must not splice early samples into the fit)
    threshold = FIT_WINDOW_FACTOR * gnorm.min()
    below = np.nonzero(gnorm < threshold)[0]
    start = below[-1] + 1 if below.size else 0
    npts = int(gnorm.size - start)
    unreliable = npts < FIT_MIN_POINTS
    if npts < 4:
        return BlowupReport(
            blew_up=True, stop_reason=stop_name, T_star_est=float(t[-1]),
            fit_unreliable=True, window_points=npts,
        )
    tw = t[start:]
    gw = gnorm[start:]
    T_ll, rms_ll = _profiled_loglog_fit(tw, gw**2)
    T_pw, gamma, rms_pw = _profiled_power_fit(tw, gw)
    _, _, rms_sqrt = _profiled_power_fit(tw, gw, gamma=0.5)
    T_star = T_ll if rms_ll <= rms_pw else T_pw
    return BlowupReport(
        blew_up=True,
        T_star_est=T_star,
        stop_reason=stop_name,
        rate_exponent=gamma,
        loglog_residual=rms_ll,
        power_residual=rms_pw,
        sqrt_rate_residual=rms_sqrt,
        fit_unreliable=unreliable,
        window_points=npts,
    )


# ---------------------------------------------------------------------------
# Mass concentration
# ---------------------------------------------------------------------------


def _window_mask(grid, offsets, w: float) -> np.ndarray:
    """Grid points inside the periodic ball of radius w, from one 1D array
    of offsets from its center per axis (each wrapped to the nearest image)."""
    if w <= 0:
        raise ValueError("window radius must be positive")
    if w < min(grid.dx):
        raise ResolutionError(f"window {w:.3g} below grid spacing {min(grid.dx):.3g}")
    axes = []
    for off, L in zip(offsets, grid.half_widths):
        off = np.abs(off)
        axes.append(np.minimum(off, 2.0 * L - off))
    return sum(g**2 for g in np.meshgrid(*axes, indexing="ij")) < w * w


def mass_in_window(u: Field, center, w: float) -> float:
    """L2 mass inside the periodic ball of radius w about a center."""
    grid = u.grid
    center = _as_tuple(center, grid.n, float)
    offsets = [grid.axis_coordinates(axis) - c for axis, c in enumerate(center)]
    mask = _window_mask(grid, offsets, w)
    return float(np.sum(np.abs(u.data[mask]) ** 2) * grid.cell_volume)


def sup_mass_in_window(u: Field, w: float) -> tuple[float, tuple[float, ...]]:
    """Largest window mass over all centers, by FFT convolution of |u|^2
    with the ball indicator, maximized on the grid. Returns (mass, center)."""
    grid = u.grid
    offsets = [
        (2.0 * L / N) * np.arange(N) for N, L in zip(grid.shape, grid.half_widths)
    ]
    indicator = _window_mask(grid, offsets, w).astype(float)
    density = np.abs(u.data) ** 2
    # kernel indexed by offset and symmetric under wraparound, so the circular
    # convolution value at m is the window mass centered at grid point m
    conv = np.fft.ifftn(np.fft.fftn(density) * np.fft.fftn(indicator)).real
    best = np.unravel_index(np.argmax(conv), conv.shape)
    center = tuple(
        float(grid.axis_coordinates(axis)[idx]) for axis, idx in enumerate(best)
    )
    return float(conv[best] * grid.cell_volume), center


@dataclass(frozen=True)
class ConcentrationPoint:
    t: float
    w: float
    window_mass: float


def concentration_series(traj) -> list[ConcentrationPoint]:
    """Sup-window mass at every stored snapshot in the window of radius
    w = |grad u|^(-1/2); then w |grad u| -> infinity at collapse."""
    if not traj.snapshots:
        raise InsufficientDataError("trajectory carries no snapshots")
    out = []
    for snap in traj.snapshots:
        w = max(snap.grad_norm, 1e-30) ** -0.5
        mass, _ = sup_mass_in_window(snap.field, w)
        out.append(ConcentrationPoint(t=snap.t, w=w, window_mass=mass))
    return out


# ---------------------------------------------------------------------------
# Blow-up bounds and sufficient conditions
# ---------------------------------------------------------------------------


def t_star_upper_bound(mass0: float, a: float, threshold: float) -> float:
    """Upper bound (1/a) log(mass0 / threshold) on the blow-up time, with
    mass0 and threshold as L2 norms (not squared). Data at or below the
    threshold is global and admits no bound."""
    if a <= 0:
        raise NoBoundError("bound requires positive damping")
    if mass0 <= threshold:
        raise NoBoundError(
            f"initial norm {mass0:.6g} at or below threshold {threshold:.6g}: "
            "global regime, no blow-up bound"
        )
    return float(np.log(mass0 / threshold) / a)


def blowup_sufficient_condition(u0: Field, params: PhysParams) -> bool:
    """True when EV(u0) < stark_moment(u0), i.e. E0(u0) < 0 (data that
    cannot remain bounded for small damping).

    Values of E0 within round-off of zero (the ground state itself) are not
    treated as negative: a sufficient condition must not fire on noise."""
    s = sample(u0, 0.0, params)
    dead_band = 1e-9 * max(1.0, s["grad_norm_sq"])
    return s["EV"] - s["stark_moment"] < -dead_band

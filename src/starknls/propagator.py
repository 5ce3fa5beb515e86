"""Strang split-step time integration with adaptive stepping near collapse.

One step of size dt advances the field by

    kinetic(dt/2) o [potential(dt) o nonlinear_damped(dt)] o kinetic(dt/2)

where the kinetic substep is the exact free flow (Fourier multiplier
exp(-i |k|^2 tau)), the nonlinear-damped substep is the exact pointwise
solution of  rho' = -a rho,  theta' = g rho^(p-1)  (so the per-step mass
contract  |u(t)| = e^{-a dt} |u(t-dt)|  holds by construction), and the
potential substep multiplies by exp(-i (E.x) tau).

Two backends handle the uniform-field term:

* GAUGE_FRAME (reference): the stored field is the E = 0 frame function; the
  potential substep is skipped and observers map through the accelerated-frame
  transform before reporting. Exact in E and periodic-friendly.
* DIRECT_POTENTIAL: applies the pointwise potential phase; valid only while
  the field stays away from the periodic seam (the linear potential is
  discontinuous there), which is monitored and reported as a warning.

Step control: dt = min(dt0, cfl_const / |grad u|^2), the natural step for the
self-similar collapse scale. A run stops early when the gradient norm exceeds
grad_stop or when the top 1/8 of the spectrum carries more than
spectral_fill_max of the mass (resolution exhausted).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import diagnostics
from .errors import DivergedFieldError
from .gauge import ah_forward
from .spectral import Field, PhysParams, boundary_mass_fraction


class Backend(enum.Enum):
    GAUGE_FRAME = "gauge"
    DIRECT_POTENTIAL = "direct"


class StopReason(enum.Enum):
    T_END = "t_end"
    GRAD_THRESHOLD = "grad_threshold"
    SPECTRAL_FILL = "spectral_fill"
    DT_UNDERFLOW = "dt_underflow"
    DIVERGED = "diverged"


BLOWUP_STOPS = frozenset({StopReason.GRAD_THRESHOLD, StopReason.SPECTRAL_FILL})


@dataclass(frozen=True)
class StepController:
    """Adaptive step policy and stop thresholds."""

    dt0: float = 1e-3
    cfl_const: float = 0.2
    dt_min: float = 1e-12
    spectral_fill_max: float = 0.1
    grad_stop: float = 1e4

    def __post_init__(self):
        if not self.dt_min > 0:
            raise ValueError("dt_min must be positive")
        if not 0 < self.spectral_fill_max < 1:
            raise ValueError("spectral_fill_max must lie in (0, 1)")
        if not self.dt0 > 0:
            raise ValueError("dt0 must be positive")
        # nan would silently disable the step bound or the blow-up stop
        if not (self.cfl_const > 0 and np.isfinite(self.cfl_const)):
            raise ValueError(f"cfl must be positive and finite, got {self.cfl_const}")
        if not (self.grad_stop > 0 and np.isfinite(self.grad_stop)):
            raise ValueError(
                f"grad_stop must be positive and finite, got {self.grad_stop}"
            )


@dataclass(frozen=True)
class DiagnosticHooks:
    """Observer cadence. Samples and snapshots are taken at step boundaries;
    the final state is always sampled, and also snapshotted when any snapshot
    mechanism is enabled."""

    sample_every_steps: int = 1
    snapshot_every_steps: int = 0
    snapshot_grad_factor: float | None = None

    def __post_init__(self):
        if self.sample_every_steps < 1:
            raise ValueError("sample_every_steps must be >= 1")

    @property
    def snapshots_enabled(self) -> bool:
        return self.snapshot_every_steps > 0 or self.snapshot_grad_factor is not None


@dataclass(frozen=True)
class SimState:
    """Propagation state. In the GAUGE_FRAME backend the stored field is the
    E = 0 frame function; observed_field() maps it to the physical one."""

    t: float
    field: Field
    params: PhysParams
    backend: Backend = Backend.GAUGE_FRAME
    step_count: int = 0
    diverged: bool = False

    def observed_field(self) -> Field:
        if self.backend is Backend.GAUGE_FRAME and self.params.E_norm > 0:
            return ah_forward(self.field, self.t, self.params.E)
        return self.field


@dataclass(frozen=True)
class Snapshot:
    t: float
    field: Field
    grad_norm: float


@dataclass
class TrajectoryRecord:
    """Sampled diagnostics, snapshots, and the stop descriptor of one run."""

    params: PhysParams
    backend: Backend
    samples: list = dc_field(default_factory=list)
    dt_series: list = dc_field(default_factory=list)
    fill_series: list = dc_field(default_factory=list)
    snapshots: list = dc_field(default_factory=list)
    stop_reason: StopReason = StopReason.T_END
    warnings: list = dc_field(default_factory=list)

    _columns: dict = dc_field(default_factory=dict, repr=False)

    @property
    def blew_up(self) -> bool:
        return self.stop_reason in BLOWUP_STOPS

    def column(self, name: str) -> np.ndarray:
        """Sample series as an array: t, mass_sq, grad_sq, e0, ev, variance,
        lp_sum, stark_moment, momentum (2d), grad_norm."""
        cached = self._columns.get(name)
        if cached is not None and len(cached) == len(self.samples):
            return cached
        if name == "momentum":
            arr = np.array([s.momentum for s in self.samples])
        elif name == "grad_norm":
            arr = np.sqrt(np.array([s.grad_sq for s in self.samples]))
        else:
            arr = np.array([getattr(s, name) for s in self.samples])
        self._columns[name] = arr
        return arr

    def warn_once(self, code: str, t: float) -> None:
        if not any(c == code for c, _ in self.warnings):
            self.warnings.append((code, t))


# ---------------------------------------------------------------------------
# Substeps (exact flows of the split pieces)
# ---------------------------------------------------------------------------


def kinetic_substep(f: Field, tau: float) -> Field:
    """Exact free flow: every mode multiplied by exp(-i |k|^2 tau)."""
    if not f.is_finite():
        raise DivergedFieldError("field contains non-finite samples")
    fh = np.fft.fftn(f.data, norm="ortho")
    fh *= np.exp(-1j * f.grid.k_sq * tau)
    return Field(f.grid, np.fft.ifftn(fh, norm="ortho"))


def _nonlinear_phase(rho: np.ndarray, tau: float, a: float, p: float) -> np.ndarray:
    if p == 5.0:
        rho_pm1 = np.square(np.square(rho))
    elif p == 3.0:
        rho_pm1 = np.square(rho)
    else:
        rho_pm1 = rho ** (p - 1.0)
    if a > 0.0:
        # integral of (rho0 e^{-a s})^{p-1} over [0, tau]
        return rho_pm1 * (-np.expm1(-(p - 1.0) * a * tau)) / ((p - 1.0) * a)
    return rho_pm1 * tau


def nonlinear_damped_substep(
    f: Field, tau: float, a: float, p: float, nl_strength: float = 1.0
) -> Field:
    """Exact pointwise flow of the focusing term with linear damping.

    The modulus decays as rho0 e^{-a tau}; the phase advances by the exact
    integral of rho(s)^{p-1}, i.e. rho0^{p-1} (1 - e^{-(p-1) a tau}) /
    ((p-1) a) for a > 0 and rho0^{p-1} tau for a = 0.
    """
    if tau < 0:
        raise ValueError("nonlinear substep requires tau >= 0")
    phase = _nonlinear_phase(np.abs(f.data), tau, a, p)
    if nl_strength != 1.0:
        phase = phase * nl_strength
    return Field(f.grid, f.data * np.exp(-a * tau + 1j * phase))


def stark_substep_direct(f: Field, tau: float, E) -> Field:
    """Pointwise potential phase exp(-i (E.x) tau).

    Requires interior-supported data: the sawtooth coordinate makes the
    potential jump across the periodic seam.
    """
    grid = f.grid
    E = np.broadcast_to(np.asarray(E, dtype=float), (grid.n,))
    phase = np.zeros(grid.shape)
    for xg, e in zip(grid.coordinate_grids, E):
        if e != 0.0:
            phase = phase + e * xg
    return Field(grid, f.data * np.exp(-1j * phase * tau))


# ---------------------------------------------------------------------------
# Full step
# ---------------------------------------------------------------------------


class _Stepper:
    """Array-level step kernel; reuses multipliers while dt stays constant."""

    def __init__(self, state: SimState):
        self.grid = state.field.grid
        self.params = state.params
        self.backend = state.backend
        self.vol = self.grid.cell_volume
        self.k_sq = self.grid.k_sq
        self._half_tau = None
        self._half_mult = None
        p = state.params
        self.stark_phase = None
        if self.backend is Backend.DIRECT_POTENTIAL and p.E_norm > 0:
            phase = np.zeros(self.grid.shape)
            for xg, e in zip(self.grid.coordinate_grids, p.E):
                if e != 0.0:
                    phase = phase + e * xg
            self.stark_phase = phase
        spec0 = np.fft.fftn(state.field.data, norm="ortho")
        self.mass_ref = float(np.sum(np.abs(spec0) ** 2) * self.vol)

    def _half_kinetic_multiplier(self, dt: float) -> np.ndarray:
        if self._half_tau != dt:
            self._half_mult = np.exp(-1j * self.k_sq * (0.5 * dt))
            self._half_tau = dt
        return self._half_mult

    def advance(self, data: np.ndarray, dt: float):
        """One Strang step. Returns (data, mass_sq, grad_sq, spectrum_abs2).

        The returned diagnostics describe the post-step stored field and are
        read off the final spectrum at no extra transform cost. The post-step
        mass is rescaled onto the exact decay factor e^{-2 a dt}, repairing
        the (order round-off) unitarity defect of the FFT pair.
        """
        p = self.params
        half = self._half_kinetic_multiplier(dt)
        fh = np.fft.fftn(data, norm="ortho")
        fh *= half
        data = np.fft.ifftn(fh, norm="ortho")
        phase = _nonlinear_phase(np.abs(data), dt, p.a, p.p)
        if p.nl_strength != 1.0:
            phase *= p.nl_strength
        if self.stark_phase is not None:
            phase = phase - self.stark_phase * dt
        data *= np.exp((-p.a * dt) + 1j * phase)
        fh = np.fft.fftn(data, norm="ortho")
        fh *= half
        power = np.abs(fh) ** 2
        mass_raw = float(np.sum(power) * self.vol)
        self.mass_ref *= np.exp(-2.0 * p.a * dt)
        if mass_raw > 0.0:
            scale = np.sqrt(self.mass_ref / mass_raw)
            fh *= scale
            power *= scale * scale
            mass_sq = self.mass_ref
        else:
            mass_sq = 0.0
        grad_sq = float(np.sum(self.k_sq * power) * self.vol)
        data = np.fft.ifftn(fh, norm="ortho")
        return data, mass_sq, grad_sq, power


def strang_step(s: SimState, dt: float) -> SimState:
    """Advance one Strang step of size dt > 0.

    A non-finite result marks the returned state as diverged instead of
    raising; the caller decides how to stop.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    stepper = _Stepper(s)
    data, _, _, _ = stepper.advance(s.field.data.copy(), dt)
    new_field = Field(s.field.grid, data)
    diverged = not new_field.is_finite()
    return SimState(
        t=s.t + dt,
        field=new_field,
        params=s.params,
        backend=s.backend,
        step_count=s.step_count + 1,
        diverged=diverged,
    )


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

_BOUNDARY_SEAM_LIMIT = 1e-8   # direct-backend seam contamination threshold
_BOUNDARY_SOFT_LIMIT = 1e-10  # general interior-support advisory


def evolve(
    s: SimState,
    t_end: float,
    ctrl: StepController,
    observers: DiagnosticHooks | None = None,
) -> tuple[SimState, TrajectoryRecord]:
    """Integrate until t_end or until a stop criterion fires.

    Adaptive step dt = min(dt0, cfl_const / |grad u|^2). Stops early with
    GRAD_THRESHOLD when |grad u| exceeds ctrl.grad_stop, SPECTRAL_FILL when
    the top band holds more than ctrl.spectral_fill_max of the mass,
    DT_UNDERFLOW when dt falls below ctrl.dt_min, DIVERGED on non-finite
    samples. Observers receive the physical (transformed) field.
    """
    if not t_end > s.t:
        raise ValueError(f"t_end={t_end} must exceed current time {s.t}")
    hooks = observers if observers is not None else DiagnosticHooks()
    traj = TrajectoryRecord(params=s.params, backend=s.backend)

    grid = s.field.grid
    stepper = _Stepper(s)
    data = s.field.data.copy()
    if not np.all(np.isfinite(data.view(np.float64))):
        raise DivergedFieldError("initial field contains non-finite samples")
    t = s.t
    steps = 0
    dt_used = 0.0
    last_snap_g = None
    high_band = grid._high_band_mask

    spec_power = np.abs(np.fft.fftn(data, norm="ortho")) ** 2
    mass_sq = float(np.sum(spec_power) * grid.cell_volume)
    grad_sq = float(np.sum(grid.k_sq * spec_power) * grid.cell_volume)

    gauge_drift = s.backend is Backend.GAUGE_FRAME and s.params.E_norm > 0
    E = np.asarray(s.params.E)

    def physical_grad_sq(power):
        """|grad u|^2 of the physical field from stored-field functionals.

        In the accelerated frame (GAUGE_FRAME with E != 0), grad u picks up
        the drift term -i t E u, so |grad u|^2 = |grad phi|^2
        - 2 t E.P(phi) + t^2 |E|^2 |phi|^2 exactly; only then is the
        momentum P(phi) needed.
        """
        if not gauge_drift:
            return max(grad_sq, 0.0)
        mom = tuple(
            float(np.sum(kg * power) * grid.cell_volume)
            for kg in grid.wavenumber_grids
        )
        g_sq = (
            grad_sq
            - 2.0 * t * float(np.dot(E, mom))
            + t**2 * s.params.E_norm**2 * mass_sq
        )
        return max(g_sq, 0.0)

    def record(power, g_sq_phys, final=False):
        nonlocal last_snap_g
        g_phys = np.sqrt(g_sq_phys)
        due_sample = final or steps % hooks.sample_every_steps == 0
        due_snap = False
        if hooks.snapshots_enabled:
            if final or (
                hooks.snapshot_every_steps
                and steps % hooks.snapshot_every_steps == 0
            ):
                due_snap = True
            if hooks.snapshot_grad_factor is not None and (
                last_snap_g is None or g_phys >= last_snap_g * hooks.snapshot_grad_factor
            ):
                due_snap = True
        if not (due_sample or due_snap):
            return
        state = SimState(t=t, field=Field(grid, data.copy()), params=s.params,
                         backend=s.backend, step_count=s.step_count + steps)
        u_phys = state.observed_field()
        if due_sample:
            traj.samples.append(diagnostics.sample(u_phys, t, s.params))
            traj.dt_series.append(dt_used)
            fill_total = float(np.sum(power))
            fill = float(np.sum(power[high_band]) / fill_total) if fill_total else 0.0
            traj.fill_series.append(fill)
            bmass = boundary_mass_fraction(u_phys)
            if bmass > _BOUNDARY_SEAM_LIMIT:
                traj.warn_once("seam_contamination", t)
            elif bmass > _BOUNDARY_SOFT_LIMIT:
                traj.warn_once("boundary_mass", t)
        if due_snap:
            traj.snapshots.append(Snapshot(t=t, field=u_phys, grad_norm=g_phys))
            last_snap_g = g_phys

    while True:
        # stop checks on the current state
        if not np.isfinite(mass_sq) or not np.isfinite(grad_sq):
            traj.stop_reason = StopReason.DIVERGED
            break
        g_sq_phys = physical_grad_sq(spec_power)
        if np.sqrt(g_sq_phys) > ctrl.grad_stop:
            traj.stop_reason = StopReason.GRAD_THRESHOLD
            break
        total = float(np.sum(spec_power))
        fill = float(np.sum(spec_power[high_band]) / total) if total > 0 else 0.0
        if fill > ctrl.spectral_fill_max:
            traj.stop_reason = StopReason.SPECTRAL_FILL
            break
        if t >= t_end - 1e-12 * max(1.0, abs(t_end)):
            traj.stop_reason = StopReason.T_END
            break
        dt = min(ctrl.dt0, t_end - t)
        if g_sq_phys > 0:
            dt = min(dt, ctrl.cfl_const / g_sq_phys)
        if dt < ctrl.dt_min:
            traj.stop_reason = StopReason.DT_UNDERFLOW
            break

        record(spec_power, g_sq_phys)
        data, mass_sq, grad_sq, spec_power = stepper.advance(data, dt)
        t += dt
        steps += 1
        dt_used = dt

    record(spec_power, physical_grad_sq(spec_power), final=True)
    final_state = SimState(
        t=t,
        field=Field(grid, data),
        params=s.params,
        backend=s.backend,
        step_count=s.step_count + steps,
        diverged=traj.stop_reason is StopReason.DIVERGED,
    )
    return final_state, traj

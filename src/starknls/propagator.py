"""Strang split-step time integration with adaptive stepping near collapse.

One step of size dt advances the field by

    kinetic(dt/2) o [potential(dt) o nonlinear_damped(dt)] o kinetic(dt/2)

where the kinetic substep is the exact free flow (Fourier multiplier
exp(-i |k|^2 tau)), the nonlinear-damped substep is the exact pointwise
solution of  rho' = -a rho,  theta' = g rho^(p-1)  (so the per-step mass
contract  |u(t)| = e^{-a dt} |u(t-dt)|  holds by construction), and the
potential substep multiplies by exp(-i (E.x) tau).

Two backends handle the uniform-field term:

* GAUGE_FRAME (reference): the kernel propagates the E = 0 frame function,
  with no potential substep, and maps states into and out of that frame
  itself, so every state, sample and snapshot holds the physical field.
  Exact in E and periodic-friendly.
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
from .gauge import ah_forward_spectrum, ah_inverse
from .spectral import (
    Field,
    PhysParams,
    _cis,
    _keep_transform_scratch,
    _weighted_sum,
    boundary_mass_fraction,
    power_fill_fraction,
    power_momentum,
)
from .storage import trajectory_header


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
        if self.snapshot_every_steps < 0:  # would quietly write no snapshot
            raise ValueError(
                f"snapshot_every_steps must be >= 0, got {self.snapshot_every_steps}"
            )
        g = self.snapshot_grad_factor
        # <= 1 would snapshot every step, nan only the first and last state
        if g is not None and not (g > 1 and np.isfinite(g)):
            raise ValueError(f"snapshot_grad_factor must be finite and > 1, got {g}")

    @property
    def snapshots_enabled(self) -> bool:
        return self.snapshot_every_steps > 0 or self.snapshot_grad_factor is not None


@dataclass(frozen=True)
class SimState:
    """Propagation state: the physical field u at time t, in either backend.
    The GAUGE_FRAME backend's frame function lives only inside the kernel."""

    t: float
    field: Field
    params: PhysParams
    backend: Backend = Backend.GAUGE_FRAME
    step_count: int = 0


@dataclass(frozen=True)
class Snapshot:
    t: float
    field: Field
    grad_norm: float


@dataclass
class TrajectoryRecord:
    """Sampled diagnostics, snapshots, and the stop descriptor of one run.

    columns maps a name to one value per sample: the trajectory.csv columns
    (storage.trajectory_header), and in a live run also lp_sum and
    stark_moment, which the file does not store. A bundle's record is
    TrajectoryRecord(columns=read_trajectory_csv(path), stop_reason=...).
    """

    columns: dict[str, np.ndarray] = dc_field(default_factory=dict)
    snapshots: list = dc_field(default_factory=list)
    stop_reason: StopReason = StopReason.T_END
    warnings: list = dc_field(default_factory=list)

    @property
    def blew_up(self) -> bool:
        return self.stop_reason in BLOWUP_STOPS

    def warn_once(self, code: str, t: float) -> None:
        if not any(c == code for c, _ in self.warnings):
            self.warnings.append((code, t))


# ---------------------------------------------------------------------------
# Substeps (exact flows of the split pieces)
# ---------------------------------------------------------------------------


def _kinetic_multiplier(k_sq: np.ndarray, tau: float, out=None) -> np.ndarray:
    """Free flow over tau: exp(-i |k|^2 tau) per mode.

    k_sq is bitwise even in the last-axis wavenumber, so the phase is
    evaluated on the modes 0..N/2 of that axis and the negative ones are
    mirrored from them.
    """
    if out is None:
        out = np.empty(k_sq.shape, dtype=np.complex128)
    h = k_sq.shape[-1] // 2 + 1
    _cis(k_sq[..., :h] * -tau, out=out[..., :h])
    out[..., h:] = out[..., 1 : h - 1][..., ::-1]
    return out


def _nonlinear_factor(data, tau, a, p, nl_strength=1.0, potential=None, out=None):
    """Pointwise factor exp(-a tau + i phase) of the exact damped focusing
    flow over tau, written into out if given; the phase is the integral of
    (rho0 e^{-a s})^{p-1}. A potential (E.x) adds its phase -potential * tau."""
    phase = np.abs(data)
    if p == 5.0:
        np.square(np.square(phase, out=phase), out=phase)
    elif p == 3.0:
        np.square(phase, out=phase)
    else:
        phase = phase ** (p - 1.0)
    if a > 0.0:
        phase *= -np.expm1(-(p - 1.0) * a * tau)
        phase /= (p - 1.0) * a
    else:
        phase *= tau
    if nl_strength != 1.0:
        phase *= nl_strength
    if potential is not None:
        phase -= potential * tau
    return _cis(phase, np.exp(-a * tau), out=out)


def kinetic_substep(f: Field, tau: float) -> Field:
    """Exact free flow: every mode multiplied by exp(-i |k|^2 tau)."""
    if not f.is_finite():
        raise DivergedFieldError("field contains non-finite samples")
    fh = np.fft.fftn(f.data, norm="ortho")
    fh *= _kinetic_multiplier(f.grid.k_sq, tau)
    return Field(f.grid, np.fft.ifftn(fh, norm="ortho"))


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
    return Field(f.grid, f.data * _nonlinear_factor(f.data, tau, a, p, nl_strength))


def stark_substep_direct(f: Field, tau: float, E) -> Field:
    """Pointwise potential phase exp(-i (E.x) tau).

    Requires interior-supported data: the sawtooth coordinate makes the
    potential jump across the periodic seam.
    """
    return Field(f.grid, f.data * _cis(f.grid.linear_phase(E) * -tau))


# ---------------------------------------------------------------------------
# Full step
# ---------------------------------------------------------------------------


class _Stepper:
    """Strang kernel that keeps the field in Fourier space between steps.

    Its state is the spectrum fh taken right after the last nonlinear
    substep, plus the trailing half-kinetic flow H(dt/2) that this spectrum
    still owes: the stored field is ifft(fh * H(dt/2)). The next step
    applies the owed half and its own leading half to fh, one multiply each,
    so a step costs one inverse and one forward transform. Kinetic
    multipliers are unimodular, so |fh|^2 already gives the post-step mass,
    |grad|^2, momentum and spectral fill.

    In the accelerated frame (GAUGE_FRAME with E != 0) fh is the spectrum of
    the E = 0 frame function; __init__ maps the state in, observed() out.
    """

    def __init__(self, state: SimState):
        _keep_transform_scratch()
        self.grid = grid = state.field.grid
        self.params = state.params
        self.vol = grid.cell_volume
        self.k_sq = grid.k_sq
        E = state.params.E
        # E.x: the potential in DIRECT_POTENTIAL, the frame's phase in GAUGE_FRAME
        self.e_dot_x = grid.linear_phase(E) if state.params.E_norm > 0 else None
        self.frame = self.e_dot_x is not None and state.backend is Backend.GAUGE_FRAME
        u = ah_inverse(state.field, state.t, E) if self.frame else state.field
        self.fh = np.fft.fftn(u.data, norm="ortho")
        self._data = np.empty_like(self.fh)
        self._factor = np.empty_like(self.fh)  # the nonlinear substep's factor
        self._half = np.empty_like(self.fh)   # H(dt/2), rebuilt when dt changes
        self._half_dt = None
        self._owed = False                    # fh still owes self._half
        self.power = np.abs(self.fh) ** 2
        # buffers the observers overwrite instead of allocating per sample:
        # |u|^2 of the observed field, and every weighted sum's products
        self.density = np.empty(grid.shape)
        self.scratch = np.empty(grid.shape)
        self.mass_sq = float(np.sum(self.power) * self.vol)
        self.grad_sq = _weighted_sum(self.k_sq, self.power, self.scratch) * self.vol

    def settle(self) -> np.ndarray:
        """Apply the owed half-kinetic flow; fh is then the spectrum of the
        stored field. Returns fh, which the next step keeps using."""
        if self._owed:
            self.fh *= self._half
            self._owed = False
        return self.fh

    def step(self, dt: float) -> None:
        """One Strang step of size dt.

        The post-step mass is rescaled onto the exact decay factor
        e^{-2 a dt}, repairing the (order round-off) unitarity defect of the
        FFT pair.
        """
        p = self.params
        fh = self.settle()
        if self._half_dt != dt:
            _kinetic_multiplier(self.k_sq, 0.5 * dt, out=self._half)
            self._half_dt = dt
        fh *= self._half
        data = np.fft.ifftn(fh, norm="ortho", out=self._data)
        potential = None if self.frame else self.e_dot_x
        data *= _nonlinear_factor(data, dt, p.a, p.p, p.nl_strength, potential,
                                  out=self._factor)
        np.fft.fftn(data, norm="ortho", out=fh)
        self._owed = True
        power = np.square(np.abs(fh, out=self.power), out=self.power)
        mass_raw = float(np.sum(power) * self.vol)
        mass_ref = self.mass_sq * np.exp(-2.0 * p.a * dt)
        if mass_raw > 0.0:
            scale = np.sqrt(mass_ref / mass_raw)
            fh *= scale
            power *= scale * scale
            self.mass_sq = mass_ref
        else:
            self.mass_sq = 0.0
        self.grad_sq = _weighted_sum(self.k_sq, power, self.scratch) * self.vol

    def observed(self, t: float) -> tuple[Field, np.ndarray | None]:
        """The physical field at time t (new samples) and its power spectrum:
        the kernel's, or None in the accelerated frame, where the kernel's
        power belongs to the frame function."""
        spec = self.settle()
        if self.frame:
            u = ah_forward_spectrum(spec, self.grid, t, self.params.E, self.e_dot_x)
            return Field(self.grid, u), None
        return Field(self.grid, np.fft.ifftn(spec, norm="ortho")), self.power

    def physical_grad_sq(self, t: float) -> float:
        """|grad u|^2 of the physical field at time t from the kernel's sums.

        In the accelerated frame, grad u picks up the drift term -i t E u,
        so |grad u|^2 = |grad phi|^2 - 2 t E.P(phi) + t^2 |E|^2 |phi|^2
        exactly; only then is the momentum P(phi) needed.
        """
        if not self.frame:
            return max(self.grad_sq, 0.0)
        mom = power_momentum(self.power, self.grid, self.scratch)
        g_sq = (
            self.grad_sq
            - 2.0 * t * sum(e * m for e, m in zip(self.params.E, mom))
            + t**2 * self.params.E_norm**2 * self.mass_sq
        )
        return max(g_sq, 0.0)


def strang_step(s: SimState, dt: float) -> SimState:
    """Advance one Strang step of size dt > 0.

    A non-finite result is returned as it is, without raising; the caller
    decides how to stop.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    kernel = _Stepper(s)
    kernel.step(dt)
    return SimState(
        t=s.t + dt,
        field=kernel.observed(s.t + dt)[0],
        params=s.params,
        backend=s.backend,
        step_count=s.step_count + 1,
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
    samples. The returned state, samples and snapshots hold the physical
    field in both backends.

    The stop checks and the step size read the kernel's spectrum, so an
    unsampled step costs two transforms; a sample or snapshot costs one
    inverse transform more, and a sample in the accelerated frame one
    forward transform more (diagnostics.sample's own).
    """
    if not (t_end > s.t and np.isfinite(t_end)):
        raise ValueError(
            f"t_end={t_end} must be finite and exceed current time {s.t}"
        )
    hooks = observers if observers is not None else DiagnosticHooks()
    traj = TrajectoryRecord()

    grid = s.field.grid
    names = (*trajectory_header(grid.n), "lp_sum", "stark_moment")
    rows = []  # one tuple per sample, in the order of names
    if not s.field.is_finite():
        raise DivergedFieldError("initial field contains non-finite samples")
    kernel = _Stepper(s)
    t = s.t
    steps = 0
    dt_used = 0.0
    last_snap_g = None

    def record(g_sq_phys, fill, final=False):
        """Sample and snapshot when due; returns the observed field or None."""
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
            return None
        u_phys, power = kernel.observed(t)
        if due_sample:
            density = np.abs(u_phys.data, out=kernel.density)
            np.square(density, out=density)
            obs = diagnostics.sample(
                u_phys, t, s.params, power=power, density=density,
                scratch=kernel.scratch,
            )
            rows.append((obs.t, obs.mass_sq, obs.grad_sq, obs.e0, obs.ev,
                         *obs.momentum, obs.variance, dt_used, fill,
                         obs.lp_sum, obs.stark_moment))
            bmass = boundary_mass_fraction(u_phys, density)
            if bmass > _BOUNDARY_SEAM_LIMIT:
                traj.warn_once("seam_contamination", t)
            elif bmass > _BOUNDARY_SOFT_LIMIT:
                traj.warn_once("boundary_mass", t)
        if due_snap:
            traj.snapshots.append(Snapshot(t=t, field=u_phys, grad_norm=g_phys))
            last_snap_g = g_phys
        return u_phys

    while True:
        # stop checks on the current state
        g_sq_phys = kernel.physical_grad_sq(t)
        fill = power_fill_fraction(kernel.power, grid)
        if not np.isfinite(kernel.mass_sq) or not np.isfinite(kernel.grad_sq):
            traj.stop_reason = StopReason.DIVERGED
            break
        if np.sqrt(g_sq_phys) > ctrl.grad_stop:
            traj.stop_reason = StopReason.GRAD_THRESHOLD
            break
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

        record(g_sq_phys, fill)
        kernel.step(dt)
        t += dt
        steps += 1
        dt_used = dt

    final_field = record(g_sq_phys, fill, final=True)
    traj.columns = dict(zip(names, np.array(rows).T.copy()))
    final_state = SimState(
        t=t,
        field=final_field,
        params=s.params,
        backend=s.backend,
        step_count=s.step_count + steps,
    )
    return final_state, traj

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
self-similar collapse scale. The stop table in evolve says when a run ends.
"""

from __future__ import annotations

import contextvars
import enum
import os
from dataclasses import dataclass, field as dc_field, replace

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


class Backend(enum.Enum):
    GAUGE_FRAME = "gauge"
    DIRECT_POTENTIAL = "direct"


class StopReason(enum.Enum):
    T_END = "t_end"
    GRAD_THRESHOLD = "grad_threshold"
    SPECTRAL_FILL = "spectral_fill"
    DT_UNDERFLOW = "dt_underflow"
    DIVERGED = "diverged"


# What each stop says about the run, and the exit code of each outcome. Every
# verb reads these two tables. A new StopReason is one row in OUTCOMES, one in
# EXIT_CODES if its outcome is new, and one row of the stop table in evolve.
OUTCOMES = {
    StopReason.T_END: "global",
    StopReason.GRAD_THRESHOLD: "blowup",
    StopReason.SPECTRAL_FILL: "blowup",
    StopReason.DT_UNDERFLOW: "error",
    StopReason.DIVERGED: "error",
}
EXIT_CODES = {"global": 0, "blowup": 2, "error": 1}


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
        if not self.dt_min < self.dt0:  # the first step would end the run
            raise ValueError(f"dt_min={self.dt_min} must be below dt0={self.dt0}")
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
    """Sampled diagnostics, snapshots, and the stop rule that ended one run.

    columns maps a name to one value per sample. In a live run the names are
    the keys of diagnostics.sample's row plus dt and spectral_fill: the
    trajectory.csv columns and lp_sum and stark_moment, which the file does
    not store. A bundle's record is
    TrajectoryRecord(columns=read_trajectory_csv(path), stop_reason=...).

    stop_reason, stop_value and stop_threshold are the row of evolve's stop
    table that fired; a bundle stores only the reason, so the two read nan.
    """

    columns: dict[str, np.ndarray] = dc_field(default_factory=dict)
    snapshots: list = dc_field(default_factory=list)
    stop_reason: StopReason = StopReason.T_END
    stop_value: float = np.nan
    stop_threshold: float = np.nan
    warnings: list = dc_field(default_factory=list)

    @property
    def outcome(self) -> str:
        """global, blowup or error: the OUTCOMES row of the stop reason."""
        return OUTCOMES[self.stop_reason]

    @property
    def blew_up(self) -> bool:
        return self.outcome == "blowup"

    @property
    def stop_trigger(self) -> str:
        """The stop reason with the value that fired it and its threshold."""
        return (f"{self.stop_reason.value} ({self.stop_value:.6g} "
                f"against {self.stop_threshold:.6g})")

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
        self.scratch = np.empty(grid.shape)  # every weighted sum's products
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

    def physical_field(self, t: float, spec: np.ndarray) -> Field:
        """The physical field at time t (new samples) from a settled
        spectrum, which is left unmodified. Reads only the kernel's
        constants, so it may run next to step on a copy of fh."""
        if self.frame:
            u = ah_forward_spectrum(spec, self.grid, t, self.params.E, self.e_dot_x)
            return Field(self.grid, u)
        return Field(self.grid, np.fft.ifftn(spec, norm="ortho"))

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
    u = kernel.physical_field(s.t + dt, kernel.settle())
    return replace(s, t=s.t + dt, field=u, step_count=s.step_count + 1)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

_BOUNDARY_SEAM_LIMIT = 1e-8   # direct-backend seam contamination threshold
_BOUNDARY_SOFT_LIMIT = 1e-10  # general interior-support advisory
# From this grid size up the observer job runs next to the next step; below
# it, handing the GIL between two threads costs more than the overlapped
# transform saves (the crossover is measured in docs/DECISIONS.md).
_OVERLAP_MIN_POINTS = 2**15


def _overlaps_observers(grid) -> bool:
    """Whether evolve runs its observer jobs on a worker thread: on grids of
    at least _OVERLAP_MIN_POINTS points, in a process that may run on two or
    more CPUs (its affinity mask, which taskset narrows, where there is one)."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return grid.num_points >= _OVERLAP_MIN_POINTS and cpus >= 2


def evolve(
    s: SimState,
    t_end: float,
    ctrl: StepController,
    observers: DiagnosticHooks | None = None,
) -> tuple[SimState, TrajectoryRecord]:
    """Integrate until a stop rule fires.

    Before each step the rows (reason, measured value, threshold, fired) of
    one stop table are read in order: DIVERGED, GRAD_THRESHOLD,
    SPECTRAL_FILL, T_END, DT_UNDERFLOW. The first row that fires ends the
    run and is stored on the record. DT_UNDERFLOW reads the adaptive step
    min(dt0, cfl_const / |grad u|^2); the step is cut to end at t_end only
    after the rules. The returned state, samples and snapshots hold the
    physical field in both backends.

    The stop rules and the step size read the kernel's spectrum, so an
    unsampled step costs two transforms; a sample or snapshot costs one
    inverse transform more, and a sample in the accelerated frame one
    forward transform more (diagnostics.sample's own).

    Samples and snapshots are one observer job each, on private copies of
    the kernel's state. On large grids (_overlaps_observers) the job runs on
    one worker thread while the next steps run; at most one job is in
    flight, and its results are stored in sample order. The thread lives
    only inside this call. Either way the record holds the same bits.
    """
    if not (t_end > s.t and np.isfinite(t_end)):
        raise ValueError(
            f"t_end={t_end} must be finite and exceed current time {s.t}"
        )
    hooks = observers if observers is not None else DiagnosticHooks()
    traj = TrajectoryRecord()

    grid = s.field.grid
    rows = []  # one dict per sample, keyed by column name
    if not s.field.is_finite():
        raise DivergedFieldError("initial field contains non-finite samples")
    kernel = _Stepper(s)
    t = s.t
    steps = 0
    dt_used = 0.0
    last_snap_g = None
    # the observer job's own buffers, overwritten instead of allocated per
    # sample: |u|^2 of the observed field, and every weighted sum's products
    density, scratch = np.empty(grid.shape), np.empty(grid.shape)
    pool = None
    pending = None  # the last job (its result, or its future) and its context

    def observe(t, spec, power, due_sample):
        """The observer job: the physical field at t and, when a sample is
        due, its trajectory row and boundary-mass fraction. Reads only its
        arguments, the kernel's constants and the job's buffers."""
        u_phys = kernel.physical_field(t, spec)
        if not due_sample:
            return u_phys, None, 0.0
        np.square(np.abs(u_phys.data, out=density), out=density)
        row = diagnostics.sample(
            u_phys, t, s.params, power=power, density=density, scratch=scratch
        )
        return u_phys, row, boundary_mass_fraction(u_phys, density)

    def collect():
        """Store the last job's row, warning and snapshot; returns its field."""
        nonlocal pending
        if pending is None:
            return None
        job, (t, dt, fill, g_phys, due_snap) = pending
        pending = None
        u_phys, row, bmass = job.result() if pool else job
        if row is not None:
            rows.append(dict(row, dt=dt, spectral_fill=fill))
            if bmass > _BOUNDARY_SEAM_LIMIT:
                traj.warn_once("seam_contamination", t)
            elif bmass > _BOUNDARY_SOFT_LIMIT:
                traj.warn_once("boundary_mass", t)
        if due_snap:
            traj.snapshots.append(Snapshot(t=t, field=u_phys, grad_norm=g_phys))
        return u_phys

    def record(g_phys, fill, final=False):
        """Start the observer job when a sample or snapshot is due, after
        storing the one before it."""
        nonlocal last_snap_g, pending
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
        if due_snap:
            last_snap_g = g_phys
        collect()
        # in the accelerated frame the kernel's power belongs to the frame
        # function, and sample takes the physical field's own
        spec, power = kernel.settle(), None if kernel.frame else kernel.power
        if pool is None:
            job = observe(t, spec, power, due_sample)
        else:
            # copies, because the next step overwrites fh and power; the
            # caller's context, so that its np.errstate holds on the worker
            if power is not None:
                power = power.copy()
            job = pool.submit(contextvars.copy_context().run, observe, t,
                              spec.copy(), power, due_sample)
        pending = job, (t, dt_used, fill, g_phys, due_snap)

    if _overlaps_observers(grid):
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(1, thread_name_prefix="starknls-observer")
    try:
        while True:
            g_sq_phys = kernel.physical_grad_sq(t)
            g_phys = np.sqrt(g_sq_phys)
            fill = power_fill_fraction(kernel.power, grid)
            norm_sum = kernel.mass_sq + kernel.grad_sq
            t_stop = t_end - 1e-12 * max(1.0, abs(t_end))
            dt = ctrl.dt0
            if g_sq_phys > 0:
                dt = min(dt, ctrl.cfl_const / g_sq_phys)
            stop_rules = (  # (reason, measured value, threshold, fired), in order
                (StopReason.DIVERGED, norm_sum, np.inf, not norm_sum < np.inf),
                (StopReason.GRAD_THRESHOLD, g_phys, ctrl.grad_stop, g_phys > ctrl.grad_stop),
                (StopReason.SPECTRAL_FILL, fill, ctrl.spectral_fill_max,
                 fill > ctrl.spectral_fill_max),
                (StopReason.T_END, t, t_stop, t >= t_stop),
                (StopReason.DT_UNDERFLOW, dt, ctrl.dt_min, dt < ctrl.dt_min),
            )
            fired = next((rule[:3] for rule in stop_rules if rule[3]), None)
            if fired:
                traj.stop_reason, traj.stop_value, traj.stop_threshold = fired
                break
            dt = min(dt, t_end - t)

            record(g_phys, fill)
            kernel.step(dt)
            t += dt
            steps += 1
            dt_used = dt

        record(g_phys, fill, final=True)
        final_field = collect()
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)  # joins the worker thread
    traj.columns = {name: np.array([r[name] for r in rows]) for name in rows[0]}
    return replace(s, t=t, field=final_field, step_count=s.step_count + steps), traj

"""Scenario configuration: a strict sectioned key-value file format.

Grammar (one statement per line):

    # full-line comment
    [section]
    key = value

Unknown sections or keys are hard errors with line numbers; inline comments
are not supported (a "#" inside a value is part of the value). Vector values
(E, x0, k0, and per-axis N or L) are comma-separated. Every key has a typed
default except the required ones: scenario.id, scenario.t_end, grid.n,
grid.N, grid.L, initial.recipe.

Sections and keys:

    [scenario]   id, t_end, backend (gauge|direct)
    [grid]       n, N, L
    [physics]    a, E, p (empty = mass-critical), nl_strength
    [initial]    recipe (scaled_q | quadratic_phase_q | pseudo_conformal |
                 gaussian | snapshot), c, b, theta, T, x0, width, amplitude,
                 k0, path
    [controller] dt0, cfl, dt_min, spectral_fill_max, grad_stop
    [observers]  sample_every_steps, snapshot_every_steps, snapshot_grad_factor
    [output]     dir, write_snapshots
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ResolutionError, StarkNLSError
from .ground_state import GroundState, cached_ground_state
from .gauge import PseudoConformalParams, pseudo_conformal_profile
from .propagator import Backend, DiagnosticHooks, StepController
from .spectral import Field, GridSpec, PhysParams
from .storage import fmt_float, read_snapshot

RECIPES = ("scaled_q", "quadratic_phase_q", "pseudo_conformal", "gaussian", "snapshot")

# key -> (type tag, default); default None means required, "" means optional-empty
_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "scenario": {
        "id": ("str", None),
        "t_end": ("float", None),
        "backend": ("str", "gauge"),
    },
    "grid": {
        "n": ("int", None),
        "N": ("ints", None),
        "L": ("floats", None),
    },
    "physics": {
        "a": ("float", 0.0),
        "E": ("floats", (0.0,)),
        "p": ("optfloat", None),
        "nl_strength": ("float", 1.0),
    },
    "initial": {
        "recipe": ("str", None),
        "c": ("float", 1.0),
        "b": ("float", 1.0),
        "theta": ("float", 0.0),
        "T": ("float", 1.0),
        "x0": ("floats", (0.0,)),
        "width": ("float", 1.0),
        "amplitude": ("float", 1.0),
        "k0": ("floats", (0.0,)),
        "path": ("str", ""),
    },
    "controller": {
        "dt0": ("float", 1e-3),
        "cfl": ("float", 0.2),
        "dt_min": ("float", 1e-12),
        "spectral_fill_max": ("float", 0.1),
        "grad_stop": ("float", 1e4),
    },
    "observers": {
        "sample_every_steps": ("int", 1),
        "snapshot_every_steps": ("int", 0),
        "snapshot_grad_factor": ("optfloat", None),
    },
    "output": {
        "dir": ("str", ""),
        "write_snapshots": ("bool", False),
    },
}

_REQUIRED = [("scenario", "id"), ("scenario", "t_end"),
             ("grid", "n"), ("grid", "N"), ("grid", "L"),
             ("initial", "recipe")]


def _convert(tag: str, text: str, where: str):
    try:
        if tag == "str":
            return text
        if tag == "int":
            return int(text)
        if tag == "float":
            return float(text)
        if tag == "bool":
            low = text.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if tag == "optfloat":
            return float(text) if text != "" else None
        if tag == "floats":
            return tuple(float(v) for v in text.split(","))
        if tag == "ints":
            return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {text!r} as {tag}: {exc}") from None
    raise ConfigError(f"{where}: unknown type tag {tag}")


def _parse_sections(text: str, source: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{source}:{lineno}"
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                raise ConfigError(f"{where}: unknown section [{name}]")
            if name in sections:
                raise ConfigError(f"{where}: duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"{where}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA[current]:
            raise ConfigError(f"{where}: unknown key {key!r} in section [{current}]")
        if key in sections[current]:
            raise ConfigError(f"{where}: duplicate key {key!r} in section [{current}]")
        sections[current][key] = value
    return sections


@dataclass
class ScenarioConfig:
    """Typed scenario description; see the module docstring for the grammar."""

    scenario_id: str
    t_end: float
    backend: Backend
    n: int
    N: tuple[int, ...]
    L: tuple[float, ...]
    a: float
    E: tuple[float, ...]
    p: float | None
    nl_strength: float
    recipe: str
    recipe_params: dict = dc_field(default_factory=dict)
    dt0: float = 1e-3
    cfl: float = 0.2
    dt_min: float = 1e-12
    spectral_fill_max: float = 0.1
    grad_stop: float = 1e4
    sample_every_steps: int = 1
    snapshot_every_steps: int = 0
    snapshot_grad_factor: float | None = None
    out_dir: str = ""
    write_snapshots: bool = False

    # ---- construction -----------------------------------------------------

    @classmethod
    def from_text(cls, text: str, source: str = "<config>") -> "ScenarioConfig":
        raw = _parse_sections(text, source)
        values: dict[tuple[str, str], object] = {}
        for section, keys in _SCHEMA.items():
            got = raw.get(section, {})
            for key, (tag, default) in keys.items():
                if key in got:
                    values[(section, key)] = _convert(
                        tag, got[key], f"{source}: [{section}] {key}"
                    )
                else:
                    values[(section, key)] = default
        for section, key in _REQUIRED:
            if values[(section, key)] is None:
                raise ConfigError(f"{source}: missing required key [{section}] {key}")

        backend_text = values[("scenario", "backend")]
        try:
            backend = Backend(backend_text)
        except ValueError:
            raise ConfigError(
                f"{source}: [scenario] backend must be 'gauge' or 'direct', "
                f"got {backend_text!r}"
            ) from None
        recipe = values[("initial", "recipe")]
        if recipe not in RECIPES:
            raise ConfigError(
                f"{source}: [initial] recipe must be one of {RECIPES}, got {recipe!r}"
            )
        recipe_params = {
            k: values[("initial", k)]
            for k in ("c", "b", "theta", "T", "x0", "width", "amplitude", "k0", "path")
        }
        cfg = cls(
            scenario_id=values[("scenario", "id")],
            t_end=values[("scenario", "t_end")],
            backend=backend,
            n=values[("grid", "n")],
            N=values[("grid", "N")],
            L=values[("grid", "L")],
            a=values[("physics", "a")],
            E=values[("physics", "E")],
            p=values[("physics", "p")],
            nl_strength=values[("physics", "nl_strength")],
            recipe=recipe,
            recipe_params=recipe_params,
            dt0=values[("controller", "dt0")],
            cfl=values[("controller", "cfl")],
            dt_min=values[("controller", "dt_min")],
            spectral_fill_max=values[("controller", "spectral_fill_max")],
            grad_stop=values[("controller", "grad_stop")],
            sample_every_steps=values[("observers", "sample_every_steps")],
            snapshot_every_steps=values[("observers", "snapshot_every_steps")],
            snapshot_grad_factor=values[("observers", "snapshot_grad_factor")],
            out_dir=values[("output", "dir")],
            write_snapshots=values[("output", "write_snapshots")],
        )
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read config ({exc.strerror})") from None
        return cls.from_text(text, source=str(path))

    def apply_overrides(self, assignments: list[str]) -> "ScenarioConfig":
        """Apply 'section.key=value' command-line overrides and revalidate."""
        text = self.to_text()
        raw = _parse_sections(text, "<echo>")
        for item in assignments:
            head, _, value = item.partition("=")
            section, _, key = head.partition(".")
            section = section.strip()
            key = key.strip()
            if section not in _SCHEMA or key not in _SCHEMA[section]:
                raise ConfigError(f"--set {item!r}: unknown option {section}.{key}")
            raw.setdefault(section, {})[key] = value.strip()
        lines = []
        for section in _SCHEMA:
            if section not in raw:
                continue
            lines.append(f"[{section}]")
            lines.extend(f"{k} = {v}" for k, v in raw[section].items())
        return ScenarioConfig.from_text("\n".join(lines), "<override>")

    # ---- derived objects ----------------------------------------------------

    def grid(self) -> GridSpec:
        return GridSpec(n=self.n, shape=self.N, half_widths=self.L)

    def phys_params(self) -> PhysParams:
        return PhysParams(
            n=self.n, a=self.a, E=self.E, p=self.p, nl_strength=self.nl_strength
        )

    def controller(self) -> StepController:
        return StepController(
            dt0=self.dt0,
            cfl_const=self.cfl,
            dt_min=self.dt_min,
            spectral_fill_max=self.spectral_fill_max,
            grad_stop=self.grad_stop,
        )

    def hooks(self) -> DiagnosticHooks:
        return DiagnosticHooks(
            sample_every_steps=self.sample_every_steps,
            snapshot_every_steps=self.snapshot_every_steps,
            snapshot_grad_factor=self.snapshot_grad_factor,
        )

    def needs_ground_state(self) -> bool:
        return self.recipe in ("scaled_q", "quadratic_phase_q", "pseudo_conformal")

    # ---- validation ---------------------------------------------------------

    def validate(self) -> None:
        try:
            grid = self.grid()        # grid invariants
            self.phys_params()        # parameter invariants
            self.controller()
            self.hooks()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not (self.t_end > 0 and np.isfinite(self.t_end)):
            raise ConfigError(
                f"[scenario] t_end must be positive and finite, got {self.t_end}"
            )
        rp = self.recipe_params
        for key in ("x0", "k0"):
            if len(rp[key]) not in (1, self.n):
                raise ConfigError(f"[initial] {key} has {len(rp[key])} "
                                  f"components; need 1 or n = {self.n}")
        dx = max(grid.dx)
        if self.needs_ground_state() and dx >= 0.2:
            raise ConfigError(
                f"[grid] dx={dx:.3f} too coarse for ground-state recipes (need < 0.2)"
            )
        if self.recipe == "quadratic_phase_q":
            # local wavenumber of the quadratic phase at the box edge
            k_edge = abs(rp["b"]) * max(grid.half_widths) / 2.0
            if k_edge > 0.5 * min(grid.nyquist):
                raise ConfigError(
                    f"[initial] b={rp['b']}: phase wavenumber {k_edge:.1f} at the box "
                    f"edge exceeds half the Nyquist wavenumber {min(grid.nyquist):.1f}"
                )
        if self.recipe == "pseudo_conformal":
            if rp["T"] < 8.0 * dx:
                raise ConfigError(
                    f"[initial] T={rp['T']}: profile width below 8 dx = {8 * dx:.4g}"
                )
        if self.recipe == "gaussian" and rp["width"] < 2.0 * dx:
            raise ConfigError(
                f"[initial] width={rp['width']} below 2 dx = {2 * dx:.4g}"
            )
        if self.recipe == "snapshot":
            if not rp["path"]:
                raise ConfigError("[initial] recipe snapshot requires a path")

    # ---- initial data -------------------------------------------------------

    def ground_state(self) -> GroundState:
        """Ground state on this scenario's grid (memoized globally)."""
        if len(set(self.N)) != 1 or len(set(self.L)) != 1:
            raise ConfigError("ground-state recipes require an isotropic grid")
        return cached_ground_state(self.n, N=self.N[0], L=self.L[0])

    def build_initial_field(self) -> Field:
        grid = self.grid()
        rp = self.recipe_params
        x0 = np.broadcast_to(np.asarray(rp["x0"], dtype=float), (self.n,))
        if self.recipe == "snapshot":
            try:
                u0 = read_snapshot(rp["path"])
            except StarkNLSError as exc:
                raise ConfigError(f"[initial] snapshot: {exc}") from None
            if u0.grid != grid:
                raise ConfigError(
                    f"[initial] snapshot grid {u0.grid!r} does not match [grid] {grid!r}"
                )
            return u0
        if self.recipe == "pseudo_conformal":
            gs = self.ground_state()
            pc = PseudoConformalParams(
                theta=rp["theta"], T=rp["T"], x0=tuple(x0), t=0.0
            )
            try:
                return pseudo_conformal_profile(grid, pc, gs)
            except ResolutionError as exc:
                raise ConfigError(f"[initial] {exc}") from None

        if self.recipe == "gaussian":
            r_sq = grid.distance_sq(x0)
            envelope = rp["amplitude"] * np.exp(-r_sq / (2.0 * rp["width"] ** 2))
            return Field(grid, envelope * np.exp(1j * grid.linear_phase(rp["k0"])))
        gs = self.ground_state()
        base = rp["c"] * gs.profile.data.real
        if self.recipe == "scaled_q":
            return Field(grid, base.astype(np.complex128))
        # quadratic_phase_q: inward quadratic phase exp(-i b |x-x0|^2 / 4)
        return Field(grid, base * np.exp(-1j * rp["b"] * grid.distance_sq(x0) / 4.0))

    # ---- canonical serialization ---------------------------------------------

    def to_text(self) -> str:
        """Canonical echo with every effective value materialized; parsing it
        reproduces this configuration exactly."""

        def fmt(tag, value):
            if value is None:
                return ""
            if tag in ("floats",):
                return ",".join(fmt_float(v) for v in value)
            if tag in ("ints",):
                return ",".join(str(v) for v in value)
            if tag in ("float", "optfloat"):
                return fmt_float(value)
            if tag == "bool":
                return "true" if value else "false"
            return str(value)

        current = {
            ("scenario", "id"): self.scenario_id,
            ("scenario", "t_end"): self.t_end,
            ("scenario", "backend"): self.backend.value,
            ("grid", "n"): self.n,
            ("grid", "N"): self.N,
            ("grid", "L"): self.L,
            ("physics", "a"): self.a,
            ("physics", "E"): self.E,
            ("physics", "p"): self.p,
            ("physics", "nl_strength"): self.nl_strength,
            ("initial", "recipe"): self.recipe,
            **{("initial", k): v for k, v in self.recipe_params.items()},
            ("controller", "dt0"): self.dt0,
            ("controller", "cfl"): self.cfl,
            ("controller", "dt_min"): self.dt_min,
            ("controller", "spectral_fill_max"): self.spectral_fill_max,
            ("controller", "grad_stop"): self.grad_stop,
            ("observers", "sample_every_steps"): self.sample_every_steps,
            ("observers", "snapshot_every_steps"): self.snapshot_every_steps,
            ("observers", "snapshot_grad_factor"): self.snapshot_grad_factor,
            ("output", "dir"): self.out_dir,
            ("output", "write_snapshots"): self.write_snapshots,
        }
        lines = []
        for section, keys in _SCHEMA.items():
            lines.append(f"[{section}]")
            for key, (tag, _) in keys.items():
                lines.append(f"{key} = {fmt(tag, current[(section, key)])}")
            lines.append("")
        return "\n".join(lines)

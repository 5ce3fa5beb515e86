"""Scenario configuration: a strict sectioned key-value file format.

Grammar (one statement per line):

    # full-line comment
    [section]
    key = value

Unknown sections or keys are hard errors with line numbers; inline comments
are not supported (a "#" inside a value is part of the value). Vector values
(N, L, E, x0, k0) are comma-separated and take one component, used on every
axis, or n; any other length fails naming the key. A vector is kept as
written, so the echo repeats it. Every key has a typed default except the
required ones: scenario.id, scenario.t_end, grid.n, grid.N, grid.L,
initial.recipe.

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

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ResolutionError, StarkNLSError
from .ground_state import MAX_RESOLVED_DX, GroundState, cached_ground_state
from .gauge import PseudoConformalParams, pseudo_conformal_profile
from .propagator import Backend, DiagnosticHooks, StepController
from .spectral import Field, GridSpec, PhysParams, _as_tuple
from .storage import fmt_float, read_snapshot

RECIPES = ("scaled_q", "quadratic_phase_q", "pseudo_conformal", "gaussian", "snapshot")


def _one_of(choices, make=str):
    def parse(text):
        if text not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}")
        return make(text)
    return parse


def _bool(text):
    low = text.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# type tag -> (parse the value text, write it back)
_TAGS = {
    "str": (str, str),
    "int": (int, str),
    "float": (float, fmt_float),
    "optfloat": (lambda t: float(t) if t else None,
                 lambda v: "" if v is None else fmt_float(v)),
    "bool": (_bool, lambda v: "true" if v else "false"),
    "floats": (lambda t: tuple(float(v) for v in t.split(",")),
               lambda v: ",".join(map(fmt_float, v))),
    "ints": (lambda t: tuple(int(v) for v in t.split(",")),
             lambda v: ",".join(map(str, v))),
    "backend": (_one_of(tuple(b.value for b in Backend), Backend),
                lambda v: v.value),
    "recipe": (_one_of(RECIPES), str),
}

_MUST_SET = object()  # the default of a key that every config sets

# section -> key -> (type tag, default). A key names its ScenarioConfig field,
# apart from _FIELDS below and the [initial] keys other than recipe, which
# fill recipe_params.
_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "scenario": {
        "id": ("str", _MUST_SET),
        "t_end": ("float", _MUST_SET),
        "backend": ("backend", Backend.GAUGE_FRAME),
    },
    "grid": {
        "n": ("int", _MUST_SET),
        "N": ("ints", _MUST_SET),
        "L": ("floats", _MUST_SET),
    },
    "physics": {
        "a": ("float", PhysParams.a),
        "E": ("floats", PhysParams.E),
        "p": ("optfloat", PhysParams.p),
        "nl_strength": ("float", PhysParams.nl_strength),
    },
    "initial": {
        "recipe": ("recipe", _MUST_SET),
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
        "dt0": ("float", StepController.dt0),
        "cfl": ("float", StepController.cfl_const),
        "dt_min": ("float", StepController.dt_min),
        "spectral_fill_max": ("float", StepController.spectral_fill_max),
        "grad_stop": ("float", StepController.grad_stop),
    },
    "observers": {
        "sample_every_steps": ("int", DiagnosticHooks.sample_every_steps),
        "snapshot_every_steps": ("int", DiagnosticHooks.snapshot_every_steps),
        "snapshot_grad_factor": ("optfloat", DiagnosticHooks.snapshot_grad_factor),
    },
    "output": {
        "dir": ("str", ""),
        "write_snapshots": ("bool", False),
    },
}
_FIELDS = {"id": "scenario_id", "dir": "out_dir"}


def _in_recipe_params(section: str, key: str) -> bool:
    return section == "initial" and key != "recipe"


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
    """Typed scenario description; see the module docstring for the grammar.
    Built by from_text, from_file and apply_overrides, which take every
    default from _SCHEMA."""

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
    recipe_params: dict
    dt0: float
    cfl: float
    dt_min: float
    spectral_fill_max: float
    grad_stop: float
    sample_every_steps: int
    snapshot_every_steps: int
    snapshot_grad_factor: float | None
    out_dir: str
    write_snapshots: bool

    # ---- construction -----------------------------------------------------

    @classmethod
    def from_text(cls, text: str, source: str = "<config>") -> "ScenarioConfig":
        return cls._from_sections(_parse_sections(text, source), source)

    @classmethod
    def _from_sections(cls, raw: dict[str, dict[str, str]], source: str):
        """The validated config of the value texts in raw, section by section."""
        fields: dict = {"recipe_params": {}}
        for section, keys in _SCHEMA.items():
            got = raw.get(section, {})
            for key, (tag, default) in keys.items():
                if key in got:
                    try:
                        value = _TAGS[tag][0](got[key])
                    except ValueError as exc:
                        raise ConfigError(
                            f"{source}: [{section}] {key}: cannot parse "
                            f"{got[key]!r} as {tag}: {exc}"
                        ) from None
                elif default is _MUST_SET:
                    raise ConfigError(f"{source}: missing required key [{section}] {key}")
                else:
                    value = default
                if _in_recipe_params(section, key):
                    fields["recipe_params"][key] = value
                else:
                    fields[_FIELDS.get(key, key)] = value
        cfg = cls(**fields)
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
        raw = self._sections()
        for item in assignments:
            head, _, value = item.partition("=")
            section, _, key = head.partition(".")
            section = section.strip()
            key = key.strip()
            if section not in _SCHEMA or key not in _SCHEMA[section]:
                raise ConfigError(f"--set {item!r}: unknown option {section}.{key}")
            value = value.strip()
            if len(value.splitlines()) > 1:  # the echo could not hold it
                raise ConfigError(f"--set {item!r}: the value spans several lines")
            raw[section][key] = value
        return self._from_sections(raw, "<override>")

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
        for section, keys in _SCHEMA.items():
            for key, (tag, _) in keys.items():
                if tag not in ("ints", "floats"):
                    continue
                count = len(self._get(section, key))
                if count not in (1, self.n):
                    raise ConfigError(f"[{section}] {key} has {count} "
                                      f"components; need 1 or n = {self.n}")
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
        for key, (tag, _) in _SCHEMA["initial"].items():
            if tag in ("float", "floats") and not np.all(np.isfinite(rp[key])):
                raise ConfigError(f"[initial] {key} must be finite, got {rp[key]}")
        dx = max(grid.dx)
        if self.needs_ground_state() and dx >= MAX_RESOLVED_DX:
            raise ConfigError(f"[grid] dx={dx:.3f} too coarse for ground-state "
                              f"recipes (need < {MAX_RESOLVED_DX})")
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
        x0 = _as_tuple(rp["x0"], self.n, float)
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
                theta=rp["theta"], T=rp["T"], x0=x0, t=0.0
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

    def _get(self, section: str, key: str):
        if _in_recipe_params(section, key):
            return self.recipe_params[key]
        return getattr(self, _FIELDS.get(key, key))

    def _sections(self) -> dict[str, dict[str, str]]:
        """Every key's value as text, section by section."""
        return {
            section: {key: _TAGS[tag][1](self._get(section, key))
                      for key, (tag, _) in keys.items()}
            for section, keys in _SCHEMA.items()
        }

    def to_text(self) -> str:
        """Canonical echo with every effective value materialized; parsing it
        reproduces this configuration exactly."""
        lines = []
        for section, values in self._sections().items():
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {text}" for key, text in values.items())
            lines.append("")
        return "\n".join(lines)

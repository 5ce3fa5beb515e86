"""Property tests (hypothesis) of the pointwise kernels and the boundaries.

The unit phase _cis is evaluated by the half-angle tangent, so it is checked
against numpy's cos and sin with a fixed error bound instead of bit for bit;
one Strang step must still multiply the mass by exactly e^{-2a dt}. The
config echo and overrides, and the snapshot file, must round-trip exactly;
a truncated snapshot must fail with StarkNLSError; the accelerated-frame
maps must invert each other on band-limited data.
"""

import dataclasses
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from starknls import (
    Backend,
    Field,
    GridSpec,
    PhysParams,
    ScenarioConfig,
    SimState,
    ah_forward,
    ah_inverse,
    l2_norm_sq,
)
from starknls.config import RECIPES
from starknls.errors import ConfigError, StarkNLSError
from starknls.ground_state import MAX_RESOLVED_DX
from starknls.propagator import _Stepper
from starknls.spectral import _cis
from starknls.storage import read_snapshot, write_snapshot

from conftest import random_band_limited_field

EPS = np.finfo(float).eps
CIS_BOUND = 4.0  # per part, in units of eps * scale

# (0, 1], kept where the bound 4 eps scale is itself a normal number
scales = st.floats(min_value=2.0**-500, max_value=1.0)
phases = hnp.arrays(
    np.float64, st.integers(1, 64), elements=st.floats(-1e9, 1e9)
)


def assert_cis_within_bound(theta, scale):
    z = _cis(theta, scale)
    tol = CIS_BOUND * EPS * scale
    assert np.all(np.abs(z.real - scale * np.cos(theta)) <= tol)
    assert np.all(np.abs(z.imag - scale * np.sin(theta)) <= tol)


class TestUnitPhase:
    @settings(max_examples=300)
    @given(phases, scales)
    def test_within_four_eps_of_cos_and_sin(self, theta, scale):
        assert_cis_within_bound(theta, scale)

    @settings(max_examples=300)
    @given(st.integers(-159_000_000, 159_000_000), st.integers(-8, 8), scales)
    def test_next_to_odd_multiples_of_pi(self, k, ulps, scale):
        # tan(theta/2) is at its largest here: the real part is d - scale
        # with d = 2 scale / (1 + t^2) tiny
        theta = np.float64((2 * k + 1) * np.pi)
        for _ in range(abs(ulps)):
            theta = np.nextafter(theta, np.copysign(np.inf, ulps))
        assert_cis_within_bound(np.array([theta]), scale)

    @given(phases, scales, st.data())
    def test_non_finite_phase_gives_non_finite_output(self, theta, scale, data):
        bad = data.draw(st.integers(0, theta.size - 1))
        theta[bad] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        with np.errstate(invalid="ignore"):
            z = _cis(theta, scale)
        assert not np.isfinite(z.real[bad]) and not np.isfinite(z.imag[bad])
        good = np.isfinite(theta)
        assert np.all(np.isfinite(z.view(np.float64).reshape(-1, 2)[good]))


GRIDS = (GridSpec.create(1, 20.0, 256), GridSpec.create(2, (8.0, 6.0), (32, 16)))


class TestStepMass:
    @settings(max_examples=40, deadline=None)
    @given(
        grid=st.sampled_from(GRIDS),
        seed=st.integers(0, 2**32 - 1),
        amplitude=st.floats(0.1, 3.0),
        a=st.floats(0.0, 2.0),
        dt=st.floats(1e-6, 0.05),
        E=st.floats(-1.0, 1.0),
        backend=st.sampled_from(list(Backend)),
    )
    def test_one_step_multiplies_mass_by_exact_decay(
        self, grid, seed, amplitude, a, dt, E, backend
    ):
        f = random_band_limited_field(grid, modes=4, seed=seed)
        data = amplitude * f.data / np.sqrt(l2_norm_sq(f))
        params = PhysParams(n=grid.n, a=a, E=(E,) * grid.n)
        state = SimState(t=0.0, field=Field(grid, data), params=params, backend=backend)
        kernel = _Stepper(state)
        kernel.step(dt)
        mass = l2_norm_sq(kernel.physical_field(dt, kernel.settle()))
        expected = l2_norm_sq(state.field) * np.exp(-2.0 * a * dt)
        assert mass == pytest.approx(expected, rel=1e-14)


# ---------------------------------------------------------------------------
# Config echo and overrides
# ---------------------------------------------------------------------------

# a value is one line of a config file: no line break, no outer whitespace
# (the parser strips both ends), no surrogate
line_text = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=12
).map(str.strip)
finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_nan=False)
positive_finite = positive.filter(np.isfinite)


def float_text(values):
    return values.map(repr)


def vector_text(values, *sizes):
    return st.one_of(*(
        st.lists(values, min_size=k, max_size=k).map(lambda v: ",".join(map(repr, v)))
        for k in sizes
    ))


@st.composite
def config_texts(draw):
    """The text of a config file that sets every key, with any value the
    parser accepts for it; values that couple keys (the grid spacing, a
    Gaussian's width, dt_min below dt0) are drawn to pass validation."""
    n = draw(st.integers(1, 3))
    # a per-axis vector has one component (used on every axis) or n
    counts = st.sampled_from(sorted({1, n}))
    count = draw(counts)
    N = draw(st.lists(st.integers(1, 12).map(lambda k: 2**k),
                      min_size=count, max_size=count))
    recipe = draw(st.sampled_from(RECIPES))
    # the spacing 2 L / N must be positive and finite, and below
    # MAX_RESOLVED_DX for the ground-state recipes; a one-component L
    # spans every axis's N
    needs_q = recipe in ("scaled_q", "quadratic_phase_q", "pseudo_conformal")
    dx_max = MAX_RESOLVED_DX if needs_q else np.inf
    axes = N * n if count == 1 else N
    spans = [axes] if draw(counts) == 1 else [[k] for k in axes]
    L = [draw(positive_finite.filter(
            lambda h, ks=ks: all(0 < 2.0 * h / k < dx_max for k in ks)))
         for ks in spans]
    dx = max(2.0 * h / k for h, ks in zip(L, spans) for k in ks)
    dt0 = draw(positive.filter(lambda v: v > np.nextafter(0.0, 1.0)))
    values = {
        "scenario": {
            "id": line_text,
            "t_end": float_text(positive_finite),
            "backend": st.sampled_from(["gauge", "direct"]),
        },
        "grid": {
            "n": st.just(str(n)),
            "N": st.just(",".join(map(str, N))),
            "L": st.just(",".join(map(repr, L))),
        },
        "physics": {
            "a": float_text(st.floats(min_value=0.0, allow_infinity=False)),
            "E": vector_text(finite, 1, n),
            "p": st.just("") | float_text(
                st.floats(min_value=1.0, exclude_min=True, allow_infinity=False)
            ),
            "nl_strength": float_text(finite),
        },
        "initial": {
            "recipe": st.just(recipe),
            **{k: float_text(finite) for k in ("c", "b", "theta", "T")},
            # a Gaussian recipe's width must span 2 dx
            "width": float_text(finite.filter(
                lambda w: recipe != "gaussian" or not w < 2.0 * dx
            )),
            "amplitude": float_text(finite),
            "x0": vector_text(finite, 1, n),
            "k0": vector_text(finite, 1, n),
            "path": line_text.filter(bool) if recipe == "snapshot" else line_text,
        },
        "controller": {
            "dt0": st.just(repr(dt0)),
            "cfl": float_text(positive_finite),
            "dt_min": float_text(
                st.floats(0.0, dt0, exclude_min=True, exclude_max=True)
            ),
            "spectral_fill_max": float_text(
                st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
            ),
            "grad_stop": float_text(positive_finite),
        },
        "observers": {
            "sample_every_steps": st.integers(min_value=1).map(str),
            "snapshot_every_steps": st.integers(min_value=0).map(str),
            "snapshot_grad_factor": st.just("") | float_text(
                st.floats(min_value=1.0, exclude_min=True, allow_infinity=False)
            ),
        },
        "output": {
            "dir": line_text,
            "write_snapshots": st.sampled_from(["true", "false", "1", "no"]),
        },
    }
    lines = []
    for section, keys in values.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {draw(value)}" for key, value in keys.items())
    return "\n".join(lines) + "\n"


def parse_valid(text):
    """The config of a text, or reject the example if validation refuses it
    (a recipe whose grid is too coarse, for instance)."""
    try:
        return ScenarioConfig.from_text(text)
    except ConfigError:
        assume(False)


def exact(value):
    """A comparable form of a config value: every float by its bits, so nan
    equals nan and -0.0 differs from 0.0."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, tuple):
        return tuple(exact(v) for v in value)
    if isinstance(value, dict):
        return {k: exact(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value):
        return {f.name: exact(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    return (type(value), value)


# every key at a value the one below does not hold
OVERRIDE_BASE = """
[scenario]
id = base
t_end = 0.3
[grid]
n = 3
N = 2,2,2
L = 0.1,0.1,0.1
[physics]
E = 0.5,0.5,0.5
[initial]
recipe = gaussian
"""


class TestConfigRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(config_texts())
    def test_echo_reparses_exactly(self, text):
        cfg = parse_valid(text)
        again = ScenarioConfig.from_text(cfg.to_text())
        assert exact(again) == exact(cfg)
        assert again.to_text() == cfg.to_text()

    @settings(max_examples=60, deadline=None)
    @given(config_texts())
    def test_overrides_set_every_key_exactly(self, text):
        target = parse_valid(text)
        assignments = []
        section = None
        for line in target.to_text().splitlines():
            if line.startswith("["):
                section = line[1:-1]
            elif line:
                key, _, value = line.partition(" = ")
                assignments.append(f"{section}.{key}={value}")
        base = ScenarioConfig.from_text(OVERRIDE_BASE)
        assert exact(base.apply_overrides(assignments)) == exact(target)


# ---------------------------------------------------------------------------
# Snapshot files
# ---------------------------------------------------------------------------


@st.composite
def fields(draw):
    n = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 4).map(lambda k: 2**k)) for _ in range(n))
    half_widths = tuple(draw(positive_finite) for _ in range(n))
    try:
        grid = GridSpec(n=n, shape=shape, half_widths=half_widths)
    except ValueError:  # the spacing 2L/N underflows or overflows
        assume(False)
    data = draw(hnp.arrays(np.complex128, shape, elements=st.complex_numbers()))
    return Field(grid, data)


def snapshot_bytes(field):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.dnls")
        write_snapshot(path, field)
        with open(path, "rb") as fh:
            return fh.read()


def read_snapshot_bytes(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.dnls")
        with open(path, "wb") as fh:
            fh.write(raw)
        return read_snapshot(path)


class TestSnapshotFile:
    @settings(max_examples=100, deadline=None)
    @given(fields())
    def test_round_trip_is_bit_exact(self, field):
        back = read_snapshot_bytes(snapshot_bytes(field))
        assert back.grid == field.grid
        assert back.data.tobytes() == field.data.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(fields(), st.data())
    def test_truncation_at_any_byte_fails_cleanly(self, field, data):
        raw = snapshot_bytes(field)
        cut = data.draw(st.integers(0, len(raw) - 1))
        with pytest.raises(StarkNLSError):
            read_snapshot_bytes(raw[:cut])


# ---------------------------------------------------------------------------
# Accelerated-frame maps
# ---------------------------------------------------------------------------


# The maps are exact for data that stays band-limited and off the periodic
# seam through the boost t E and the shift t^2 E (gauge module docstring).
# Each grid leaves that room for |t| <= 2.5 and |E_i| <= 1: the envelope
# (width w) is below 1e-13 of its peak beyond 7.7 w, and L - 7.7 w exceeds
# the largest shift 6.25; the boost keeps the spectrum inside pi / dx. On a
# box without that margin (64^2 on [-8, 8)^2, w = 1, t = 1, E = (0, 1)) the
# seam alone costs 1.4e-12.
FRAME_GRIDS = (
    (GridSpec.create(1, 40.0, 512), 2.5),
    (GridSpec.create(2, 16.0, 128), 1.0),
)


class TestFrameRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        grid_width=st.sampled_from(FRAME_GRIDS),
        seed=st.integers(0, 2**32 - 1),
        t=st.floats(-2.5, 2.5),
        E=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
    )
    def test_inverse_undoes_forward(self, grid_width, seed, t, E):
        grid, width = grid_width
        f = random_band_limited_field(grid, modes=4, seed=seed, envelope_width=width)
        E = E[: grid.n]
        back = ah_inverse(ah_forward(f, t, E), t, E)
        err = l2_norm_sq(Field(grid, back.data - f.data))
        assert np.sqrt(err / l2_norm_sq(f)) <= 1e-12

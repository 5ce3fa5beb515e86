"""Property tests (hypothesis) of the pointwise kernels.

The unit phase _cis is evaluated by the half-angle tangent, so it is checked
against numpy's cos and sin with a fixed error bound instead of bit for bit;
one Strang step must still multiply the mass by exactly e^{-2a dt}.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from starknls import Backend, Field, GridSpec, PhysParams, SimState, l2_norm_sq
from starknls.propagator import _Stepper
from starknls.spectral import _cis

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
        mass = l2_norm_sq(Field(grid, kernel.field_data()))
        expected = l2_norm_sq(state.field) * np.exp(-2.0 * a * dt)
        assert mass == pytest.approx(expected, rel=1e-14)

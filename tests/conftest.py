import os
from pathlib import Path

import numpy as np
import pytest

import starknls
from starknls import GridSpec, Field, cached_ground_state


def child_env() -> dict:
    """Environment for a child interpreter that imports the starknls under
    test, installed or not."""
    src = str(Path(starknls.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + rest if rest else "")}


@pytest.fixture(scope="session")
def grid_1d():
    return GridSpec.create(1, 20.0, 1024)


@pytest.fixture(scope="session")
def gs_1d(grid_1d):
    return cached_ground_state(1, N=1024, L=20.0)


def random_band_limited_field(grid, modes=32, seed=0, envelope_width=None):
    """Smooth random field: a few low Fourier modes under a Gaussian envelope.

    The default envelope leaves less than 1e-14 relative amplitude at the
    periodic seam, so the field is interior-supported for transform and
    potential tests."""
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(grid.shape, dtype=complex)
    idx = tuple(slice(0, modes) for _ in range(grid.n))
    coeffs[idx] = rng.normal(size=(modes,) * grid.n) + 1j * rng.normal(
        size=(modes,) * grid.n
    )
    neg = tuple(slice(-modes, None) for _ in range(grid.n))
    coeffs[neg] += rng.normal(size=(modes,) * grid.n) + 1j * rng.normal(
        size=(modes,) * grid.n
    )
    data = np.fft.ifftn(coeffs, norm="ortho")
    width = envelope_width if envelope_width else min(grid.half_widths) / 8.0
    data = data * np.exp(-grid.radius_sq / (2.0 * width**2))
    return Field(grid, data)


REAL_FFTS = ("rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")
COMPLEX_FFTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")


@pytest.fixture
def fft_calls(monkeypatch):
    """Calls per numpy.fft transform made while the test runs, by name."""
    calls = dict.fromkeys(REAL_FFTS + COMPLEX_FFTS, 0)

    def counted(name):
        fn = getattr(np.fft, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(np.fft, name, counted(name))
    return calls

"""Workload definitions and the inputs each seed draws.

Both the pass that runs the program (``workload.py``) and the checker
(``checks.py``) import this module, so they agree on the inputs without the
checker asking the program for them. Only numpy is used here.

A seed moves every workload within a small neighbourhood of its acceptance
scenario:

* collapse_1d, stark_global_1d: a band-limited perturbation of the initial
  data, eta(x) = sum_j z_j (x/s)^j exp(-x^2 / (2 s^2)) with s = 1.5,
  j = 0..4 and complex normal z_j, scaled to 1e-3 of ||Q||_2. It is added to
  the recipe's field and loaded through the ``snapshot`` recipe.
* threshold_sweep_1d: the quadratic-phase strength b and the field E, each
  within 1% of the scenario (the sweep overrides ``initial.c``, which the
  snapshot recipe would ignore).
* ground_state_3d: the width of the Gaussian that seeds the Petviashvili
  iteration, within 5% of 1.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("collapse_1d", "stark_global_1d", "ground_state_3d", "threshold_sweep_1d")

# squared L2 norm of the 1D ground state 3^(1/4) sech^(1/2)(2x): sqrt(3) pi / 2
Q1_MASS_SQ = np.sqrt(3.0) * np.pi / 2.0

PERTURBATION_SIZE = 1e-3      # ||eta||_2 / ||Q||_2
PERTURBATION_WIDTH = 1.5
PERTURBATION_DEGREE = 4

COLLAPSE = dict(c=1.2, b=1.0, a=0.01, N=65536, L=13.0, grad_stop=2000.0,
                snapshot_grad_factor=1.3)
STARK = dict(c=0.9, a=0.1, E=0.3, N=4096, L=40.0, t_end=10.0, sample_every=5)
# grad_stop: |grad u| <= k_max ||u|| ~ 1.8e3 on this grid, so the default 1e4
# can never fire; 250 stops at the collapse scale (in grid cells) at which
# collapse_1d stops with 2000 on its 8x finer grid.
# parallelism: on a shared 2-core host, 2 threads took 6.1-8.4 s a pass
# (steal time up to 10%) against 8.9-9.4 s serially; only the serial wall
# time holds a 25% bound.
SWEEP = dict(c_values=("0.8", "0.9", "1.1", "1.2"), a=0.01, E=0.3, b=1.0,
             N=8192, L=13.0, t_end=1.0, grad_stop=250.0, parallelism=1)
# 64^3 on [-6.25, 6.25)^3 (dx = 0.195, the solver needs dx < 0.2): a pass of
# the default 128^3 grid takes 42-45 s, which leaves no room for repeats
GROUND_STATE_3D = dict(N=64, L=6.25)


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) % 2**63, WORKLOADS.index(workload)])


def grid_x(N: int, L: float) -> np.ndarray:
    """Sample points of the periodic box [-L, L), as the program lays them out."""
    return -L + (2.0 * L / N) * np.arange(N)


def q1_exact(x: np.ndarray) -> np.ndarray:
    return 3.0**0.25 / np.sqrt(np.cosh(2.0 * x))


def perturbation(workload: str, seed: int, x: np.ndarray) -> np.ndarray:
    """The seeded band-limited perturbation eta on the points x."""
    rng = _rng(workload, seed)
    z = rng.standard_normal(PERTURBATION_DEGREE + 1) + 1j * rng.standard_normal(
        PERTURBATION_DEGREE + 1
    )
    y = x / PERTURBATION_WIDTH
    eta = np.exp(-0.5 * y * y) * np.polyval(z[::-1], y)
    dx = x[1] - x[0]
    norm = np.sqrt(np.sum(np.abs(eta) ** 2) * dx)
    return eta * (PERTURBATION_SIZE * np.sqrt(Q1_MASS_SQ) / norm)


def sweep_params(seed: int) -> dict:
    db, de = _rng("threshold_sweep_1d", seed).uniform(-0.01, 0.01, size=2)
    return dict(b=SWEEP["b"] * (1.0 + float(db)), E=SWEEP["E"] * (1.0 + float(de)))


def seed_width(seed: int) -> float:
    return 1.0 + 0.05 * float(_rng("ground_state_3d", seed).uniform(-1.0, 1.0))

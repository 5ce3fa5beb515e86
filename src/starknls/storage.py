"""File formats: binary field snapshots, trajectory CSV, report CSV.

Binary snapshot layout (all little-endian):

    bytes 0-3   magic "DNLS"
    u16         format version (currently 1)
    u16         spatial dimension n
    u32 * n     points per axis
    f64 * n     half-width per axis
    f64 pairs   N^n (re, im) samples, row-major

Round trips are bit-exact.

Trajectory CSV column order is fixed:

    t, mass_sq, grad_norm_sq, E0, EV, Px[, Py[, Pz]], variance, dt, spectral_fill

Floats are written with repr-faithful "%.17g" formatting so identical runs
produce byte-identical files.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import StarkNLSError
from .spectral import Field, GridSpec

SNAPSHOT_MAGIC = b"DNLS"
SNAPSHOT_VERSION = 1

_FLOAT_FMT = "%.17g"


def fmt_float(x: float) -> str:
    return _FLOAT_FMT % float(x)


# ---------------------------------------------------------------------------
# Binary snapshots
# ---------------------------------------------------------------------------


def write_snapshot(path, field: Field) -> None:
    grid = field.grid
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<HH", SNAPSHOT_VERSION, grid.n))
        fh.write(struct.pack(f"<{grid.n}I", *grid.shape))
        fh.write(struct.pack(f"<{grid.n}d", *grid.half_widths))
        # complex128 is (re, im) float64 pairs; force little-endian layout
        fh.write(field.data.astype("<c16", copy=False).tobytes(order="C"))


def read_snapshot(path) -> Field:
    """Read a snapshot; a bad magic, version, dimension or grid, or a header
    or payload of the wrong length, raises StarkNLSError naming the file."""
    raw = Path(path).read_bytes()
    if raw[:4] != SNAPSHOT_MAGIC:
        raise StarkNLSError(f"{path}: not a field snapshot (bad magic)")
    if len(raw) < 8:
        raise StarkNLSError(f"{path}: truncated snapshot header ({len(raw)} bytes)")
    version, n = struct.unpack_from("<HH", raw, 4)
    if version != SNAPSHOT_VERSION:
        raise StarkNLSError(f"{path}: unsupported snapshot version {version}")
    if n not in (1, 2, 3):
        raise StarkNLSError(f"{path}: bad snapshot dimension {n}")
    off = 8 + 12 * n
    if len(raw) < off:
        raise StarkNLSError(f"{path}: truncated snapshot header ({len(raw)} bytes)")
    shape = struct.unpack_from(f"<{n}I", raw, 8)
    half_widths = struct.unpack_from(f"<{n}d", raw, 8 + 4 * n)
    try:
        grid = GridSpec(n=n, shape=shape, half_widths=half_widths)
    except ValueError as exc:
        raise StarkNLSError(f"{path}: bad snapshot grid: {exc}") from None
    payload = len(raw) - off
    if payload != 16 * grid.num_points:
        raise StarkNLSError(
            f"{path}: snapshot payload is {payload} bytes, expected "
            f"{16 * grid.num_points} for shape {shape}"
        )
    data = np.frombuffer(raw, dtype="<c16", count=grid.num_points, offset=off)
    return Field(grid, data.reshape(shape))


# ---------------------------------------------------------------------------
# Trajectory CSV
# ---------------------------------------------------------------------------


def trajectory_header(n: int) -> list[str]:
    momentum_cols = ["Px", "Py", "Pz"][:n]
    return ["t", "mass_sq", "grad_norm_sq", "E0", "EV", *momentum_cols,
            "variance", "dt", "spectral_fill"]


def write_trajectory_csv(path, traj) -> None:
    """Write a TrajectoryRecord in the fixed column order."""
    n = traj.params.n
    lines = [",".join(trajectory_header(n))]
    for i, s in enumerate(traj.samples):
        row = [s.t, s.mass_sq, s.grad_sq, s.e0, s.ev, *s.momentum,
               s.variance, traj.dt_series[i], traj.fill_series[i]]
        lines.append(",".join(fmt_float(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_trajectory_csv(path):
    """Load a trajectory CSV back into plain arrays.

    Returns a dict of column name -> ndarray. Quantities not stored in the
    file (lp_sum, stark_moment) are reconstructed from the definitional
    identities EV = E0 + stark_moment and E0 = grad_sq - (2/(p+1)) lp_sum
    by the caller, which knows p.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise StarkNLSError(f"{path}: column count mismatch")
    return {name: data[:, i].copy() for i, name in enumerate(header)}


# ---------------------------------------------------------------------------
# Key-value and tabular reports
# ---------------------------------------------------------------------------


def write_report_csv(path, rows: list[dict]) -> None:
    """Write a list of uniform dict rows as CSV (insertion key order)."""
    if not rows:
        Path(path).write_text("")
        return
    keys = list(rows[0].keys())
    lines = [",".join(keys)]
    for row in rows:
        cells = []
        for key in keys:
            v = row[key]
            cells.append(fmt_float(v) if isinstance(v, float) else str(v))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def write_plot_data(path, t: np.ndarray, values: np.ndarray, name: str) -> None:
    """Two-column headered text file consumable by standard plotting tools."""
    lines = [f"t {name}"]
    for ti, vi in zip(t, values):
        lines.append(f"{fmt_float(ti)} {fmt_float(vi)}")
    Path(path).write_text("\n".join(lines) + "\n")

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

import csv
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
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise StarkNLSError(f"{path}: cannot read snapshot ({exc.strerror})") from None
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


MOMENTUM_COLUMNS = ("Px", "Py", "Pz")


def trajectory_header(n: int) -> list[str]:
    return ["t", "mass_sq", "grad_norm_sq", "E0", "EV", *MOMENTUM_COLUMNS[:n],
            "variance", "dt", "spectral_fill"]


def write_trajectory_csv(path, traj) -> None:
    """Write the file columns of a TrajectoryRecord in the fixed order."""
    n = sum(name in traj.columns for name in MOMENTUM_COLUMNS)
    header = trajectory_header(n)
    lines = [",".join(header)]
    for row in zip(*(traj.columns[name].tolist() for name in header)):
        lines.append(",".join(fmt_float(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_trajectory_csv(path):
    """Load a trajectory CSV as a dict of column name -> ndarray, the columns
    of a TrajectoryRecord. An unreadable file, one without data rows and one
    with a cell that is not a number raise StarkNLSError."""
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            rows = [line for line in fh if line.strip()]
        if not rows:
            raise StarkNLSError(f"{path}: no trajectory rows")
        data = np.loadtxt(rows, delimiter=",", ndmin=2)
    except OSError as exc:
        raise StarkNLSError(f"{path}: cannot read trajectory ({exc.strerror})") from None
    except ValueError as exc:  # a cell that is not a number, or not text at all
        raise StarkNLSError(f"{path}: bad trajectory data: {exc}") from None
    if data.shape[1] != len(header):
        raise StarkNLSError(f"{path}: column count mismatch")
    return {name: data[:, i].copy() for i, name in enumerate(header)}


# ---------------------------------------------------------------------------
# Key-value and tabular reports
# ---------------------------------------------------------------------------


def write_report_csv(path, rows: list[dict]) -> None:
    """Write a list of uniform dict rows as CSV (insertion key order); a cell
    holding a comma, a quote or a line break is quoted."""
    if not rows:
        Path(path).write_text("")
        return
    keys = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(keys)
        for row in rows:
            out.writerow([fmt_float(v) if isinstance(v, float) else str(v)
                          for v in (row[key] for key in keys)])


def write_plot_data(path, t: np.ndarray, values: np.ndarray, name: str) -> None:
    """Two-column headered text file consumable by standard plotting tools."""
    lines = [f"t {name}"]
    for ti, vi in zip(t, values):
        lines.append(f"{fmt_float(ti)} {fmt_float(vi)}")
    Path(path).write_text("\n".join(lines) + "\n")

"""Readers for the artifact bundle, written from the documented file formats.

They do not import the program, so a check that reads the bundle through
them does not trust the program's own readers.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np


def read_table(path) -> list[dict]:
    """Rows of a headered comma-separated report (summary, sweep, blow-up)."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(",", len(header) - 1))) for line in lines[1:]]


def read_summary(path) -> dict:
    """summary.csv as a key -> value-text mapping."""
    return {row["key"]: row["value"] for row in read_table(path)}


def read_trajectory(path) -> dict:
    """trajectory.csv as column name -> float array."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def read_dnls(path):
    """A binary field snapshot: (samples, half_widths)."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"DNLS":
        raise ValueError(f"{path}: bad magic")
    _, n = struct.unpack_from("<HH", raw, 4)
    shape = struct.unpack_from(f"<{n}I", raw, 8)
    half_widths = struct.unpack_from(f"<{n}d", raw, 8 + 4 * n)
    offset = 8 + 12 * n
    count = int(np.prod(shape))
    if len(raw) != offset + 16 * count:
        raise ValueError(f"{path}: {len(raw)} bytes, expected {offset + 16 * count}")
    data = np.frombuffer(raw, dtype="<c16", count=count, offset=offset)
    return data.reshape(shape), half_widths

"""Self-describing binary field dumps.

Layout: magic bytes "TMA1", then little-endian u32 dimension d, d little-endian
u64 axis sizes, then the float64 values in row-major order.  Roundtrips are
bit-exact.  A plain CSV sidecar (one value per line, header comment with the
shape) can be written alongside for external tools.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .grid import ScalarField, TorusGrid

MAGIC = b"TMA1"


def write_field(path: str | Path, field: ScalarField) -> None:
    path = Path(path)
    sizes = field.grid.sizes
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(sizes)))
        fh.write(struct.pack(f"<{len(sizes)}Q", *sizes))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def read_field(path: str | Path) -> ScalarField:
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != MAGIC:
        raise ValueError(f"{path} is not a field dump (bad magic)")
    if len(raw) < 8:
        raise ValueError(f"{path}: truncated header")
    (d,) = struct.unpack_from("<I", raw, 4)
    if not 2 <= d <= 5:
        raise ValueError(f"{path}: dimension must be 2..5, got {d}")
    offset = 8 + 8 * d
    if len(raw) < offset:
        raise ValueError(f"{path}: truncated header")
    sizes = struct.unpack_from(f"<{d}Q", raw, 8)
    count = math.prod(sizes)
    expected = offset + 8 * count
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, found {len(raw)}")
    values = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
    grid = TorusGrid(tuple(int(s) for s in sizes))
    return ScalarField(grid, values.reshape(sizes).copy())


def write_csv(path: str | Path, field: ScalarField) -> None:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# sizes=" + "x".join(str(s) for s in field.grid.sizes) + "\n")
        for v in field.values.ravel():
            fh.write(f"{v!r}\n")

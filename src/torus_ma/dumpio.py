"""Self-describing binary field dumps.

Layout: magic bytes "TMA1", then little-endian u32 dimension d, d little-endian
u64 axis sizes, then the float64 values in row-major order.  Roundtrips are
bit-exact.  A plain CSV sidecar (one value per line, header comment with the
shape) can be written alongside for external tools.
"""

from __future__ import annotations

import os
import stat
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
    """Read a dump: the header first, so that a grid over budget is rejected
    before any value is read, then exactly the values the header announces.
    A path that is not a regular file, such as a FIFO, is rejected unopened."""
    path = Path(path)
    if not stat.S_ISREG(path.stat().st_mode):
        raise ValueError(f"{path} is not a regular file")
    with open(path, "rb") as fh:
        head = fh.read(8)
        if head[:4] != MAGIC:
            raise ValueError(f"{path} is not a field dump (bad magic)")
        if len(head) < 8:
            raise ValueError(f"{path}: truncated header")
        (d,) = struct.unpack_from("<I", head, 4)
        if not 2 <= d <= 5:
            raise ValueError(f"{path}: dimension must be 2..5, got {d}")
        raw_sizes = fh.read(8 * d)
        if len(raw_sizes) < 8 * d:
            raise ValueError(f"{path}: truncated header")
        sizes = struct.unpack(f"<{d}Q", raw_sizes)
        grid = TorusGrid(sizes)
        expected = 8 + 8 * d + 8 * grid.npoints
        found = os.fstat(fh.fileno()).st_size
        if found != expected:
            raise ValueError(f"{path}: expected {expected} bytes, found {found}")
        values = np.fromfile(fh, dtype="<f8", count=grid.npoints)
    return ScalarField(grid, values.reshape(grid.sizes))


def write_csv(path: str | Path, field: ScalarField) -> None:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# sizes=" + "x".join(str(s) for s in field.grid.sizes) + "\n")
        for v in field.values.ravel():
            # the repr of a Python float, not NumPy's "np.float64(...)"
            fh.write(f"{float(v)!r}\n")

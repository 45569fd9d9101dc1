"""Matrix file formats.

CSV format: first line is ``rows,cols``; each following line is one matrix
row of comma-separated decimal floats printed with repr-roundtrip precision
(%.17g), so read(write(A)) == A bit-for-bit.

Binary format: 8-byte magic ``b"SPIKEMAT"``, then rows and cols as
little-endian uint64, then rows*cols float64 values little-endian in
row-major order.
"""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"SPIKEMAT"


def write_csv(path, A: np.ndarray) -> None:
    A = np.asarray(A, dtype=np.float64)
    rows, cols = A.shape
    line = ",".join(["%.17g"] * cols) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{rows},{cols}\n")
        for row in A:
            fh.write(line % tuple(row.tolist()))


def read_csv(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        rows, cols = (int(v) for v in fh.readline().strip().split(","))
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (rows, cols):
        raise ValueError(f"header says {(rows, cols)} but payload is {data.shape}")
    return data


def write_binary(path, A: np.ndarray) -> None:
    A = np.ascontiguousarray(A, dtype="<f8")
    rows, cols = A.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<QQ", rows, cols))
        fh.write(A.tobytes(order="C"))


def read_binary(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        rows, cols = struct.unpack("<QQ", fh.read(16))
        payload = fh.read(8 * rows * cols)
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()

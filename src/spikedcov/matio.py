"""Matrix file formats.

CSV format: first line is ``rows,cols``; each following line is one matrix
row of comma-separated decimal floats printed with repr-roundtrip precision
(%.17g), so read(write(A)) == A bit-for-bit.

Binary format: 8-byte magic ``b"SPIKEMAT"``, then rows and cols as
little-endian uint64, then rows*cols float64 values little-endian in
row-major order.
"""

from __future__ import annotations

import functools
import struct

import numpy as np

MAGIC = b"SPIKEMAT"

#: Values per write_csv block: at 2^12 a block's temporaries are reused
#: without new page faults, which doubled the time per value from 2^13 up.
_CSV_BLOCK = 1 << 12
_SLOT = 32  # bytes per value: up to 24 characters and the separator, then zeros
_POW10 = 10.0 ** np.arange(23)  # exact: 10^q = 5^q 2^q with 5^22 < 2^53
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)  # Dekker's split, 2^27 + 1
_POW10_LO = _POW10 - _POW10_HI
_E16, _E17 = np.uint64(10**16), np.uint64(10**17)


@functools.cache
def _csv_tables() -> tuple:
    """4-digit ASCII words, and the slot layouts of fixed-notation ``%.17g``.

    Layout key (X + 4) * 34 + tz * 2 + negative, for the decimal exponent X
    in [-4, 14] and tz trailing zeros of the 17 digits, picks per column a
    byte of the digits, of the digits one column left, or a constant.
    """
    quads = np.array([b"%04d" % i for i in range(10000)], dtype="S4").view("<u4")
    key = np.arange(19 * 34)
    X, tz = key // 34 - 4, key % 34 // 2
    f = 16 - X  # fraction digits before stripping
    t = np.where(tz < f, tz, f + 1)  # places stripped: trailing zeros, and the point
    top = np.maximum(17, f + 1)  # place of the leading digit (a '0' when X < 0)
    place = np.arange(23, -1, -1)  # of column c: digit places left of the 17th digit
    lay = np.zeros((3, key.size, _SLOT), dtype=np.uint8)
    lay[0, :, :24] = ((place >= t[:, None]) & (place < f[:, None])) * 255
    lay[1, :, :24] = ((place > f[:, None]) & (place <= top[:, None])) * 255
    lay[2, key, 24 - t] = ord(",")
    lay[2, key[t <= f], (23 - f)[t <= f]] = ord(".")
    lay[2, key[1::2], (22 - top)[1::2]] = ord("-")
    return quads, *(np.ascontiguousarray(part).view(np.uint64) for part in lay)


def _round_scaled(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """a 10^q rounded half to even, exact where a 10^q >= 2^53.

    Dekker's product a 10^q = p + e is exact; from 2^53 on p is an even
    integer and |e| <= ulp(p) / 2, so p + rint(e) is the rounding.
    """
    c = a * 134217729.0
    hi = c - (c - a)
    lo = a - hi
    p = a * _POW10[q]
    e = ((hi * _POW10_HI[q] - p) + hi * _POW10_LO[q] + lo * _POW10_HI[q]) + lo * _POW10_LO[q]
    D = p.astype(np.uint64)
    D += np.rint(e).astype(np.int64).view(np.uint64)
    return D


def _format_block(x: np.ndarray, first: int, cols: int, glyphs, words) -> np.ndarray:
    """The CSV bytes of the values ``x`` at flat positions first, first + 1, ...

    For 1e-4 <= |x| < 1e15 ``%.17g`` is fixed notation with the 17 digits
    D = round(|x| 10^(16 - X)) in [10^16, 10^17); X comes from log10 and is
    corrected by D. Each value gets a slot of _SLOT bytes, zero where no
    character goes, and the zeros are dropped. Other values go through
    ``%``. ``glyphs`` and ``words`` are buffers reused block after block.
    """
    quads, *lay = _csv_tables()
    n, size = x.size, x.size * _SLOT
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e15)
    a[~fast] = 1.0
    q = 16 - np.floor(np.log10(a)).astype(np.intp)
    D = _round_scaled(a, q)
    bad = np.flatnonzero((D < _E16) | (D >= _E17))
    while bad.size:  # X from log10 may be one off, and rounding may carry D to 10^17
        q[bad] += np.where(D[bad] < _E16, 1, -1)
        D[bad] = _round_scaled(a[bad], q[bad])
        bad = bad[(D[bad] < _E16) | (D[bad] >= _E17)]
    # Columns 0-6 hold '0' (places left of the digits), 7-23 the 17 digits.
    high = (D // np.uint64(10**8)).astype(np.intp)
    low = D.astype(np.intp) - high * 10**8
    spelled = glyphs[:size].view(np.uint32).reshape(n, _SLOT // 4)
    spelled[:, 0] = 0x30303030
    spelled[:, 1] = 0x00303030 + ((high // 10**8 + 48) << 24)
    for j, group in enumerate((high // 10000 % 10000, high % 10000, low // 10000, low % 10000)):
        spelled[:, 2 + j] = quads.take(group)
    tz = np.argmin(glyphs[:size].reshape(n, _SLOT)[:, 23:6:-1] == ord("0"), axis=1)
    key = (20 - q) * 34 + tz * 2 + np.signbit(x)
    out, moved = words[:, :n]
    lay[0].take(key, axis=0, out=out)
    out &= glyphs[:size].view(np.uint64).reshape(n, -1)
    lay[1].take(key, axis=0, out=moved)
    moved_bytes = moved.reshape(-1).view(np.uint8)
    moved_bytes &= glyphs[1 : size + 1]
    out |= moved
    lay[2].take(key, axis=0, out=moved)
    out |= moved
    out = out.view(np.uint8).reshape(n, _SLOT)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array(["%.17g," % v for v in x[slow].tolist()], dtype="S25")
        out[slow, :25] = text.view(np.uint8).reshape(-1, 25)
    ends = out[(cols - 1 - first) % cols :: cols]
    ends[ends == ord(",")] = ord("\n")
    flat = out.reshape(-1)
    return flat[np.not_equal(flat, 0, out=glyphs[:size].view(bool))]


def write_csv(path, A: np.ndarray) -> None:
    """Write A as CSV: the bytes of ``'%.17g' % x`` per value, in array code.

    Blocks of _CSV_BLOCK flat values may cut a row: each separator comes
    from its flat position.
    """
    A = np.asarray(A, dtype=np.float64)
    rows, cols = A.shape
    flat = A.ravel()
    glyphs = np.empty(_CSV_BLOCK * _SLOT + 8, dtype=np.uint8)
    words = np.empty((2, _CSV_BLOCK, _SLOT // 8), dtype=np.uint64)
    with open(path, "wb") as fh:
        fh.write(b"%d,%d\n" % (rows, cols))
        if cols == 0:
            fh.write(b"\n" * rows)
        for lo in range(0, flat.size, _CSV_BLOCK):
            fh.write(_format_block(flat[lo : lo + _CSV_BLOCK], lo, cols, glyphs, words))


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

"""Counter-based random streams.

Every stream is a Philox4x64 generator keyed by a SHA-256 hash of the master
seed and a label, so replicate streams are order-independent and safe to draw
from concurrently. Gaussians come from Box-Muller on the uniform stream; no
rejection step means a stream consumes a shape-determined number of counters,
which keeps output bit-identical across platforms sharing IEEE-754 doubles.

Philox is counter-based (Salmon et al., SC'11, "Parallel random numbers: as
easy as 1, 2, 3"): a generator can start at any offset of its stream. So a
stream is only a key and an offset, and any part of a draw can be read on
its own (``Stream.pairs``) with the bits of the whole.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

_TAU = 2.0 * np.pi
#: Normal pairs per block of the in-place Box-Muller transform.
_BLOCK = 1 << 14


def derive_key(master_seed: int, *parts) -> int:
    """128-bit Philox key derived from a master seed and stream labels."""
    text = "spikedcov/v1|" + repr(int(master_seed)) + "|" + "|".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


def _box_muller(radius: np.ndarray, angle: np.ndarray) -> None:
    """Turn uniform pairs into normals in place: radius gets the cosines, angle the sines.

    It works through ``_BLOCK`` pairs at a time with one cosine buffer.
    """
    cos = np.empty(min(_BLOCK, len(radius)))
    for lo in range(0, len(radius), _BLOCK):
        r, a = radius[lo : lo + _BLOCK], angle[lo : lo + _BLOCK]
        c = cos[: len(r)]
        np.subtract(1.0, r, out=r)  # in (0, 1]: log is finite
        np.log(r, out=r)
        np.multiply(r, -2.0, out=r)
        np.sqrt(r, out=r)
        np.multiply(a, _TAU, out=a)
        np.cos(a, out=c)
        np.sin(a, out=a)
        np.multiply(a, r, out=a)
        np.multiply(c, r, out=r)


class Stream:
    """A deterministic, independently-keyed random stream: a key and an offset.

    ``offset`` counts the uniforms drawn so far. Each read starts a Philox
    generator of its own at the offset it reads from, a fixed cost of tens
    of microseconds.

    Parameters
    ----------
    master_seed : int
        Experiment-level seed.
    *labels
        Arbitrary hashable labels (replicate index, purpose tag, ...).
        Distinct label tuples give statistically independent streams.
    """

    def __init__(self, master_seed: int, *labels):
        self.key = derive_key(master_seed, *labels)
        self.offset = 0

    def uniforms(self, shape) -> np.ndarray:
        """i.i.d. uniforms on [0, 1)."""
        u = self.window(self.offset, np.empty(shape))
        self.offset += u.size
        return u

    def window(self, offset: int, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` with the uniforms at ``offset`` onward; this stream does not move."""
        bits = np.random.Philox(key=self.key, counter=offset // 4)  # four uniforms a counter
        bits.random_raw(offset % 4)
        return np.random.Generator(bits).random(out=out)

    def pairs(
        self, start: int, half: int, lo: int, hi: int, radius=None, angle=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pairs [lo, hi) of a draw of ``half`` normal pairs at uniform offset ``start``.

        Pair j takes uniforms start + j and start + half + j; its cosine is
        flat value j of the draw and its sine flat value half + j. Returns
        (cosines of flat [lo, hi), sines of flat [half + lo, half + hi)),
        written into ``radius`` and ``angle`` when given. This stream does
        not move. The transform runs _BLOCK pairs at a time, so its only
        temporary is small and stays in cache (on a pool thread a large one
        outlives the draw in the thread's malloc arena).
        """
        radius = np.empty(hi - lo) if radius is None else radius
        angle = np.empty(hi - lo) if angle is None else angle
        self.window(start + lo, radius)
        self.window(start + half + lo, angle)
        _box_muller(radius, angle)
        return radius, angle

    def normals(self, shape) -> np.ndarray:
        """i.i.d. standard normals via Box-Muller, in one read of ``pairs``.

        The 2 * half uniforms drawn from ``offset`` on hold the radius half,
        then the angle half; the offset then moves past them.
        """
        count = math.prod(shape) if np.iterable(shape) else int(shape)
        half = (count + 1) // 2
        z = np.empty(2 * half)
        self.pairs(self.offset, half, 0, half, z[:half], z[half:])
        self.offset += 2 * half
        return z[:count].reshape(shape)

"""Counter-based random streams.

Every stream is a Philox4x64 generator keyed by a SHA-256 hash of the master
seed and a label, so replicate streams are order-independent and safe to draw
from concurrently. Gaussians come from Box-Muller on the uniform stream; no
rejection step means a stream consumes a shape-determined number of counters,
which keeps output bit-identical across platforms sharing IEEE-754 doubles.

Philox is counter-based (Salmon et al., SC'11, "Parallel random numbers: as
easy as 1, 2, 3"): a generator can start at any offset of its stream. So a
large draw is cut into spans, one per core, each seeking to its own offset,
and its output does not depend on the cut.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from . import cores

_TAU = 2.0 * np.pi
#: Normal pairs per span below which a draw is not cut further.
_MIN_SPAN = 1 << 15
#: Normal pairs per block of the in-place transform in ``Stream.pairs``.
_BLOCK = 1 << 14
_WORD = (1 << 64) - 1


def derive_key(master_seed: int, *parts) -> int:
    """128-bit Philox key derived from a master seed and stream labels."""
    text = "spikedcov/v1|" + repr(int(master_seed)) + "|" + "|".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


def _position(bits: np.random.Philox) -> int:
    """Uniforms drawn from a Philox stream so far: four per counter step."""
    state = bits.state
    counter = sum(int(c) << (64 * i) for i, c in enumerate(state["state"]["counter"]))
    return 4 * counter + state["buffer_pos"] - 4


def _seek(bits: np.random.Philox, offset: int) -> None:
    """Move a Philox stream to ``offset`` uniforms from its start."""
    state = bits.state
    counter = offset // 4
    state["state"]["counter"] = np.array(
        [(counter >> (64 * i)) & _WORD for i in range(4)], dtype=np.uint64
    )
    state["buffer_pos"] = 4  # block used up: the next draw computes a fresh one
    bits.state = state
    bits.random_raw(offset % 4)


def _box_muller(radius: np.ndarray, angle: np.ndarray, block: int) -> None:
    """Turn uniform pairs into normals in place: radius gets the cosines, angle the sines.

    It works through ``block`` pairs at a time with one cosine buffer.
    """
    cos = np.empty(min(block, len(radius)))
    for lo in range(0, len(radius), block):
        r, a = radius[lo : lo + block], angle[lo : lo + block]
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
    """A deterministic, independently-keyed random stream.

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
        self._gen = np.random.Generator(np.random.Philox(key=self.key))

    def uniforms(self, shape) -> np.ndarray:
        """i.i.d. uniforms on [0, 1)."""
        return self._gen.random(size=shape, dtype=np.float64)

    def window(self, offset: int, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` with the uniforms at ``offset`` onward; this stream does not move."""
        gen = np.random.Generator(np.random.Philox(key=self.key))
        _seek(gen.bit_generator, offset)
        return gen.random(out=out)

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
        _box_muller(radius, angle, _BLOCK)
        return radius, angle

    def normals(self, shape) -> np.ndarray:
        """i.i.d. standard normals via Box-Muller.

        The 2 * half uniforms drawn hold the radius half, then the angle
        half, so one span is one read of the stream into the output. At
        2 * _MIN_SPAN pairs or more, outside another fan-out, the draw splits
        into up to one span of ``pairs`` per core; the stream ends where a
        serial draw would leave it.
        """
        count = math.prod(shape) if np.iterable(shape) else int(shape)
        half = (count + 1) // 2
        parts = 1 if half < 2 * _MIN_SPAN else min(cores.free_workers(), half // _MIN_SPAN)
        z = np.empty(2 * half)
        if parts == 1:

            def span(_) -> None:
                # one block: every block costs a GIL round trip, which stalls
                # while replicate threads hold the GIL
                self._gen.random(out=z)
                _box_muller(z[:half], z[half:], max(half, 1))

        else:
            bounds = [half * i // parts for i in range(parts + 1)]
            start = _position(self._gen.bit_generator)

            def span(i: int) -> None:
                lo, hi = bounds[i], bounds[i + 1]
                self.pairs(start, half, lo, hi, z[lo:hi], z[half + lo : half + hi])

        cores.fan_out(span, range(parts))
        if parts > 1:
            _seek(self._gen.bit_generator, start + 2 * half)
        return z[:count].reshape(shape)

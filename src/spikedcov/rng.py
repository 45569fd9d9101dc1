"""Counter-based random streams.

Every stream is a Philox4x64 generator keyed by a SHA-256 hash of the master
seed and a label, so replicate streams are order-independent and safe to draw
from concurrently. Gaussians come from Box-Muller on the uniform stream; no
rejection step means a stream consumes a shape-determined number of counters,
which keeps output bit-identical across platforms sharing IEEE-754 doubles.
"""

from __future__ import annotations

import hashlib

import numpy as np

_TAU = 2.0 * np.pi


def derive_key(master_seed: int, *parts) -> int:
    """128-bit Philox key derived from a master seed and stream labels."""
    text = "spikedcov/v1|" + repr(int(master_seed)) + "|" + "|".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


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

    def normals(self, shape) -> np.ndarray:
        """i.i.d. standard normals via Box-Muller.

        One uniform draw of 2 * half values holds the radius half, then the
        angle half; the transform runs in place, so the only other buffer
        is one half-length cosine.
        """
        count = int(np.prod(shape)) if shape else 1
        half = (count + 1) // 2
        z = self._gen.random(size=2 * half)
        radius, angle = z[:half], z[half:]
        np.subtract(1.0, radius, out=radius)  # in (0, 1]: log is finite
        np.log(radius, out=radius)
        np.multiply(radius, -2.0, out=radius)
        np.sqrt(radius, out=radius)
        np.multiply(angle, _TAU, out=angle)
        cos = np.cos(angle)
        np.sin(angle, out=angle)
        np.multiply(angle, radius, out=angle)
        np.multiply(cos, radius, out=radius)
        return z[:count].reshape(shape)

"""Spiked covariance model: entry laws, model specs, data generation.

The population covariance is Sigma = U diag(l_1..l_M, 1, ..., 1) U^T with
spikes l_1 >= ... >= l_M >= 1 and an N x n data matrix
X = U diag(sqrt(l_1)..sqrt(l_M), 1, ..., 1) Z whose Z has i.i.d. mean-zero,
variance-one subgaussian entries.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigInvalid
from .rng import Stream

#: Laws with fourth moment below 1 + DEFAULT_DELTA0 are ineligible for CLT runs.
DEFAULT_DELTA0 = 0.1


@dataclass(frozen=True)
class EntryLaw:
    """Distribution of the i.i.d. entries of Z (mean 0, variance 1).

    ``kind`` is one of ``"gaussian"``, ``"uniform"`` (uniform on
    [-sqrt(3), sqrt(3)]) or ``"twopoint"`` (takes value sqrt((1-p)/p) with
    probability p and -sqrt(p/(1-p)) with probability 1-p, which balances
    to mean 0 and variance 1 for any p in (0, 1)).
    """

    kind: str
    p: float | None = None
    fourth_moment: float = field(init=False)

    def __post_init__(self):
        if self.kind == "gaussian":
            m4 = 3.0
        elif self.kind == "uniform":
            m4 = 9.0 / 5.0
        elif self.kind == "twopoint":
            p = self.p
            if p is None or not 0.0 < p < 1.0:
                raise ConfigInvalid(f"twopoint law needs p in (0,1), got {p!r}")
            m4 = (1.0 - p) ** 2 / p + p**2 / (1.0 - p)
        else:
            raise ConfigInvalid(f"unknown entry law kind {self.kind!r}")
        object.__setattr__(self, "fourth_moment", m4)

    @classmethod
    def gaussian(cls) -> "EntryLaw":
        return cls("gaussian")

    @classmethod
    def uniform_scaled(cls) -> "EntryLaw":
        return cls("uniform")

    @classmethod
    def two_point(cls, p: float) -> "EntryLaw":
        return cls("twopoint", p=p)

    def eligible_for_clt(self) -> bool:
        """Whether E[z^4] >= 1 + DEFAULT_DELTA0; Rademacher (p=1/2) never qualifies."""
        return self.fourth_moment >= 1.0 + DEFAULT_DELTA0

    def sample(self, stream: Stream, shape) -> np.ndarray:
        if self.kind == "gaussian":
            return stream.normals(shape)
        return self._from_uniforms(stream.uniforms(shape))

    def units(self, count: int) -> tuple[int, int]:
        """``(units, uniforms)`` of a draw of ``count`` values.

        ``sample_block`` cuts the draw into blocks of units [0, units): a
        gaussian unit is a Box-Muller pair, any other law's unit one value.
        The draw reads ``uniforms`` uniforms of its stream.
        """
        if self.kind == "gaussian":
            half = (count + 1) // 2
            return half, 2 * half
        return count, count

    def sample_block(
        self, stream: Stream, start: int, count: int, lo: int, hi: int
    ) -> list[tuple[int, np.ndarray]]:
        """Units [lo, hi) of a draw of ``count`` values at uniform offset ``start``.

        Returns ``(flat offset, values)`` segments: flat i is value i of
        ``sample(stream, count)`` had the stream stood at ``start``. A
        gaussian block is two segments, the cosines of its pairs at flat
        [lo, hi) and their sines at flat [half + lo, half + hi), without the
        last sine when ``count`` is odd; any other law's block is flat
        [lo, hi), from uniforms start + lo onward. ``stream`` does not move.
        """
        if self.kind == "gaussian":
            half = (count + 1) // 2
            cos, sin = stream.pairs(start, half, lo, hi)
            return [(lo, cos), (half + lo, sin[: max(0, min(hi, count - half) - lo)])]
        return [(lo, self._from_uniforms(stream.window(start + lo, np.empty(hi - lo))))]

    def _from_uniforms(self, u: np.ndarray) -> np.ndarray:
        """The law's values from uniforms ``u``, written over ``u``."""
        if self.kind == "uniform":
            u *= 2.0
            u -= 1.0
            u *= math.sqrt(3.0)
            return u
        p = self.p
        below = u < p
        u.fill(-math.sqrt(p / (1.0 - p)))
        np.copyto(u, math.sqrt((1.0 - p) / p), where=below)
        return u

    def label(self) -> str:
        return self.kind if self.p is None else f"{self.kind}:{self.p:g}"


_RULE_RE = re.compile(
    r"^\s*([0-9.eE+-]+)\s*(?:\*\s*n\s*(?:\^\s*([0-9.eE+-]+))?)?\s*$"
)


def parse_spike_rule(rule, n: int) -> float:
    """Evaluate a spike growth rule ``"c*n^a"`` (or ``"c*n"``, or a literal)."""
    if isinstance(rule, (int, float)):
        return float(rule)
    m = _RULE_RE.match(str(rule))
    if not m:
        raise ConfigInvalid(f"cannot parse spike rule {rule!r}")
    c = float(m.group(1))
    if m.group(0).find("n") < 0:
        return c
    if n < 1:
        raise ConfigInvalid(f"spike rule {rule!r} needs n >= 1, got n = {n}")
    a = float(m.group(2)) if m.group(2) is not None else 1.0
    return c * float(n) ** a


def random_orthogonal(dim: int, master_seed: int) -> np.ndarray:
    """Haar-ish orthogonal matrix: QR of a Gaussian with sign-fixed R diagonal."""
    g = Stream(master_seed, "basis").normals((dim, dim))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs[np.newaxis, :]


@dataclass(frozen=True)
class SpikedModelSpec:
    """Dimensions, spikes, basis and entry law of the model.

    ``basis=None`` means the identity basis (the frame every block
    computation works in); an explicit basis must be orthogonal.
    Spikes may be numbers or growth-rule strings, evaluated at construction.
    A spec is checked once, when built, and is immutable: no field can be
    assigned and the spikes array is read-only.
    """

    n: int
    N: int
    M: int
    spikes: np.ndarray
    law: EntryLaw
    basis: np.ndarray | None = None
    gamma_bound: float = 10.0

    def __post_init__(self):
        spikes = np.asarray(
            [parse_spike_rule(s, self.n) for s in np.atleast_1d(self.spikes)],
            dtype=np.float64,
        )
        spikes.flags.writeable = False
        object.__setattr__(self, "spikes", spikes)
        if self.M != len(spikes):
            raise ConfigInvalid(f"M={self.M} but {len(spikes)} spikes given")
        if not (0 < self.M < self.N and self.M < self.n):
            raise ConfigInvalid(f"need 0 < M < N and M < n, got (n,N,M)=({self.n},{self.N},{self.M})")
        if np.any(np.diff(spikes) > 0):
            raise ConfigInvalid("spikes must be sorted descending")
        if np.any(spikes < 1.0) or not np.all(np.isfinite(spikes)):
            raise ConfigInvalid("every spike must be finite and >= 1")
        if not self.gamma_bound >= 1.0:
            raise ConfigInvalid(f"gamma_bound = {self.gamma_bound:g} must be >= 1")
        ratio = self.N / self.n
        if not (1.0 / self.gamma_bound <= ratio <= self.gamma_bound):
            raise ConfigInvalid(
                f"N/n = {ratio:g} outside [1/gamma, gamma] for gamma = {self.gamma_bound:g}"
            )
        if self.basis is not None:
            b = np.asarray(self.basis, dtype=np.float64)
            if b.shape != (self.N, self.N):
                raise ConfigInvalid(f"basis must be {self.N}x{self.N}, got {b.shape}")
            err = np.max(np.abs(b.T @ b - np.eye(self.N)))
            if err > 1e-10:
                raise ConfigInvalid(f"basis not orthogonal: max |U^T U - I| = {err:.3e}")
            object.__setattr__(self, "basis", b)

    def sqrt_lambda(self) -> np.ndarray:
        return np.sqrt(self.spikes)


def sample_entry_matrix(rows: int, cols: int, law: EntryLaw, seed: int) -> np.ndarray:
    """``rows x cols`` matrix of i.i.d. draws from ``law``.

    Identical (rows, cols, law, seed) yields bit-identical output.
    """
    if rows < 1 or cols < 1:
        raise ConfigInvalid(f"need rows, cols >= 1, got ({rows}, {cols})")
    return law.sample(Stream(seed, "entries", law.label(), rows, cols), (rows, cols))


def spike_entries(spec: SpikedModelSpec, z: np.ndarray) -> np.ndarray:
    """X = U diag(sqrt(l), 1, ..) Z from the draw ``z``, whose first M rows it scales in place.

    Without a basis X is ``z`` itself; with one it is a new array.
    """
    z[: spec.M, :] *= spec.sqrt_lambda()[:, np.newaxis]
    return z if spec.basis is None else spec.basis @ z


def generate_data(spec: SpikedModelSpec, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw (X, Z) with X = U diag(sqrt(l), 1, ..) Z; Z returned for diagnostics."""
    z = sample_entry_matrix(spec.N, spec.n, spec.law, seed)
    return spike_entries(spec, z.copy()), z


def check_separation(spec: SpikedModelSpec, nu: int, eps0: float) -> bool:
    """Whether spike ``nu`` (1-based) meets the two-sided multiplicative gap condition.

    Convention l_0 = l_{M+1} = 1. The upper-gap constraint l_{nu-1}/l_nu is
    only applied for nu >= 2: at nu = 1 the literal convention would read
    1/l_1 > 1 + eps0, which no admissible spike satisfies, and no upper
    constraint is intended for the top spike.
    """
    if not 1 <= nu <= spec.M:
        raise ConfigInvalid(f"nu = {nu} outside 1..{spec.M}")
    ls = spec.spikes
    l_nu = ls[nu - 1]
    lower_next = ls[nu] if nu < spec.M else 1.0
    lower_ok = l_nu / lower_next > 1.0 + eps0
    upper_ok = True if nu == 1 else ls[nu - 2] / l_nu > 1.0 + eps0
    return bool(lower_ok and upper_ok)

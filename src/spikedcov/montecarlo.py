"""Replication harness: seeded experiments, fit diagnostics, tail checks.

Each replicate draws its own counter-based stream derived from
(master_seed, replicate index), so results are independent of execution
order and the merged report is deterministic. Replicates that trip a
numeric guard (tied eigenvalues, spike below the bulk, degenerate
alignment, a solver that fails) are flagged and excluded from the sample
vector, never silently dropped: successes + flagged == configured
replicates always.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import centering as ctr
from .cores import default_workers, fan_out, one_blas_thread
from .eigen import (
    EigenSystem,
    alignment,
    bulk_trace,
    sample_covariance,
    top_eigenpairs,
    top_eigenvalues,
)
from .errors import ConfigInvalid, InvalidDims, NumericPrecondition
from .eigvec import eigvec_statistic
from .model import DEFAULT_DELTA0, SpikedModelSpec, check_separation, sample_entry_matrix
from .rng import Stream, derive_key

CLT_STATISTICS = ("clt_mixed", "clt_statistical", "clt_oracle")
EIGVEC_STATISTICS = ("eigvec_A", "eigvec_B", "eigvec_C1", "eigvec_C2")

#: The statistics each command runs; run_experiment serves clt and eigvec,
#: consistency_report serves consistency.
STATISTIC_FAMILIES = {
    "clt": CLT_STATISTICS,
    "eigvec": EIGVEC_STATISTICS,
    "consistency": ("consistency",),
}
SIM_STATISTICS = CLT_STATISTICS + EIGVEC_STATISTICS + ("consistency",)

#: Faults that flag one replicate instead of aborting the job.
REPLICATE_FAULTS = (NumericPrecondition, np.linalg.LinAlgError)


@dataclass
class ExperimentConfig:
    spec: SpikedModelSpec
    nu: int
    replicates: int
    master_seed: int
    statistic: str
    x_mode: str = "auto"
    empirical: bool = False
    eps0: float = 0.1
    workers: int | None = None

    def validate(self) -> None:
        if self.statistic not in SIM_STATISTICS:
            raise ConfigInvalid(f"unknown statistic {self.statistic!r}")
        if self.replicates < 1:
            raise ConfigInvalid("need at least one replicate")
        if not 1 <= self.nu <= self.spec.M:
            raise ConfigInvalid(f"nu = {self.nu} outside 1..{self.spec.M}")
        if self.x_mode not in (None, "auto", "zero", "root") and not re.fullmatch(
            r"iter:[1-9][0-9]*", self.x_mode
        ):
            raise ConfigInvalid(f"x_mode {self.x_mode!r}: want root, iter:<k0 >= 1>, zero or auto")
        if self.workers is None:
            default_workers()  # a malformed SPIKED_EIG_THREADS fails here, before any replicate
        if self.statistic in CLT_STATISTICS and not self.spec.law.eligible_for_clt():
            raise ConfigInvalid(
                f"law {self.spec.law.label()} has E[z^4] = {self.spec.law.fourth_moment:g} "
                f"< 1 + {DEFAULT_DELTA0:g}: ineligible for CLT experiments"
            )
        self.spec.validate()

    def replicate_seed(self, r: int) -> int:
        return derive_key(self.master_seed, "replicate", r)


@dataclass
class ExperimentReport:
    samples: np.ndarray
    ks_normal: float
    mean: float
    variance: float
    skewness: float
    kurtosis: float
    per_replicate_flags: list
    config_flags: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def successes(self) -> int:
        return len(self.samples)

    @property
    def flagged(self) -> int:
        return sum(1 for f in self.per_replicate_flags if f is not None)

    def aggregate_record(self, config: ExperimentConfig | None = None) -> dict:
        rec = {
            "ks_normal": self.ks_normal,
            "mean": self.mean,
            "variance": self.variance,
            "skewness": self.skewness,
            "kurtosis": self.kurtosis,
            "successes": self.successes,
            "flagged": self.flagged,
            "flags": self.config_flags,
            "extra": self.extra,
        }
        if config is not None:
            rec.update(
                statistic=config.statistic,
                nu=config.nu,
                n=config.spec.n,
                N=config.spec.N,
                M=config.spec.M,
                replicates=config.replicates,
                master_seed=config.master_seed,
                x_mode=config.x_mode,
                empirical=config.empirical,
            )
        return rec


def ks_statistic(samples, reference_cdf) -> float:
    """sup_t |F_emp(t) - F_ref(t)| over both sides of every sample jump."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(x)
    if n == 0:
        raise InvalidDims("KS statistic of an empty sample")
    F = np.asarray(reference_cdf(x), dtype=np.float64)
    hi = np.max(np.arange(1, n + 1) / n - F)
    lo = np.max(F - np.arange(0, n) / n)
    return float(max(hi, lo, 0.0))


def _normal_cdf(x) -> np.ndarray:
    """Phi(x) = erfc(-x / sqrt 2) / 2, the KS reference for the CLT statistics."""
    return np.array([0.5 * math.erfc(-t / math.sqrt(2.0)) for t in np.ravel(x).tolist()])


def _moments(values: np.ndarray) -> tuple[float, float, float, float]:
    if len(values) == 0:
        return math.nan, math.nan, math.nan, math.nan
    mean = float(np.mean(values))
    centered = values - mean
    var = float(np.mean(centered**2))
    if var <= 0.0 or len(values) < 2:
        return mean, var, 0.0, 0.0
    sd = math.sqrt(var)
    skew = float(np.mean(centered**3) / sd**3)
    kurt = float(np.mean(centered**4) / var**2)
    return mean, var, skew, kurt


@dataclass
class _Instance:
    l_hat: np.ndarray
    vectors: np.ndarray | None
    bulk_trace: float | None


def simulate_instance(
    spec: SpikedModelSpec,
    seed: int,
    need_vectors: bool,
    trace_nu: int | None = None,
) -> _Instance:
    """Top-M eigenstructure of one replicate, in the identity frame.

    One Gram product S feeds the certified top-M solver and, when the
    trace centering needs it (``trace_nu`` given), the bulk trace of its
    S_BB block at l_hat_{trace_nu}. It runs on one BLAS thread, so its bits
    depend on (spec, seed) alone.
    """
    with one_blas_thread():
        z = sample_entry_matrix(spec.N, spec.n, spec.law, seed)
        z[: spec.M, :] *= spec.sqrt_lambda()[:, np.newaxis]
        S = sample_covariance(z)
        if need_vectors:
            l_hat, vectors = top_eigenpairs(S, spec.M)
        else:
            l_hat, vectors = top_eigenvalues(S, spec.M), None
        trace = bulk_trace(S, spec.M, float(l_hat[trace_nu - 1])) if trace_nu else None
    return _Instance(l_hat=l_hat, vectors=vectors, bulk_trace=trace)


def _replicate_value(config: ExperimentConfig, r: int, x_shift: float):
    """One clt or eigvec replicate's statistic value, or a guard flag."""
    spec, stat, nu = config.spec, config.statistic, config.nu
    seed = config.replicate_seed(r)
    try:
        trace_nu = nu if stat in ("clt_mixed", "clt_statistical") else None
        inst = simulate_instance(spec, seed, stat in EIGVEC_STATISTICS, trace_nu)
        if stat in CLT_STATISTICS:
            l_hat_nu = float(inst.l_hat[nu - 1])
            l_nu = float(spec.spikes[nu - 1])
            bulk = inst.bulk_trace if trace_nu else ctr.oracle_centering(l_nu, spec.N, spec.M, spec.n)
            c = ctr.clt_centering(stat[4:], nu, spec.n, bulk, x_shift, inst.l_hat)
            return ctr.clt_statistic_value(l_hat_nu, l_nu, c, spec.law, spec.n), None, seed
        al = alignment(EigenSystem(inst.l_hat, inst.vectors), None, spec.spikes, nu)
        source = inst.l_hat if config.empirical else spec.spikes
        es = eigvec_statistic(al, source, nu, spec.n, spec.N, spec.M, stat[7:], config.empirical)
        return es.value, None, seed
    except REPLICATE_FAULTS as exc:
        return math.nan, type(exc).__name__, seed


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run all replicates and aggregate; deterministic given master_seed."""
    config.validate()
    if config.statistic not in CLT_STATISTICS + EIGVEC_STATISTICS:
        raise ConfigInvalid(f"{config.statistic!r} is not a clt or eigvec statistic")
    config_flags = []
    if not check_separation(config.spec, config.nu, config.eps0).separated:
        config_flags.append("not_separated")
    if config.spec.spikes[config.nu - 1] <= 1.0 + config.eps0:
        config_flags.append("no_divergent_spike")
    x_shift, row_extra, extra = 0.0, {}, {}
    if config.statistic in ("clt_mixed", "clt_oracle"):
        # one build of the polynomial coefficients serves x and its residual
        spec = config.spec
        mode = ctr.resolve_x_mode(config.x_mode, spec.n, spec.M)
        residual = 0.0
        if mode != "zero":
            coeffs = ctr.polynomial_coefficients(spec.spikes, config.nu, spec.n)
            x_shift = ctr.deterministic_shift(spec.spikes, config.nu, spec.n, mode, coeffs)
            residual = ctr.root_residual(coeffs, x_shift)
        row_extra = {"x": x_shift, "x_residual": residual}
        extra = dict(row_extra, x_mode=mode)

    results = fan_out(
        lambda r: _replicate_value(config, r, x_shift),
        range(config.replicates),
        config.workers,
    )
    values, flags, rows = [], [], []
    for r, (value, flag, seed) in enumerate(results):
        flags.append(flag)
        if flag is None:
            values.append(value)
        rows.append(
            {
                "replicate": r,
                "variant": config.statistic,
                "value": None if flag is not None else value,
                "nu": config.nu,
                "n": config.spec.n,
                "N": config.spec.N,
                "M": config.spec.M,
                "seed": seed,
                "flag": flag,
                **row_extra,
            }
        )
    samples = np.asarray(values, dtype=np.float64)
    ks = ks_statistic(samples, _normal_cdf) if len(samples) else math.nan
    mean, var, skew, kurt = _moments(samples)
    return ExperimentReport(
        samples=samples,
        ks_normal=ks,
        mean=mean,
        variance=var,
        skewness=skew,
        kurtosis=kurt,
        per_replicate_flags=flags,
        config_flags=config_flags,
        rows=rows,
        extra=extra,
    )


def consistency_report(config: ExperimentConfig) -> dict:
    """Per-spike consistency diagnostics (ratio errors and inner products).

    For every replicate and every nu in 1..M computes
    max_{k <= nu} |l_hat_k / l_k - 1| and <p_nu, u_nu>^2; medians skip flagged rows (NaN).
    """
    config.validate()
    spec = config.spec
    flags = []
    if spec.spikes[-1] <= 1.0 + config.eps0:
        flags.append("no_divergent_spike")
    for nu in range(1, spec.M + 1):
        if not check_separation(spec, nu, config.eps0).separated:
            flags.append(f"not_separated:{nu}")

    def one(r: int):
        seed = config.replicate_seed(r)
        try:
            inst = simulate_instance(spec, seed, need_vectors=True)
        except REPLICATE_FAULTS as exc:
            return np.full(spec.M, math.nan), np.full(spec.M, math.nan), seed, type(exc).__name__
        rel = np.abs(inst.l_hat / spec.spikes - 1.0)
        max_err = np.maximum.accumulate(rel)
        inner_sq = inst.vectors[np.arange(spec.M), np.arange(spec.M)] ** 2
        return max_err, inner_sq, seed, None

    results = fan_out(one, range(config.replicates), config.workers)
    max_errs = np.vstack([r[0] for r in results])
    inners = np.vstack([r[1] for r in results])
    replicate_flags = [r[3] for r in results]
    ok = np.array([f is None for f in replicate_flags])

    def median(values: np.ndarray) -> np.ndarray:
        return np.median(values[ok], axis=0) if ok.any() else np.full(spec.M, math.nan)

    return {
        "median_max_ratio_error": median(max_errs),
        "median_inner_sq": median(inners),
        "max_ratio_error": max_errs,
        "inner_sq": inners,
        "flags": flags,
        "per_replicate_flags": replicate_flags,
        "successes": int(ok.sum()),
        "flagged": int((~ok).sum()),
        "seeds": [r[2] for r in results],
        "nu": config.nu,
    }


def _reduce_rows(law, stream, width: int, block: int, draws, reduce) -> None:
    """``reduce(rows, *values)`` over every row of ``width`` values of ``draws``.

    A draw ``(first row, count, starts)`` is ``count`` values of ``law`` at
    each uniform offset in ``starts``, one value array per offset for
    ``reduce``. It is cut into blocks of ``block``
    units, rounded down to whole rows, fanned out over the cores. A block
    reduces its whole rows and keeps the pieces of rows cut by a segment
    edge; these are put back together in flat order and reduced at the end.
    """
    step = max(1, block // width) * width
    blocks = [
        (row * width, count, starts, lo)
        for row, count, starts in draws
        for lo in range(0, law.units(count)[0], step)
    ]

    def run(item) -> list:
        base, count, starts, lo = item
        hi = min(lo + step, law.units(count)[0])
        pieces = []
        for segments in zip(*(law.sample_block(stream, s, count, lo, hi) for s in starts)):
            flat = base + segments[0][0]
            values = [v for _, v in segments]
            end = flat + len(values[0])
            first = min(-(-flat // width) * width, end)  # the whole rows are flat [first, last)
            last = max(end // width * width, first)
            i, j = first - flat, last - flat
            if j > i:
                reduce(slice(first // width, last // width), *(v[i:j] for v in values))
            for a, b in ((0, i), (j, end - flat)):
                if b > a:
                    pieces.append((flat + a, *(v[a:b].copy() for v in values)))
        return pieces

    pieces = sorted(
        [piece for part in fan_out(run, blocks) for piece in part], key=lambda piece: piece[0]
    )
    if pieces:
        flats, *values = zip(*pieces)
        reduce(sorted({flat // width for flat in flats}), *(np.concatenate(v) for v in values))


#: Matrices per stream draw of concentration_sm_check: part of the stream
#: layout, not a knob. A gaussian draw of k values pairs uniform j with
#: uniform (k + 1) // 2 + j, so the chunk fixes which uniforms meet.
_SM_CHUNK = 128
#: Units (normal pairs, else values) per block of concentration_sm_check,
#: rounded down to whole matrices: 2 MB per value array. 2^17 lost
#: throughput (more interpreter-lock round trips beside the pool's SVDs);
#: 2^19 raised the peak memory.
_SM_BLOCK = 1 << 18


def _sm_singular_values(p: int, q: int, law, reps: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(s_1, s_q) of each matrix of concentration_sm_check, in blocks of its draws.

    Bit-identical to SVDs of whole draws of _SM_CHUNK matrices at a time.
    """
    stream = Stream(seed, "concentration-sm", p, q, law.label())
    draws, offset = [], 0
    for done in range(0, reps, _SM_CHUNK):
        count = min(_SM_CHUNK, reps - done) * p * q
        draws.append((done, count, (offset,)))
        offset += law.units(count)[1]
    s1, sq = np.empty(reps), np.empty(reps)

    def reduce(rows, a: np.ndarray) -> None:
        s = np.linalg.svd(a.reshape(-1, p, q), compute_uv=False)
        s1[rows], sq[rows] = s[:, 0], s[:, -1]

    _reduce_rows(law, stream, p * q, _SM_BLOCK, draws, reduce)
    return s1, sq


def concentration_sm_check(
    p: int,
    q: int,
    law,
    t: float,
    reps: int,
    seed: int,
    C: float = 2.0,
) -> dict:
    """Empirical violation rate of the two-sided singular value band.

    A replicate violates when s_1 or s_q of a p x q matrix (q <= p) with
    i.i.d. entries from ``law`` leaves [sqrt(p) - C (sqrt(q) + t),
    sqrt(p) + C (sqrt(q) + t)]. The true bound guarantees rate
    <= 2 exp(-t^2) for a universal constant; C is a calibrated stand-in.
    """
    if p < 1 or q < 1 or reps < 1:
        raise InvalidDims(f"need p, q, reps >= 1, got ({p}, {q}, {reps})")
    if q > p:
        raise InvalidDims(f"the band is stated for q <= p, got (p, q) = ({p}, {q})")
    if not (math.isfinite(t) and math.isfinite(C) and t >= 0.0 and C >= 0.0):
        raise ConfigInvalid(f"t and C must be finite and >= 0, got t = {t}, C = {C}")
    lower = math.sqrt(p) - C * (math.sqrt(q) + t)
    upper = math.sqrt(p) + C * (math.sqrt(q) + t)
    s1, sq = _sm_singular_values(p, q, law, reps, seed)
    violations = int(np.sum((s1 > upper) | (s1 < lower) | (sq > upper) | (sq < lower)))
    return {
        "violations": violations,
        "rate": violations / reps,
        "band": (lower, upper),
        "reps": reps,
        "guaranteed_rate_shape": 2.0 * math.exp(-t * t),
    }


#: Units (normal pairs, else values) per block of concentration_hw_check,
#: rounded down to whole rows: about 2 MB per block per draw.
_HW_BLOCK = 1 << 17


def concentration_hw_check(
    p: int,
    law,
    matrixC: np.ndarray | None,
    t_grid,
    reps: int,
    seed: int,
) -> dict:
    """Empirical tails of y^T C y - E and of the decoupled form y^T C y'.

    For each t the report carries P(|y^T C y - tr C| >= t) and
    P(|y^T C y'| >= t) next to the bound shape
    min(t^2 / (p ||C||^2), t / ||C||); the fitted constant is the largest c
    with empirical tail <= 2 exp(-c shape(t)) across the grid. ``matrixC``
    None is the p x p identity, and y C = y is not formed.

    The reps x p draws y and y2 are made in blocks at their stream offsets
    and reduced row by row (``_reduce_rows``), so memory is
    O(workers x block), not O(reps p). With ``matrixC`` None the result is
    bit-identical to one whole draw of each; otherwise ``y C`` is formed by
    blocks of rows, and ``samples_hw`` agrees with the whole-matrix product
    to 1e-12 of max |y^T C y|.
    """
    if p < 1 or reps < 1:
        raise InvalidDims(f"need p, reps >= 1, got ({p}, {reps})")
    if matrixC is None:
        opnorm, trace = 1.0, float(p)
    else:
        C = np.asarray(matrixC, dtype=np.float64)
        if C.shape != (p, p):
            raise InvalidDims(f"matrixC must be {p}x{p}, got {C.shape}")
        opnorm = float(np.linalg.norm(C, 2)) if np.any(C) else 0.0
        trace = float(np.trace(C))
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if not np.all(np.isfinite(t_grid) & (t_grid >= 0.0)):
        raise ConfigInvalid(f"every t must be finite and >= 0, got {t_grid.tolist()}")
    stream = Stream(seed, "concentration-hw", p, law.label())
    count = reps * p
    used = law.units(count)[1]  # y reads uniforms [0, used), y2 [used, 2 used)
    quad = np.empty(reps)
    cross = np.empty(reps)

    def reduce(rows, y: np.ndarray, y2: np.ndarray) -> None:
        y, y2 = y.reshape(-1, p), y2.reshape(-1, p)
        yC = y if matrixC is None else y @ C
        quad[rows] = np.einsum("ij,ij->i", yC, y)
        cross[rows] = np.einsum("ij,ij->i", yC, y2)

    _reduce_rows(law, stream, p, _HW_BLOCK, [(0, count, (0, used))], reduce)
    tail_hw = np.array([np.mean(np.abs(quad - trace) >= t) for t in t_grid])
    tail_ahw = np.array([np.mean(np.abs(cross) >= t) for t in t_grid])
    if opnorm > 0.0:
        shape = np.minimum(t_grid**2 / (p * opnorm**2), t_grid / opnorm)
    else:
        shape = np.zeros_like(t_grid)

    def fitted(tails: np.ndarray) -> float:
        cs = [
            -math.log(tl / 2.0) / sh
            for tl, sh in zip(tails, shape)
            if tl > 0.0 and sh > 0.0
        ]
        return min(cs) if cs else math.inf

    return {
        "t": t_grid,
        "tail_hw": tail_hw,
        "tail_ahw": tail_ahw,
        "shape": shape,
        "c_hw": fitted(tail_hw),
        "c_ahw": fitted(tail_ahw),
        "trace": trace,
        "opnorm": opnorm,
        "samples_hw": quad - trace,
        "reps": reps,
    }

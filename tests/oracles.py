"""Independent reference implementations used only as test oracles.

Everything here is deliberately naive: schoolbook polynomial-matrix
products, fresh expansion of each power, exact rational arithmetic for the
tiny cases, high-precision Newton refinement for roots, an SVD of the bulk
rows for the block decomposition, whole draws for the streamed
concentration checks, and the eigenvalue rule for the singular-value
band. None of it shares code with the
package implementations it checks, apart from the samplers that draw the
whole matrices (checked against Box-Muller in test_rng). The RNG oracles
take only a stream's key from ``Stream``: they read a numpy Philox
generator in sequence, or move one through its ``state`` dict.

The last section holds the paper's quantities that the tests and the
acceptance criteria evaluate but no command computes: the expanded x map,
the MP edges and density, the empirical Stieltjes transform, the inversion
gap, exact chi-square-mixture moments and the auxiliary-lemma diagnostics.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from spikedcov.centering import spike_resolvent
from spikedcov.eigen import BlockDecomposition, spike_quadratic_form
from spikedcov.errors import NotInvertible, NumericPrecondition, SpikeAtOne, SpikedCovError
from spikedcov.rng import Stream


def sequential(master_seed, *labels):
    """A numpy generator that reads the stream ``Stream(master_seed, *labels)`` in sequence."""
    return np.random.Generator(np.random.Philox(key=Stream(master_seed, *labels).key))


def philox_at(key, offset):
    """A numpy generator moved to ``offset`` uniforms of the stream ``key``.

    It writes the four 64-bit words of the counter offset // 4 into the
    Philox state, marks the buffered block used up, and skips offset % 4
    raw values.
    """
    bits = np.random.Philox(key=key)
    state = bits.state
    counter = offset // 4
    state["state"]["counter"] = np.array(
        [(counter >> (64 * i)) & ((1 << 64) - 1) for i in range(4)], dtype=np.uint64
    )
    state["buffer_pos"] = 4
    bits.state = state
    bits.random_raw(offset % 4)
    return np.random.Generator(bits)


def box_muller_reference(gen, shape):
    """The allocating Box-Muller formula that Stream.normals computes in place.

    ``gen`` is a numpy Generator, read in sequence.
    """
    count = int(np.prod(shape)) if shape else 1
    half = (count + 1) // 2
    u1 = 1.0 - gen.random(size=half)
    u2 = gen.random(size=half)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return z[:count].reshape(shape)


def law_values_reference(law, gen, shape):
    """The allocating transforms that ``EntryLaw.sample`` computes in place, read from ``gen``."""
    if law.kind == "gaussian":
        return box_muller_reference(gen, shape)
    u = gen.random(size=shape)
    if law.kind == "uniform":
        return (2.0 * u - 1.0) * math.sqrt(3.0)
    p = law.p
    return np.where(u < p, math.sqrt((1.0 - p) / p), -math.sqrt(p / (1.0 - p)))


def polymul_mat(p, q):
    """Product of two matrix-coefficient polynomials (lists of matrices)."""
    out = [None] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            ab = a @ b
            out[i + j] = ab if out[i + j] is None else out[i + j] + ab
    return out


def naive_matrix_polynomial(spikes, nu, n, s):
    """Coefficients of Mnu(z), expanding (A + zB)^j afresh for every j."""
    l = np.asarray(spikes, dtype=np.float64)
    M = len(l)
    l_nu = l[nu - 1]
    r = np.array([0.0 if k == nu - 1 else 1.0 / (l[k] - l_nu) for k in range(M)])
    sq = np.diag(np.sqrt(l))
    ones = np.ones((M, M))
    A = -np.diag(r) @ sq @ ones @ sq
    B = float(n) * l_nu * np.diag(r)
    P0 = np.diag(r) @ sq @ ones
    coeffs = [np.zeros((M, M)) for _ in range(s + 1)]
    for j in range(s + 1):
        power = [np.eye(M)]
        for _ in range(j):
            power = polymul_mat(power, [A, B])
        for d in range(len(power)):
            if d <= s:
                coeffs[d] = coeffs[d] + sq @ power[d] @ P0 / float(n) ** (j + 1)
    return coeffs


def naive_abc(coeffs, spikes, nu, n):
    """(a, b, c) from full matrix-polynomial products, (nu, nu) entry last."""
    l = np.asarray(spikes, dtype=np.float64)
    M = len(l)
    s = len(coeffs) - 1
    deg = 2 * s
    ones = np.ones((M, M))
    inv_l = np.diag(1.0 / l)
    a = np.zeros(deg + 1)
    for i in range(s + 1):
        a[i] = -sum(coeffs[i][k, nu - 1] for k in range(M) if k != nu - 1)
    transposed = [c.T for c in coeffs]
    prod_lam = polymul_mat(polymul_mat(transposed, [inv_l]), coeffs)
    prod_id = polymul_mat(transposed, coeffs)
    prod_ones = polymul_mat(polymul_mat(transposed, [ones]), coeffs)
    b = np.zeros(deg + 1)
    c = np.zeros(deg + 1)
    for d in range(deg + 1):
        b[d] = -n * l[nu - 1] * prod_lam[d][nu - 1, nu - 1]
        c[d] = n * prod_id[d][nu - 1, nu - 1] + prod_ones[d][nu - 1, nu - 1]
    return a, b, c


def naive_compose_eval(a, b, c, s, z):
    """Direct evaluation of sum_{j<=s} P(z) Q(z)^j."""
    P = sum((2 * a[i] + b[i] + c[i]) * z**i for i in range(len(a)))
    Q = sum(b[i] * z**i for i in range(len(b)))
    return sum(P * Q**j for j in range(s + 1))


# exact-rational pipeline for tiny instances -------------------------------

def _frac_matmul(A, B):
    rows, inner, cols = len(A), len(B), len(B[0])
    return [
        [sum(A[i][k] * B[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def _frac_polymul(p, q):
    out = [None] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            ab = _frac_matmul(a, b)
            if out[i + j] is None:
                out[i + j] = ab
            else:
                out[i + j] = [
                    [x + y for x, y in zip(r1, r2)] for r1, r2 in zip(out[i + j], ab)
                ]
    return out


def exact_rational_abc(spike_squares, nu, n, s):
    """Exact (a, b, c) when every sqrt(l_k) is rational.

    ``spike_squares`` lists rational sqrt-spikes q_k (so l_k = q_k^2),
    which keeps the whole Mnu pipeline inside Q. Returns Fraction triples.
    """
    q = [Fraction(v) for v in spike_squares]
    l = [v * v for v in q]
    M = len(l)
    l_nu = l[nu - 1]
    n = Fraction(n)
    r = [Fraction(0) if k == nu - 1 else 1 / (l[k] - l_nu) for k in range(M)]
    zero = [[Fraction(0)] * M for _ in range(M)]
    eye = [[Fraction(int(i == j)) for j in range(M)] for i in range(M)]
    # A = -R L^{1/2} ones L^{1/2}: entry (i, j) = -r_i sqrt(l_i) sqrt(l_j)
    A = [[-r[i] * q[i] * q[j] for j in range(M)] for i in range(M)]
    B = [[n * l_nu * r[i] if i == j else Fraction(0) for j in range(M)] for i in range(M)]
    P0 = [[r[i] * q[i] for _ in range(M)] for i in range(M)]
    coeffs = [[row[:] for row in zero] for _ in range(s + 1)]
    for j in range(s + 1):
        power = [eye]
        for _ in range(j):
            power = _frac_polymul(power, [A, B])
        scale = n ** -(j + 1)
        for d in range(min(len(power), s + 1)):
            term = _frac_matmul([[q[i] * Fraction(int(i == k)) for k in range(M)] for i in range(M)], _frac_matmul(power[d], P0))
            coeffs[d] = [
                [x + scale * y for x, y in zip(r1, r2)]
                for r1, r2 in zip(coeffs[d], term)
            ]
    deg = 2 * s
    a = [Fraction(0)] * (deg + 1)
    for i in range(s + 1):
        a[i] = -sum(coeffs[i][k][nu - 1] for k in range(M) if k != nu - 1)
    b = [Fraction(0)] * (deg + 1)
    c = [Fraction(0)] * (deg + 1)
    for i in range(s + 1):
        for j in range(s + 1):
            d = i + j
            col_i = [coeffs[i][k][nu - 1] for k in range(M)]
            col_j = [coeffs[j][k][nu - 1] for k in range(M)]
            b[d] -= n * l_nu * sum(x * y / lam for x, y, lam in zip(col_i, col_j, l))
            c[d] += n * sum(x * y for x, y in zip(col_i, col_j))
            c[d] += sum(col_i) * sum(col_j)
    return a, b, c


def newton_refine_root(a, b, c, s, x0, dps=60):
    """High-precision Newton refinement of x = P(x) sum_{j<=s} Q(x)^j.

    P = 2a + b + c and Q = b, the factored x map, evaluated with their
    derivatives by mpmath.polyval at ``dps`` digits.
    """
    import mpmath

    with mpmath.workdps(dps):
        # polyval takes the highest degree first
        P = [2 * mpmath.mpf(float(ai)) + mpmath.mpf(float(bi)) + mpmath.mpf(float(ci))
             for ai, bi, ci in zip(a, b, c)][::-1]
        Q = [mpmath.mpf(float(bi)) for bi in b][::-1]
        G = [mpmath.mpf(1)] * (s + 1)

        def g_and_slope(x):
            p, dp = mpmath.polyval(P, x, derivative=True)
            q, dq = mpmath.polyval(Q, x, derivative=True)
            geo, dgeo = mpmath.polyval(G, q, derivative=True)
            return p * geo - x, dp * geo + p * dgeo * dq - 1

        x = mpmath.mpf(float(x0))
        for _ in range(80):
            g, dg = g_and_slope(x)
            step = g / dg
            x = x - step
            if abs(step) < mpmath.mpf(10) ** (-dps + 5):
                break
        return float(x)


def ecdf(sample):
    """Empirical CDF of a reference sample, usable as a ks_statistic target."""
    ref = np.sort(np.asarray(sample, dtype=np.float64))

    def cdf(t):
        return np.searchsorted(ref, t, side="right") / len(ref)

    return cdf


def hw_unstreamed(p, law, t_grid, reps, seed):
    """concentration_hw_check's samples and tails from whole draws of y and y2.

    The formula the streamed check replaced: both reps x p draws held at
    once and reduced row by row in one einsum each.
    """
    stream = Stream(seed, "concentration-hw", p, law.label())
    y = law.sample(stream, (reps, p))
    y2 = law.sample(stream, (reps, p))
    trace = float(p)
    quad = np.einsum("ij,ij->i", y, y)
    cross = np.einsum("ij,ij->i", y, y2)
    return {
        "samples_hw": quad - trace,
        "cross": cross,
        "tail_hw": np.array([np.mean(np.abs(quad - trace) >= t) for t in t_grid]),
        "tail_ahw": np.array([np.mean(np.abs(cross) >= t) for t in t_grid]),
    }


def extreme_singular_values(a):
    """(s_1, s_q) of each p x q matrix of the stack ``a``, from the eigenvalues of a^T a.

    The eigenvalue rule concentration_sm_check replaced. Eigenvalues below
    0, which a rank-deficient matrix's rounding can give, count as 0. Each
    s^2 is within 1e-12 s_1^2 of the SVD's (tested on its own).
    """
    ev = np.linalg.eigvalsh(np.matmul(a.transpose(0, 2, 1), a))  # ascending
    np.maximum(ev, 0.0, out=ev)
    return np.sqrt(ev[:, -1]), np.sqrt(ev[:, 0])


def sm_whole_draws(p, q, law, reps, seed):
    """concentration_sm_check's p x q matrices, each chunk of up to 128 drawn in one stack."""
    stream = Stream(seed, "concentration-sm", p, q, law.label())
    for done in range(0, reps, 128):
        yield law.sample(stream, (min(128, reps - done), p, q))


def sm_band_oracle(a, lower, upper):
    """Whether s_1 or s_q of each matrix of the stack ``a`` leaves [lower, upper]."""
    s1, sq = extreme_singular_values(a)
    return (s1 > upper) | (s1 < lower) | (sq > upper) | (sq < lower)


# the paper's quantities that no command computes ---------------------------

MOMENT_ORDER_CAP = 8
MOMENT_WEIGHTS_CAP = 12


class TooLarge(SpikedCovError):
    """Combinatorial computation exceeds its configured caps."""


class InsideSpectrum(NumericPrecondition):
    """Empirical Stieltjes transform evaluated inside the spectrum."""


def compose_O(a, b, c, s: int) -> tuple[float, np.ndarray]:
    """Expand sum_{0 <= j <= s} P(z) Q(z)^j into (Obar, Obar_j).

    P = sum (2 a_i + b_i + c_i) z^i and Q = sum b_i z^i, both of degree at
    most 2s, so the expansion has degree at most 2 s^2 + 2s (enforced cap).
    Returns the constant term and the coefficient vector indexed 1..2s^2+2s.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    P = 2.0 * a + b + c
    max_deg = 2 * s * s + 2 * s
    total = np.zeros(max_deg + 1)
    qpow = np.zeros(max_deg + 1)
    qpow[0] = 1.0
    for j in range(s + 1):
        term = np.convolve(P, qpow)[: max_deg + 1]
        total[: len(term)] += term
        if j < s:
            qpow = np.convolve(qpow, b)[: max_deg + 1]
    return float(total[0]), total[1:]


def mp_edges(gamma: float) -> tuple[float, float]:
    """Bulk edges (a, b) = ((1 - sqrt gamma)^2, (1 + sqrt gamma)^2) of the MP law."""
    s = np.sqrt(gamma)
    return (1.0 - s) ** 2, (1.0 + s) ** 2


def mp_density(x, gamma: float):
    """MP density sqrt((b-x)(x-a)) / (2 pi gamma x) on [a, b], 0 outside."""
    a, b = mp_edges(gamma)
    x = np.asarray(x, dtype=np.float64)
    inside = (x >= a) & (x <= b) & (x > 0.0)
    out = np.zeros_like(x)
    xs = x[inside]
    out[inside] = np.sqrt((b - xs) * (xs - a)) / (2.0 * np.pi * gamma * xs)
    return out if out.ndim else float(out)


def empirical_stieltjes(M_diag, z: float, N: int, M: int) -> float:
    """(1/(N-M)) tr((z I - S_BB)^{-1}) from the bulk spectrum M_diag."""
    m = np.asarray(M_diag, dtype=np.float64)
    if z <= float(np.max(m)):
        raise InsideSpectrum(f"z = {z:g} inside the spectrum (max = {np.max(m):g})")
    return float(np.sum(1.0 / (z - m)) / (N - M))


def spike_forward_map(l: float, gamma: float) -> float:
    """lbar = l (1 + gamma / (l - 1)), the almost-sure image of a spike l > 1."""
    if l <= 1.0 + 1e-12:
        raise SpikeAtOne(f"spike forward map needs l > 1, got {l:g}")
    return l * (1.0 + gamma / (l - 1.0))


def inversion_gap(M_diag, l_nu: float, N: int, M: int, n: int) -> float:
    """sqrt(n) (1/(l-1) - (1/(N-M)) tr(M (lbar I - M)^{-1})).

    The quantity the oracle-centering proof drives to zero; ``lbar`` is the
    spike forward map at gamma_n = (N - M)/n.
    """
    gamma_n = (N - M) / n
    lbar = spike_forward_map(l_nu, gamma_n)
    m = np.asarray(M_diag, dtype=np.float64)
    top = float(np.max(m)) if m.size else 0.0
    if lbar <= top:
        raise NotInvertible(f"lbar = {lbar:g} <= max eigenvalue of S_BB = {top:g}")
    trace_term = float(np.sum(m / (lbar - m)) / (N - M))
    return float(np.sqrt(n) * (1.0 / (l_nu - 1.0) - trace_term))


def chi_mixture_moment(c, m: int) -> float:
    """Exact m-th moment of the mixture sum_k c_k y_k^2 by enumerating compositions.

    beta_m = sum over (q_k) with sum q_k = m of
    multinomial(m; q) prod_k (2 q_k)! / (2^{q_k} q_k!) c_k^{q_k}.
    Capped at m <= 8 and len(c) <= 12 (combinatorial blow-up).
    """
    c = np.atleast_1d(np.asarray(c, dtype=np.float64))
    K = len(c)
    if m > MOMENT_ORDER_CAP or K > MOMENT_WEIGHTS_CAP:
        raise TooLarge(f"moment order {m} / {K} weights exceed caps")
    if m == 0:
        return 1.0
    fact = [math.factorial(i) for i in range(2 * m + 1)]
    total = 0.0
    # compositions of m into K nonnegative parts via stars and bars
    for bars in combinations(range(m + K - 1), K - 1):
        prev = -1
        term = float(fact[m])
        for k, bar in enumerate(list(bars) + [m + K - 1]):
            q = bar - prev - 1
            prev = bar
            if q:
                # multinomial 1/q_k!, chi-square moment (2q)!/(2^q q!), weight
                term *= fact[2 * q] / (2.0**q * fact[q] ** 2) * c[k] ** q
        total += term
    return total


def svd_block_decompose(Z, spikes) -> BlockDecomposition:
    """``block_decompose`` through an SVD of the bulk rows instead of their Gram.

    With (1/sqrt(n)) Z_B = V diag(s) H^T (thin SVD, k = min(N - M, n)
    values) and T = H^T Z_A^T / sqrt(n), the cross block is
    S_BA = V diag(s) T Lambda^{1/2}, so in the basis V it is
    W = diag(s) T Lambda^{1/2}. When N - M > n, M_diag gains (N - M) - n
    zeros and W as many zero rows, for the null space of Z_B^T.
    """
    Z = np.asarray(Z, dtype=np.float64)
    ls = np.atleast_1d(np.asarray(spikes, dtype=np.float64))
    M = len(ls)
    N, n = Z.shape
    Z_A = Z[:M]
    _, s, Ht = np.linalg.svd(Z[M:] / np.sqrt(n), full_matrices=False)
    T = (Ht @ Z_A.T) / np.sqrt(n)
    pad = N - M - len(s)
    M_diag = np.concatenate([s**2, np.zeros(pad)])
    W = np.concatenate([s[:, np.newaxis] * T * np.sqrt(ls), np.zeros((pad, M))])
    XA = np.sqrt(ls)[:, np.newaxis] * Z_A
    return BlockDecomposition(S_AA=(XA @ XA.T) / n, M_diag=M_diag, W=W, n=n)


def lemma_diagnostics(bd, al, spikes, nu, n, N, M) -> dict:
    """Numerical values of the three auxiliary-lemma statements.

    (i)  l_nu^4 sum_{k != nu} (t_k^T M (l_hat I - M)^{-2} t_nu)^2
    (ii) (n/M)  sum_{k != nu} (t_k^T M (l_hat I - M)^{-1} t_nu)^2
    (iii) beta_nu = ||R_nu D_nu e_nu|| and the ratio ||a - e|| / beta_nu
    (iv) l_hat_nu R_nu^2 - N/n
    """
    ls = np.atleast_1d(np.asarray(spikes, dtype=np.float64))
    l_nu = ls[nu - 1]
    mask = np.arange(M) != nu - 1
    # W = M^{1/2} T Lambda^{1/2} (see svd_block_decompose), so
    # t_k^T M (l_hat I - M)^{-p} t_nu is entry (k, nu) of the quadratic form
    # W^T (l_hat I - M)^{-p} W divided by sqrt(l_k l_nu)
    scale = np.sqrt(ls * l_nu)
    g1 = spike_quadratic_form(bd, al.l_hat, power=1)[:, nu - 1] / scale
    g2 = spike_quadratic_form(bd, al.l_hat, power=2)[:, nu - 1] / scale
    sum_sq_1 = float(np.sum(g1[mask] ** 2))
    sum_sq_2 = float(np.sum(g2[mask] ** 2))
    r = spike_resolvent(ls, nu)
    D = bd.S_AA - np.diag(ls) + spike_quadratic_form(bd, al.l_hat, power=1)
    e = np.zeros(M)
    e[nu - 1] = 1.0
    beta = float(np.linalg.norm(r * (D @ e)))
    diff_norm = float(np.linalg.norm(al.a - e))
    return {
        "lemma1_a": l_nu**4 * sum_sq_2,
        "lemma1_b": (n / M) * sum_sq_1,
        "beta_nu": beta,
        "diff_over_beta": diff_norm / beta if beta > 0.0 else (0.0 if diff_norm == 0.0 else math.inf),
        "lemma3": al.l_hat * al.R**2 - N / n,
    }

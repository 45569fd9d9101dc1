"""Independent reference implementations used only as test oracles.

Everything here is deliberately naive: schoolbook polynomial-matrix
products, fresh expansion of each power, exact rational arithmetic for the
tiny cases, high-precision Newton refinement for roots, and whole draws
for the streamed concentration check. None of it shares code with the
package implementations it checks, apart from the samplers that draw the
whole matrices (checked against Box-Muller in test_rng). The RNG oracles
take only a stream's key from ``Stream``: they read a numpy Philox
generator in sequence, or move one through its ``state`` dict.
"""

import math
from fractions import Fraction

import numpy as np

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


def hw_unstreamed(p, law, matrixC, t_grid, reps, seed):
    """concentration_hw_check's samples and tails from whole draws of y and y2.

    The formula the streamed check replaced: both reps x p draws held at
    once and reduced row by row in one einsum each.
    """
    stream = Stream(seed, "concentration-hw", p, law.label())
    y = law.sample(stream, (reps, p))
    y2 = law.sample(stream, (reps, p))
    if matrixC is None:
        yC, trace = y, float(p)
    else:
        yC, trace = y @ np.asarray(matrixC, dtype=np.float64), float(np.trace(matrixC))
    quad = np.einsum("ij,ij->i", yC, y)
    cross = np.einsum("ij,ij->i", yC, y2)
    return {
        "samples_hw": quad - trace,
        "cross": cross,
        "tail_hw": np.array([np.mean(np.abs(quad - trace) >= t) for t in t_grid]),
        "tail_ahw": np.array([np.mean(np.abs(cross) >= t) for t in t_grid]),
    }


def sm_unstreamed(p, q, law, reps, seed):
    """concentration_sm_check's per-matrix (s_1, s_q) from whole draws.

    The formula the streamed check replaced: each chunk of up to 128
    matrices drawn in one stack and put through one batched SVD.
    """
    stream = Stream(seed, "concentration-sm", p, q, law.label())
    svals = [
        np.linalg.svd(law.sample(stream, (min(128, reps - done), p, q)), compute_uv=False)
        for done in range(0, reps, 128)
    ]
    svals = np.concatenate(svals)
    return svals[:, 0], svals[:, -1]

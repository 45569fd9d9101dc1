"""Independent reference implementations used only as test oracles.

Everything here is deliberately naive: schoolbook polynomial-matrix
products, fresh expansion of each power, exact rational arithmetic for the
tiny cases, and high-precision Newton refinement for roots. None of it
shares code with the package implementations it checks.
"""

from fractions import Fraction

import numpy as np


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


def newton_refine_root(O_bar, O_j, x0, dps=60):
    """High-precision Newton refinement of x = Obar + sum Obar_j x^j."""
    import mpmath

    with mpmath.workdps(dps):
        coeffs = [mpmath.mpf(float(v)) for v in O_j]
        obar = mpmath.mpf(float(O_bar))

        def g(x):
            acc = mpmath.mpf(0)
            for cj in reversed(coeffs):
                acc = acc * x + cj
            return obar + acc * x - x

        def dg(x):
            acc = mpmath.mpf(0)
            for j in range(len(coeffs), 0, -1):
                acc = acc * x + j * coeffs[j - 1]
            return acc - 1

        x = mpmath.mpf(float(x0))
        for _ in range(80):
            step = g(x) / dg(x)
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

"""CLT centerings and the polynomial machinery for the deterministic shift x.

The spike-interaction shift x is characterized as the root of x = F(x), with
the map F built from a matrix-valued polynomial in z from the spike
resolvent: with R_nu = diag(1/(l_k - l_nu), 0 at nu) and Itilde the
all-ones M x M matrix,

    Mnu(z) = sum_{0 <= j <= s} (1/n^{j+1}) Lambda^{1/2}
             (-R_nu Lambda^{1/2} Itilde Lambda^{1/2} + n z l_nu R_nu)^j
             R_nu Lambda^{1/2} Itilde,

three scalar polynomials a, b, c are read off Mnu, and

    F(y) = P(y) sum_{0 <= j <= s} Q(y)^j,  P = sum (2a_i + b_i + c_i) y^i,
                                           Q = sum b_i y^i.

The truncation order is s = floor(8 ln n / ln(n/M)). The solver evaluates F
in this factored form (degree 2s in y); ``compose_O`` gives the paper's
expansion F(y) = Obar + sum_{1 <= j <= 2 s^2 + 2s} Obar_j y^j, whose
coefficients overflow long before the factored ones as M grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigen import Alignment, BlockDecomposition, shifted_resolvent_diag, spike_quadratic_form
from .errors import (
    InvalidDims,
    NoRoot,
    NotSeparated,
    SeriesDiverges,
    SpikeAtOne,
    TiedEigenvalues,
)
from .model import EntryLaw


def truncation_order(n: int, M: int) -> int:
    """s = floor(8 ln n / ln(n/M)).

    A relative epsilon guards the floor against the last-ulp rounding of the
    log ratio when n/M is an exact power (the ratio is then a small integer).
    """
    if not 1 <= M < n:
        raise InvalidDims(f"need 1 <= M < n, got (n, M) = ({n}, {M})")
    ratio = 8.0 * math.log(n) / math.log(n / M)
    return int(math.floor(ratio + 1e-9))


def spike_resolvent(spikes, nu: int) -> np.ndarray:
    """Diagonal of R_nu: 1/(l_k - l_nu) with a zero at k = nu."""
    ls = np.asarray(spikes, dtype=np.float64)
    l_nu = ls[nu - 1]
    gaps = ls - l_nu
    mask = np.arange(len(ls)) != nu - 1
    if np.any(np.abs(gaps[mask]) < 1e-12 * l_nu):
        raise NotSeparated(f"a spike coincides with l_{nu} = {l_nu:g}")
    r = np.zeros_like(ls)
    r[mask] = 1.0 / gaps[mask]
    return r


def matrix_polynomial_Mnu(spikes, nu: int, n: int, s: int) -> np.ndarray:
    """Coefficients of Mnu(z) as an array of shape (s+1, M, M).

    Computed by iterating P_j = (A + z B) P_{j-1} with
    A = -R_nu Lambda^{1/2} Itilde Lambda^{1/2} and B = n l_nu R_nu diagonal;
    row nu of every coefficient is identically zero because the leftmost
    resolvent factor annihilates it.
    """
    ls = np.asarray(spikes, dtype=np.float64)
    M = len(ls)
    r = spike_resolvent(ls, nu)
    sqrt_l = np.sqrt(ls)
    l_nu = ls[nu - 1]
    # A[k, i] = -sqrt(l_k l_i) / (l_k - l_nu), zero row at nu
    A = -np.outer(r * sqrt_l, sqrt_l)
    b_diag = n * l_nu * r
    # P_0 = R_nu Lambda^{1/2} Itilde: column-constant
    P = [np.tile((r * sqrt_l)[:, np.newaxis], (1, M))]
    coeffs = np.zeros((s + 1, M, M))
    coeffs[0] = P[0] / n
    for j in range(1, s + 1):
        nxt = [A @ P[0]]
        for d in range(1, j):
            nxt.append(A @ P[d] + b_diag[:, np.newaxis] * P[d - 1])
        nxt.append(b_diag[:, np.newaxis] * P[j - 1])
        P = nxt
        inv = n ** -(j + 1.0)
        for d in range(j + 1):
            coeffs[d] += inv * P[d]
    coeffs *= sqrt_l[np.newaxis, :, np.newaxis]
    return coeffs


def abc_coefficients(poly: np.ndarray, spikes, nu: int, n: int):
    """The three scalar polynomials (a, b, c) read off Mnu(z).

    a_i = -sum_{k != nu} (Mnu)_{k nu} at degree i (zero above s by
    convention); b from -n l_nu (Mnu^T Lambda^{-1} Mnu)_{nu nu}; c from
    n (Mnu^T Mnu)_{nu nu} + (Mnu^T Itilde Mnu)_{nu nu}. All returned with
    degrees 0..2s (coefficient convolution for the quadratic forms).
    """
    ls = np.asarray(spikes, dtype=np.float64)
    s = poly.shape[0] - 1
    l_nu = ls[nu - 1]
    cols = poly[:, :, nu - 1]  # (s+1, M): column nu of each coefficient
    deg = 2 * s
    a = np.zeros(deg + 1)
    a[: s + 1] = -(np.sum(cols, axis=1) - cols[:, nu - 1])
    b = np.zeros(deg + 1)
    c = np.zeros(deg + 1)
    inv_l = 1.0 / ls
    col_sums = np.sum(cols, axis=1)
    for i in range(s + 1):
        for j in range(s + 1):
            d = i + j
            b[d] -= n * l_nu * np.dot(cols[i] * inv_l, cols[j])
            c[d] += n * np.dot(cols[i], cols[j]) + col_sums[i] * col_sums[j]
    return a, b, c


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


@dataclass
class PolynomialCoefficients:
    """The scalar polynomials a, b, c of the x map, with its truncation order s."""

    s: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


def polynomial_coefficients(spikes, nu: int, n: int, s: int | None = None) -> PolynomialCoefficients:
    """Full pipeline from spikes to (a, b, c); M = 1 gives all zeros.

    Overflow is left to the solver, which reports non-finite coefficients as
    NoRoot, so it is not warned about here.
    """
    ls = np.atleast_1d(np.asarray(spikes, dtype=np.float64))
    if s is None:
        s = truncation_order(n, len(ls))
    with np.errstate(over="ignore", invalid="ignore"):
        poly = matrix_polynomial_Mnu(ls, nu, n, s)
        a, b, c = abc_coefficients(poly, ls, nu, n)
    return PolynomialCoefficients(s=s, a=a, b=b, c=c)


def _x_map(coeffs: PolynomialCoefficients, y: float) -> float:
    """F(y) = P(y) sum_{j <= s} Q(y)^j by Horner in y and then in Q(y).

    Python floats: an overflow gives inf or nan, never a warning.
    """
    a, b, c = (v.tolist()[::-1] for v in (coeffs.a, coeffs.b, coeffs.c))
    p = q = 0.0
    for ai, bi, ci in zip(a, b, c, strict=True):
        p = p * y + (2.0 * ai + bi + ci)
        q = q * y + bi
    geo = 0.0
    for _ in range(coeffs.s + 1):
        geo = geo * q + 1.0
    return p * geo


def root_residual(coeffs: PolynomialCoefficients, x: float) -> float:
    """|x - F(x)|, the defect of a candidate root."""
    return abs(x - _x_map(coeffs, x))


def solve_x(coeffs: PolynomialCoefficients) -> float:
    """Root of x = F(x) by fixed-point iteration from 0, at most 200 steps.

    Returns x only when it is finite and |x - F(x)| <= 1e-13 (1 + |x|);
    raises NoRoot otherwise, and when a, b or c is not finite.
    """
    if not all(np.isfinite(v).all() for v in (coeffs.a, coeffs.b, coeffs.c)):
        raise NoRoot("the x map has non-finite coefficients")
    x = 0.0
    for _ in range(200):
        nxt = _x_map(coeffs, x)
        done = abs(nxt - x) <= 2.5e-14 * (1.0 + abs(nxt))
        x = nxt
        if done:
            break
    residual = root_residual(coeffs, x)
    if math.isfinite(x) and residual <= 1e-13 * (1.0 + abs(x)):
        return x
    raise NoRoot(f"fixed-point iteration for x did not converge: x = {x:g}, |x - F(x)| = {residual:g}")


def iterate_x_expansion(coeffs: PolynomialCoefficients, k0: int) -> float:
    """(k0 - 1)-step successive substitution X_{t+1} = F(X_t) from X_0 = 0.

    k0 = 1 returns 0 and k0 = 2 returns F(0), the paper's Obar; the
    approximation error to the true root is O((M/n)^{k0}). A non-finite
    X_{k0-1} raises NoRoot.
    """
    if k0 < 1:
        raise InvalidDims(f"need k0 >= 1, got {k0}")
    x = 0.0
    for _ in range(k0 - 1):
        x = _x_map(coeffs, x)
    if not math.isfinite(x):
        raise NoRoot(f"{k0 - 1} substitution steps for x reached {x:g}")
    return x


def statistical_centering(l_hat, nu: int, n: int) -> float:
    """(1/n) sum_{k != nu} l_hat_k / (l_hat_k - l_hat_nu), exactly as written."""
    lh = np.atleast_1d(np.asarray(l_hat, dtype=np.float64))
    l_nu = lh[nu - 1]
    mask = np.arange(len(lh)) != nu - 1
    gaps = lh[mask] - l_nu
    if np.any(np.abs(gaps) < 1e-12 * max(abs(l_nu), 1.0)):
        raise TiedEigenvalues(f"a sample eigenvalue ties l_hat_{nu} = {l_nu:g}")
    return float(np.sum(lh[mask] / gaps) / n)


def oracle_centering(l_nu: float, N: int, M: int, n: int) -> float:
    """(N - M) / (n (l_nu - 1)), the fully deterministic bulk term."""
    if l_nu <= 1.0 + 1e-12:
        raise SpikeAtOne(f"oracle centering needs l > 1, got {l_nu:g}")
    return (N - M) / (n * (l_nu - 1.0))


def resolve_x_mode(x_mode: str | None, n: int, M: int) -> str:
    """Default policy: drop x when M <= sqrt(n)/4 (small-spike-count regime)."""
    if x_mode is None or x_mode == "auto":
        return "zero" if M <= math.sqrt(n) / 4.0 else "root"
    return x_mode


def deterministic_shift(spikes, nu: int, n: int, x_mode: str, coeffs=None) -> float:
    """x per x_mode: "zero", "root" or "iter:k0"; ``coeffs`` reuses built coefficients."""
    if x_mode == "zero":
        return 0.0
    if coeffs is None:
        coeffs = polynomial_coefficients(spikes, nu, n)
    if x_mode == "root":
        return solve_x(coeffs)
    if x_mode.startswith("iter:"):
        return iterate_x_expansion(coeffs, int(x_mode.split(":", 1)[1]))
    raise InvalidDims(f"unknown x_mode {x_mode!r}")


def clt_centering(mode: str, nu: int, n: int, bulk, x: float, l_hat=None) -> float:
    """The CLT centering: empirical, deterministic, or a sum of both.

    mode "mixed" is the trace term + x, "statistical" the trace term + the
    empirical spike sum (needs the top-M sample eigenvalues ``l_hat``; x is
    unused), "oracle" the deterministic bulk term + x. For the two trace
    modes ``bulk`` is tr(S_BB (l_hat_nu I - S_BB)^{-1}), the sum of
    m / (l_hat_nu - m) over the S_BB spectrum, and the trace term is
    bulk / n; for "oracle" it is the oracle term itself.
    """
    if mode == "oracle":
        return bulk + x
    if mode == "mixed":
        return bulk / n + x
    if mode == "statistical":
        if l_hat is None:
            raise InvalidDims("statistical mode needs the top-M sample eigenvalues")
        return bulk / n + statistical_centering(l_hat, nu, n)
    raise InvalidDims(f"unknown mode {mode!r}")


def clt_statistic_value(
    l_hat_nu: float,
    l_nu: float,
    centering: float,
    law: EntryLaw,
    n: int,
) -> float:
    """sqrt(n / (E z^4 - 1)) * (l_hat/l - 1 - centering)."""
    scale = math.sqrt(n / (law.fourth_moment - 1.0))
    return scale * (l_hat_nu / l_nu - 1.0 - centering)


def clt_statistics(
    bd: BlockDecomposition,
    al: Alignment,
    spikes,
    law: EntryLaw,
    mode: str,
    x_mode: str | None = None,
    l_hat=None,
) -> float:
    """The normalized eigenvalue fluctuation under one of the three centerings.

    mode "mixed" uses trace + x, "statistical" uses trace + the empirical
    spike sum (needs the full l_hat vector), "oracle" uses the deterministic
    bulk term + x. x_mode in {"root", "iter:k0", "zero", "auto"}; the
    default drops x when M <= sqrt(n)/4.
    """
    ls = np.atleast_1d(np.asarray(spikes, dtype=np.float64))
    n, M, nu = bd.n, len(ls), al.nu
    l_nu = ls[nu - 1]
    x = 0.0
    if mode != "statistical":
        x = deterministic_shift(ls, nu, n, resolve_x_mode(x_mode, n, M))
    if mode == "oracle":
        bulk = oracle_centering(l_nu, bd.N, M, n)
    else:
        bulk = np.sum(shifted_resolvent_diag(bd.M_diag, al.l_hat))
    centering = clt_centering(mode, nu, n, bulk, x, l_hat)
    return clt_statistic_value(al.l_hat, l_nu, centering, law, n)


@dataclass
class SeriesReport:
    """Residuals of the truncated alignment series at order J."""

    entry_residual: float
    sigma3_residual: float
    decay_ratio: float
    operator_norm: float
    sigma0: float
    sigma3: float
    terms: int


def series_expansion_check(
    bd: BlockDecomposition,
    al: Alignment,
    spikes,
    nu: int,
    J: int,
) -> SeriesReport:
    """Check the entrywise series for a_nu - e_nu and the Sigma3 identity.

    Builds M_nu = R_nu D_nu - (l_hat - l) R_nu with
    D_nu = S_AA - Lambda + Lambda^{1/2} T^T M (l_hat I - M)^{-1} T Lambda^{1/2},
    accumulates partial sums Sigma_{0,k} = sum_{j<=J} ((-M_nu)^j R_nu D_nu e_nu)_k,
    and reports (i) the worst entry defect of
    (a - e)_k = (||a - e||^2 / 2 - 1) Sigma_{0,k} over k != nu, (ii) the gap
    between ||a-e||^2 - ||a-e||^4/4 and Sigma0/(1+Sigma0), (iii) the largest
    ratio of consecutive series term norms.
    """
    ls = np.atleast_1d(np.asarray(spikes, dtype=np.float64))
    M = len(ls)
    l_nu = ls[nu - 1]
    r = spike_resolvent(ls, nu)
    D = bd.S_AA - np.diag(ls) + spike_quadratic_form(bd, al.l_hat, power=1)
    M_nu = r[:, np.newaxis] * D - (al.l_hat - l_nu) * np.diag(r)
    op_norm = float(np.linalg.norm(M_nu, 2))
    if op_norm >= 1.0:
        raise SeriesDiverges(f"||M_nu|| = {op_norm:.3g} >= 1")
    e = np.zeros(M)
    e[nu - 1] = 1.0
    term = r * (D @ e)  # R_nu D_nu e_nu
    partial = term.copy()
    max_ratio = 0.0
    prev_norm = float(np.linalg.norm(term))
    for _ in range(J):
        term = -(M_nu @ term)
        cur_norm = float(np.linalg.norm(term))
        if prev_norm > 0.0:
            max_ratio = max(max_ratio, cur_norm / prev_norm)
        prev_norm = cur_norm
        partial += term
    diff = al.a - e
    sq = float(diff @ diff)
    factor = sq / 2.0 - 1.0
    mask = np.arange(M) != nu - 1
    entry_res = float(np.max(np.abs(diff[mask] - factor * partial[mask]))) if M > 1 else 0.0
    sigma0 = float(partial[mask] @ partial[mask]) if M > 1 else 0.0
    sigma3 = sq - sq * sq / 4.0
    sigma3_res = abs(sigma3 - sigma0 / (1.0 + sigma0))
    return SeriesReport(
        entry_residual=entry_res,
        sigma3_residual=float(sigma3_res),
        decay_ratio=max_ratio,
        operator_norm=op_norm,
        sigma0=sigma0,
        sigma3=float(sigma3),
        terms=J + 1,
    )

"""CLT centerings and the polynomial machinery for the deterministic shift x.

The spike-interaction shift x is characterized as the root of x = F(x), with
the map F built from a matrix-valued polynomial in z from the spike
resolvent: with R_nu = diag(1/(l_k - l_nu), 0 at nu) and Itilde the
all-ones M x M matrix,

    Mnu(z) = sum_{0 <= j <= s} (1/n^{j+1}) Lambda^{1/2}
             (-R_nu Lambda^{1/2} Itilde Lambda^{1/2} + n z l_nu R_nu)^j
             R_nu Lambda^{1/2} Itilde,

three scalar polynomials a, b, c are read off its column nu, and

    F(y) = P(y) sum_{0 <= j <= s} Q(y)^j,  P = sum (2a_i + b_i + c_i) y^i,
                                           Q = sum b_i y^i.

The truncation order is s = floor(8 ln n / ln(n/M)). The solver evaluates F
in this factored form (degree 2s in y), never the paper's expansion
F(y) = Obar + sum_{1 <= j <= 2 s^2 + 2s} Obar_j y^j, whose coefficients
overflow long before the factored ones as M grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigen import Alignment, BlockDecomposition, shifted_resolvent_diag, spike_quadratic_form
from .errors import (
    ConfigInvalid,
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
        raise ConfigInvalid(f"need 1 <= M < n, got (n, M) = ({n}, {M})")
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
    """Column nu of the coefficients of Mnu(z), as an array of shape (s+1, M).

    Itilde is all ones, so every column of Mnu is this one. It is iterated
    as p_j = (A + z B) p_{j-1} from p_0 = u = R_nu Lambda^{1/2} 1, where
    A = -R_nu Lambda^{1/2} Itilde Lambda^{1/2} has rank one, A p = -u (sqrt(l) . p),
    and B = n l_nu R_nu is diagonal. Entry nu is zero: R_nu annihilates it.
    """
    ls = np.asarray(spikes, dtype=np.float64)
    r = spike_resolvent(ls, nu)
    sqrt_l = np.sqrt(ls)
    u = r * sqrt_l
    b_diag = n * ls[nu - 1] * r
    P = u[np.newaxis, :]  # row d: the z^d coefficient of p_j
    coeffs = np.zeros((s + 1, len(ls)))
    coeffs[0] = u / n
    for j in range(1, s + 1):
        nxt = np.zeros((j + 1, len(ls)))
        nxt[:j] = -np.outer(P @ sqrt_l, u)
        nxt[1:] += b_diag * P
        P = nxt
        coeffs[: j + 1] += n ** -(j + 1.0) * P
    coeffs *= sqrt_l
    return coeffs


def abc_coefficients(col: np.ndarray, spikes, nu: int, n: int):
    """The three scalar polynomials (a, b, c) read off column nu of Mnu(z).

    a_i = -sum_{k != nu} (Mnu)_{k nu} at degree i (zero above s by
    convention); b from -n l_nu (Mnu^T Lambda^{-1} Mnu)_{nu nu}; c from
    n (Mnu^T Mnu)_{nu nu} + (Mnu^T Itilde Mnu)_{nu nu}. The degree-d
    coefficient of a quadratic form is the sum of the anti-diagonal
    i + j = d of an (s+1) x (s+1) Gram matrix of the column's coefficients.
    All returned with degrees 0..2s.
    """
    ls = np.asarray(spikes, dtype=np.float64)
    s = col.shape[0] - 1
    sums = np.sum(col, axis=1)  # entry nu is zero, so this is the sum over k != nu
    a = np.zeros(2 * s + 1)
    a[: s + 1] = -sums
    degree = np.add.outer(np.arange(s + 1), np.arange(s + 1)).ravel()
    b = np.bincount(degree, (-n * ls[nu - 1] * (col / ls) @ col.T).ravel(), 2 * s + 1)
    c = np.bincount(degree, (n * col @ col.T + np.outer(sums, sums)).ravel(), 2 * s + 1)
    return a, b, c


@dataclass
class PolynomialCoefficients:
    """The scalar polynomials a, b, c of the x map, with its truncation order s."""

    s: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


def polynomial_coefficients(spikes, nu: int, n: int) -> PolynomialCoefficients:
    """Full pipeline from spikes to (a, b, c) at s = truncation_order(n, M); M = 1 gives all zeros.

    Overflow is left to the solver, which reports non-finite coefficients as
    NoRoot, so it is not warned about here.
    """
    ls = np.atleast_1d(np.asarray(spikes, dtype=np.float64))
    s = truncation_order(n, len(ls))
    with np.errstate(over="ignore", invalid="ignore"):
        col = matrix_polynomial_Mnu(ls, nu, n, s)
        a, b, c = abc_coefficients(col, ls, nu, n)
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


#: Steps of the x map an x routine may take: ``solve_x``'s budget, and the
#: largest k0 of ``iterate_x_expansion``.
X_STEPS = 200


def solve_x(coeffs: PolynomialCoefficients) -> float:
    """Root of x = F(x) by fixed-point iteration from 0, at most X_STEPS steps.

    Returns x only when it is finite and |x - F(x)| <= 1e-13 (1 + |x|);
    raises NoRoot otherwise, and when a, b or c is not finite.
    """
    if not all(np.isfinite(v).all() for v in (coeffs.a, coeffs.b, coeffs.c)):
        raise NoRoot("the x map has non-finite coefficients")
    x = 0.0
    for _ in range(X_STEPS):
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
    X_{k0-1} raises NoRoot, and k0 outside 1..X_STEPS ConfigInvalid.
    """
    if not 1 <= k0 <= X_STEPS:
        raise ConfigInvalid(f"need 1 <= k0 <= {X_STEPS}, got {k0}")
    x = 0.0
    for _ in range(k0 - 1):
        x = _x_map(coeffs, x)
    if not math.isfinite(x):
        raise NoRoot(f"{k0 - 1} substitution steps for x reached {x:g}")
    return x


def statistical_centering(l_hat, nu: int, n: int) -> float:
    """(1/n) sum_{k != nu} l_hat_k / (l_hat_nu - l_hat_k), x's leading term at l = l_hat."""
    lh = np.atleast_1d(np.asarray(l_hat, dtype=np.float64))
    l_nu = lh[nu - 1]
    mask = np.arange(len(lh)) != nu - 1
    gaps = l_nu - lh[mask]
    if np.any(np.abs(gaps) < 1e-12 * max(abs(l_nu), 1.0)):
        raise TiedEigenvalues(f"a sample eigenvalue ties l_hat_{nu} = {l_nu:g}")
    return float(np.sum(lh[mask] / gaps) / n)


def oracle_centering(l_nu: float, N: int, M: int, n: int) -> float:
    """(N - M) / (n (l_nu - 1)), the fully deterministic bulk term."""
    if l_nu <= 1.0 + 1e-12:
        raise SpikeAtOne(f"oracle centering needs l > 1, got {l_nu:g}")
    return (N - M) / (n * (l_nu - 1.0))


def deterministic_shift(spikes, nu: int, n: int, x_mode: str | None) -> tuple[float, float, str]:
    """(x, |x - F(x)|, resolved mode) for x_mode "zero", "root", "iter:k0", "auto" or None.

    "zero" returns (0.0, 0.0, "zero") and builds nothing. Every other mode
    builds the coefficients once. "auto" and None resolve to "root" where
    ``solve_x`` certifies a root and to "zero", with the residual |F(0)| of
    x = 0, where it raises NoRoot; an explicit "root" lets NoRoot propagate.
    """
    if x_mode == "zero":
        return 0.0, 0.0, "zero"
    coeffs = polynomial_coefficients(spikes, nu, n)
    if x_mode in (None, "auto"):
        try:
            x_mode, x = "root", solve_x(coeffs)
        except NoRoot:
            return 0.0, root_residual(coeffs, 0.0), "zero"
    elif x_mode == "root":
        x = solve_x(coeffs)
    elif x_mode.startswith("iter:"):
        x = iterate_x_expansion(coeffs, int(x_mode.split(":", 1)[1]))
    else:
        raise ConfigInvalid(f"unknown x_mode {x_mode!r}")
    return x, root_residual(coeffs, x), x_mode


def clt_centering(mode: str, spikes, nu: int, n: int, N: int, bulk, x: float, l_hat=None) -> float:
    """The CLT centering: empirical, deterministic, or a sum of both.

    mode "mixed" is the trace term + x, "statistical" the trace term + the
    empirical spike sum (needs the top-M sample eigenvalues ``l_hat``; x is
    unused), "oracle" the deterministic bulk term ``oracle_centering`` + x.
    ``bulk`` is tr(S_BB (l_hat_nu I - S_BB)^{-1}), the sum of
    m / (l_hat_nu - m) over the S_BB spectrum, or None for "oracle", which
    does not read it; the trace term is bulk / n.
    """
    if mode == "oracle":
        return oracle_centering(spikes[nu - 1], N, len(spikes), n) + x
    if mode == "mixed":
        return bulk / n + x
    if mode == "statistical":
        if l_hat is None:
            raise ConfigInvalid("statistical mode needs the top-M sample eigenvalues")
        return bulk / n + statistical_centering(l_hat, nu, n)
    raise ConfigInvalid(f"unknown mode {mode!r}")


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
    bulk term + x; x comes from ``deterministic_shift`` under x_mode.
    """
    ls = np.atleast_1d(np.asarray(spikes, dtype=np.float64))
    n, nu = bd.n, al.nu
    x = 0.0 if mode == "statistical" else deterministic_shift(ls, nu, n, x_mode)[0]
    bulk = None if mode == "oracle" else np.sum(shifted_resolvent_diag(bd.M_diag, al.l_hat))
    centering = clt_centering(mode, ls, nu, n, bd.N, bulk, x, l_hat)
    return clt_statistic_value(al.l_hat, ls[nu - 1], centering, law, n)


#: The most terms series_expansion_check sums. At ||M_nu|| <= 0.99 term
#: 10 000 is below 1e-43 of the first; the terms need not reach zero, since
#: a contraction factor above 1/2 rounds the smallest subnormal to itself.
SERIES_TERMS_MAX = 10_000


@dataclass
class SeriesReport:
    """Residuals of the truncated alignment series at order J."""

    entry_residual: float
    sigma3_residual: float


def series_expansion_check(
    bd: BlockDecomposition,
    al: Alignment,
    spikes,
    nu: int,
    J: int,
) -> SeriesReport:
    """Check the entrywise series for a_nu - e_nu and the Sigma3 identity.

    Builds M_nu = R_nu D_nu - (l_hat - l) R_nu with
    D_nu = S_AA - Lambda + S_AB (l_hat I - S_BB)^{-1} S_BA,
    accumulates partial sums Sigma_{0,k} = sum_{j<=J} ((-M_nu)^j R_nu D_nu e_nu)_k,
    and reports (i) the worst entry defect of
    (a - e)_k = (||a - e||^2 / 2 - 1) Sigma_{0,k} over k != nu, (ii) the gap
    between ||a-e||^2 - ||a-e||^4/4 and Sigma0/(1+Sigma0). J must lie in
    0..SERIES_TERMS_MAX; ||M_nu|| < 1, checked first, makes each term shorter.
    """
    if not 0 <= J <= SERIES_TERMS_MAX:
        raise ConfigInvalid(f"series terms must be in 0..{SERIES_TERMS_MAX}, got {J}")
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
    for _ in range(J):
        term = -(M_nu @ term)
        partial += term
    diff = al.a - e
    sq = float(diff @ diff)
    factor = sq / 2.0 - 1.0
    mask = np.arange(M) != nu - 1
    entry_res = float(np.max(np.abs(diff[mask] - factor * partial[mask]))) if M > 1 else 0.0
    sigma0 = float(partial[mask] @ partial[mask]) if M > 1 else 0.0
    sigma3 = sq - sq * sq / 4.0
    sigma3_res = abs(sigma3 - sigma0 / (1.0 + sigma0))
    return SeriesReport(entry_res, float(sigma3_res))

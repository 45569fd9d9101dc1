"""Eigenvector-consistency statistics, their reference laws, and diagnostics.

The four statistic variants share the centered quantity
l_nu (1 - <p, u>^2) with different corrections:

    A  : l_nu (1 - <p,u>^2) - N/n
    B  : l_nu (1 - <p,u>^2) - (l_nu/n) sum_{k != nu} c_k - N/n
    C1 : n (1 - <p,u>^2)
    C2 : same formula as B (reference law c_nu N(0, 2 sigma_nu))

with ratio coefficients c_k = l_k l_nu / (l_k - l_nu)^2. The fixed-M
reference law is the chi-square mixture sum_k c_k y_k^2, whose weights are
taken from the instance's finite-n spike ratios as proxies for their
limits (the limits are what the theory is stated in terms of; at the
tested scales the gap is far below the comparison tolerances).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .eigen import Alignment, BlockDecomposition, shifted_resolvent_diag, spike_quadratic_form
from .errors import InvalidDims, NotSeparated, TooLarge
from .rng import Stream

MOMENT_ORDER_CAP = 8
MOMENT_WEIGHTS_CAP = 12


@dataclass(frozen=True)
class RatioCoefficients:
    """c_k = l_k l_nu / (l_k - l_nu)^2 over k != nu, and their spread."""

    nu: int
    c: np.ndarray
    sigma_nu: float


@dataclass(frozen=True)
class EigvecStatistic:
    variant: str
    value: float
    empirical: bool
    nu: int


def ratio_coefficients(spikes, nu: int, n: int, M: int) -> RatioCoefficients:
    """Ratio coefficients at spike nu; requires separation (no equal spikes)."""
    ls = np.atleast_1d(np.asarray(spikes, dtype=np.float64))
    l_nu = ls[nu - 1]
    mask = np.arange(len(ls)) != nu - 1
    gaps = ls[mask] - l_nu
    if np.any(np.abs(gaps) < 1e-12 * l_nu):
        raise NotSeparated(f"a spike coincides with l_{nu} = {l_nu:g}")
    c = ls[mask] * l_nu / gaps**2
    sigma_nu = float(np.sum(c**2) / M)
    return RatioCoefficients(nu=nu, c=c, sigma_nu=sigma_nu)


def eigvec_statistic(
    al: Alignment,
    spikes_or_lhat,
    nu: int,
    n: int,
    N: int,
    M: int,
    variant: str,
    empirical: bool = False,
) -> EigvecStatistic:
    """One consistency statistic from a computed alignment.

    ``spikes_or_lhat`` carries the true spikes, or the top-M sample
    eigenvalues when ``empirical`` is set (they then replace the true ones
    throughout the left-hand quantities).
    """
    ls = np.atleast_1d(np.asarray(spikes_or_lhat, dtype=np.float64))
    l_nu = ls[nu - 1]
    one_minus = 1.0 - al.inner**2
    if variant == "A":
        value = l_nu * one_minus - N / n
    elif variant in ("B", "C2"):
        rc = ratio_coefficients(ls, nu, n, M)
        value = l_nu * one_minus - (l_nu / n) * float(np.sum(rc.c)) - N / n
    elif variant == "C1":
        value = n * one_minus
    else:
        raise InvalidDims(f"unknown variant {variant!r}")
    return EigvecStatistic(variant=variant, value=float(value), empirical=empirical, nu=nu)


def chi_mixture_sample(c, seed: int, size: int | None = None):
    """Draw sum_k c_k y_k^2 with independent standard normals y_k.

    Returns a scalar when ``size`` is None, else an array of ``size`` draws.
    """
    c = np.atleast_1d(np.asarray(c, dtype=np.float64))
    if np.any(c < 0.0):
        raise InvalidDims("mixture weights must be nonnegative")
    reps = 1 if size is None else int(size)
    y = Stream(seed, "chi-mixture", len(c)).normals((reps, len(c)))
    out = (y * y) @ c
    return float(out[0]) if size is None else out


def chi_mixture_moment(c, m: int) -> float:
    """Exact m-th moment of the mixture by enumerating compositions.

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


def lemma_diagnostics(
    bd: BlockDecomposition,
    al: Alignment,
    spikes,
    nu: int,
    n: int,
    N: int,
    M: int,
) -> dict:
    """Numerical values of the three auxiliary-lemma statements.

    (i)  l_nu^4 sum_{k != nu} (t_k^T M (l_hat I - M)^{-2} t_nu)^2
    (ii) (n/M)  sum_{k != nu} (t_k^T M (l_hat I - M)^{-1} t_nu)^2
    (iii) beta_nu = ||R_nu D_nu e_nu|| and the ratio ||a - e|| / beta_nu
    (iv) l_hat_nu R_nu^2 - N/n
    """
    from .centering import spike_resolvent

    ls = np.atleast_1d(np.asarray(spikes, dtype=np.float64))
    l_nu = ls[nu - 1]
    t_nu = bd.T[:, nu - 1]
    mask = np.arange(M) != nu - 1
    d1 = shifted_resolvent_diag(bd.M_diag, al.l_hat, power=1)
    d2 = shifted_resolvent_diag(bd.M_diag, al.l_hat, power=2)
    g1 = bd.T.T @ (d1 * t_nu)
    g2 = bd.T.T @ (d2 * t_nu)
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

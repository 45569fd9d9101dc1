"""Eigenvector-consistency statistics and their chi-square-mixture reference law.

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

from dataclasses import dataclass

import numpy as np

from .eigen import Alignment
from .errors import ConfigInvalid, NotSeparated
from .rng import Stream


@dataclass(frozen=True)
class RatioCoefficients:
    """c_k = l_k l_nu / (l_k - l_nu)^2 over k != nu, and their spread."""

    c: np.ndarray
    sigma_nu: float


@dataclass(frozen=True)
class EigvecStatistic:
    value: float


def ratio_coefficients(spikes, nu: int, M: int) -> RatioCoefficients:
    """Ratio coefficients at spike nu; requires separation (no equal spikes)."""
    ls = np.atleast_1d(np.asarray(spikes, dtype=np.float64))
    l_nu = ls[nu - 1]
    mask = np.arange(len(ls)) != nu - 1
    gaps = ls[mask] - l_nu
    if np.any(np.abs(gaps) < 1e-12 * l_nu):
        raise NotSeparated(f"a spike coincides with l_{nu} = {l_nu:g}")
    c = ls[mask] * l_nu / gaps**2
    sigma_nu = float(np.sum(c**2) / M)
    return RatioCoefficients(c=c, sigma_nu=sigma_nu)


def eigvec_statistic(
    al: Alignment,
    spikes_or_lhat,
    nu: int,
    n: int,
    N: int,
    M: int,
    variant: str,
) -> EigvecStatistic:
    """One consistency statistic from a computed alignment.

    ``spikes_or_lhat`` carries the true spikes, or the top-M sample
    eigenvalues of an empirical run (they then replace the true ones
    throughout the left-hand quantities).
    """
    ls = np.atleast_1d(np.asarray(spikes_or_lhat, dtype=np.float64))
    l_nu = ls[nu - 1]
    one_minus = 1.0 - al.inner**2
    if variant == "A":
        value = l_nu * one_minus - N / n
    elif variant in ("B", "C2"):
        rc = ratio_coefficients(ls, nu, M)
        value = l_nu * one_minus - (l_nu / n) * float(np.sum(rc.c)) - N / n
    elif variant == "C1":
        value = n * one_minus
    else:
        raise ConfigInvalid(f"unknown variant {variant!r}")
    return EigvecStatistic(float(value))


def chi_mixture_sample(c, seed: int, size: int | None = None):
    """Draw sum_k c_k y_k^2 with independent standard normals y_k.

    Returns a scalar when ``size`` is None, else an array of ``size`` draws.
    """
    c = np.atleast_1d(np.asarray(c, dtype=np.float64))
    if np.any(c < 0.0):
        raise ConfigInvalid("mixture weights must be nonnegative")
    reps = 1 if size is None else int(size)
    y = Stream(seed, "chi-mixture", len(c)).normals((reps, len(c)))
    out = (y * y) @ c
    return float(out[0]) if size is None else out

"""The Marchenko-Pastur Stieltjes transform (real axis only).

The closed form m_gamma(z) = (z + gamma - 1 - sqrt((z - gamma + 1)^2 - 4z))
/ (2 gamma z) is the Stieltjes transform of the MP law with ratio gamma,
valid for real z strictly right of the bulk edge b = (1 + sqrt(gamma))^2.
It is evaluated as 2 / (z + gamma - 1 + sqrt(D)), D = (z - gamma + 1)^2 - 4z,
the same root (since (z + gamma - 1)^2 - D = 4 gamma z) without the
cancellation of two numbers close to z at large z.
``spikedcov mp`` tabulates it with the defect of its defining quadratic.
"""

from __future__ import annotations

import numpy as np

from .errors import InsideBulk


def mp_stieltjes(z: float, gamma: float) -> float:
    """m_gamma(z) for real z at or right of the bulk edge.

    The principal (positive) square root is taken; at the edge z = b the
    discriminant vanishes up to rounding and is clamped at 0, so the edge
    value 2 / (z + gamma - 1) is returned rather than an error.
    Points strictly inside the bulk raise InsideBulk.
    """
    b = (1.0 + np.sqrt(gamma)) ** 2
    if z < b * (1.0 - 1e-12) - 1e-12:
        raise InsideBulk(f"z = {z:g} not right of the bulk edge b = {b:g}")
    disc = (z - gamma + 1.0) ** 2 - 4.0 * z
    if disc < 0.0:
        disc = 0.0  # edge z = b up to rounding
    return 2.0 / (z + gamma - 1.0 + np.sqrt(disc))


def mp_quadratic_residual(z: float, gamma: float) -> float:
    """Defect of the defining equation gamma z m^2 - m (z + gamma - 1) + 1 = 0."""
    m = mp_stieltjes(z, gamma)
    return gamma * z * m * m - m * (z + gamma - 1.0) + 1.0

import numpy as np
import pytest

from spikedcov.cores import fan_out
from spikedcov.eigen import sample_covariance
from spikedcov.errors import InsideBulk, InsideSpectrum, NotInvertible, SpikeAtOne
from spikedcov.model import EntryLaw, sample_entry_matrix
from spikedcov.mp import (
    MPParams,
    empirical_stieltjes,
    inversion_gap,
    mp_density,
    mp_quadratic_residual,
    mp_stieltjes,
    spike_forward_map,
)


class TestDensity:
    def test_support_convention(self):
        assert mp_density(0.0, 1.0) == 0.0
        assert mp_density(-1.0, 1.0) == 0.0

    def test_outside_edges(self):
        # gamma = 0.25: edges (0.25, 2.25)
        assert mp_density(0.2, 0.25) == 0.0
        assert mp_density(2.3, 0.25) == 0.0
        assert mp_density(1.0, 0.25) > 0.0

    def test_integrates_to_one_simpson(self):
        from scipy.integrate import simpson

        gamma = 0.5
        a, b = MPParams(gamma).edges
        x = np.linspace(a, b, 100_001)
        total = simpson(mp_density(x, gamma), x=x)
        assert abs(total - 1.0) <= 1e-6


class TestStieltjes:
    def test_edge_vanishing_discriminant(self):
        # gamma = 1, z = 4 is the edge: discriminant clamps to 0, m = 4/8
        assert mp_stieltjes(4.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_against_quadrature(self):
        from scipy.integrate import quad

        gamma, z = 0.5, 4.0
        a, b = MPParams(gamma).edges
        val, _ = quad(lambda x: mp_density(x, gamma) / (z - x), a, b, limit=200)
        m = mp_stieltjes(z, gamma)
        assert m == pytest.approx(0.3596118, abs=1e-6)
        assert m == pytest.approx(val, abs=1e-6)

    def test_quadratic_residual_grid(self):
        for gamma in (0.2, 0.5, 1.0, 2.0, 5.0):
            b = MPParams(gamma).edges[1]
            for z in np.linspace(b + 0.1, b + 50.0, 20):
                assert abs(mp_quadratic_residual(z, gamma)) <= 1e-12

    def test_inside_bulk_raises(self):
        with pytest.raises(InsideBulk):
            mp_stieltjes(3.9, 1.0)

    def test_monotone_decreasing_positive_vanishing(self):
        gamma = 0.7
        b = MPParams(gamma).edges[1]
        zs = np.linspace(b + 0.05, b + 200.0, 400)
        ms = np.array([mp_stieltjes(z, gamma) for z in zs])
        assert np.all(ms > 0.0)
        assert np.all(np.diff(ms) < 0.0)
        assert ms[-1] < 0.01


class TestEmpiricalStieltjes:
    def test_two_point_spectrum(self):
        assert empirical_stieltjes([1.0, 3.0], 5.0, 6, 4) == pytest.approx(0.375)

    def test_all_zero_spectrum(self):
        assert empirical_stieltjes(np.zeros(10), 2.0, 14, 4) == pytest.approx(0.5)

    def test_inside_spectrum_raises(self):
        with pytest.raises(InsideSpectrum):
            empirical_stieltjes([1.0, 3.0], 2.0, 6, 4)

    def test_mp_quantile_spectrum_approximates_transform(self):
        # spectrum set to MP quantiles: the ECDF matches the MP law to O(1/k)
        from scipy.integrate import cumulative_trapezoid

        gamma = 0.5
        a, b = MPParams(gamma).edges
        grid = np.linspace(a, b, 200_001)
        cdf = cumulative_trapezoid(mp_density(grid, gamma), grid, initial=0.0)
        cdf /= cdf[-1]
        k = 500
        quantiles = np.interp((np.arange(k) + 0.5) / k, cdf, grid)
        z = b + 1.0
        approx = empirical_stieltjes(quantiles, z, k + 2, 2)
        assert abs(approx - mp_stieltjes(z, gamma)) <= 5.0 / k


class TestSpikeMap:
    def test_threshold_continuity(self):
        assert spike_forward_map(2.0, 1.0) == pytest.approx(4.0)

    def test_values(self):
        assert spike_forward_map(3.0, 0.5) == pytest.approx(3.75)

    def test_inversion_identity_grid(self):
        # m_gamma(lbar) = l / ((l - 1) lbar) for 20 (gamma, l) pairs
        pairs = [
            (g, l)
            for g in (0.25, 0.5, 1.0, 2.0, 4.0)
            for l in (4.0, 6.0, 9.0, 15.0)
        ]
        assert len(pairs) == 20
        for gamma, l in pairs:
            lbar = spike_forward_map(l, gamma)
            lhs = mp_stieltjes(lbar, gamma)
            rhs = l / ((l - 1.0) * lbar)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_spike_at_one(self):
        with pytest.raises(SpikeAtOne):
            spike_forward_map(1.0, 0.5)


def simulated_gaps(n, p, seeds):
    """|inversion_gap| at l = n^0.9 of a p x n Gaussian bulk per seed, across the cores.

    The bulk spectrum is eigvalsh of (1/n) Z Z^T: the squared singular
    values of Z over n, without an SVD (at most 6.3e-14 relative apart at 2000 x 4000).
    """
    def gap(seed):
        m_diag = np.linalg.eigvalsh(sample_covariance(sample_entry_matrix(p, n, EntryLaw.gaussian(), seed)))
        return abs(inversion_gap(m_diag, n**0.9, p + 4, 4, n))

    return fan_out(gap, seeds)


class TestInversionGap:
    def test_zero_bulk(self):
        gap = inversion_gap(np.zeros(8), 5.0, 12, 4, 100)
        assert gap == pytest.approx(10.0 / 4.0)

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            inversion_gap(np.array([50.0]), 2.0, 5, 4, 100)

    def test_simulated_bulk_small_gap(self):
        # Eq.-level convergence at desk scale; threshold from the pilot run
        gaps = simulated_gaps(2000, 1000, [700_000 + s for s in range(10)])
        assert np.median(gaps) <= 0.5

    def test_simulated_bulk_full_scale(self):
        # (n, N-M) = (4000, 2000), l = n^0.9: 12 seeds here; the 50-seed
        # pilot at these dims gave median ~2e-4 against the 0.5 threshold
        gaps = simulated_gaps(4000, 2000, [880_000 + s for s in range(12)])
        assert np.median(gaps) <= 0.5

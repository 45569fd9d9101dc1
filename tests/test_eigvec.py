import numpy as np
import pytest

from spikedcov.eigen import alignment, block_decompose, sample_covariance, sym_eigen
from spikedcov.errors import NotSeparated
from spikedcov.eigvec import chi_mixture_sample, eigvec_statistic, ratio_coefficients
from spikedcov.model import SpikedModelSpec, generate_data

from .oracles import TooLarge, chi_mixture_moment, lemma_diagnostics


class TestRatioCoefficients:
    def test_two_spikes(self):
        rc = ratio_coefficients([10.0, 2.0], 1, 2)
        assert rc.c[0] == pytest.approx(20.0 / 64.0)
        assert rc.sigma_nu == pytest.approx(0.5 * 0.3125**2)

    def test_scale_invariance_geometric(self):
        # adjacent ratio-2 spikes give c = 2 regardless of overall scale
        for scale in (1.0, 37.0, 5e5):
            rc = ratio_coefficients([2.0 * scale, 1.0 * scale], 1, 2)
            assert rc.c[0] == pytest.approx(2.0)

    def test_sigma_is_mean_square(self):
        spikes = np.array([64.0, 16.0, 4.0, 1.5])
        rc = ratio_coefficients(spikes, 2, 4)
        assert rc.sigma_nu == pytest.approx(np.sum(rc.c**2) / 4.0)
        assert np.all(rc.c >= 0.0)

    def test_not_separated(self):
        with pytest.raises(NotSeparated):
            ratio_coefficients([5.0, 5.0], 1, 2)


class TestEigvecStatistic:
    def _alignment(self, inner, l_hat=50.0, nu=1, M=2):
        from spikedcov.eigen import Alignment

        a = np.zeros(M)
        a[nu - 1] = 1.0
        return Alignment(nu=nu, l_hat=l_hat, a=a, R=0.0, inner=inner)

    def test_perfect_alignment_variant_A(self):
        al = self._alignment(1.0)
        got = eigvec_statistic(al, [50.0, 10.0], 1, 100, 80, 2, "A")
        assert got.value == pytest.approx(-80.0 / 100.0)

    def test_variant_A_zero_point(self):
        # <p,u>^2 = 1 - N/(n l) makes the A statistic vanish
        n, N, l = 100, 80, 50.0
        inner = np.sqrt(1.0 - N / (n * l))
        al = self._alignment(inner)
        got = eigvec_statistic(al, [l, 10.0], 1, n, N, 2, "A")
        assert abs(got.value) <= 1e-12

    def test_variant_B_subtracts_ratio_sum(self):
        al = self._alignment(0.99)
        a = eigvec_statistic(al, [50.0, 10.0], 1, 100, 80, 2, "A").value
        b = eigvec_statistic(al, [50.0, 10.0], 1, 100, 80, 2, "B").value
        rc = ratio_coefficients([50.0, 10.0], 1, 2)
        assert a - b == pytest.approx(50.0 / 100.0 * np.sum(rc.c))

    def test_variant_C2_same_formula_as_B(self):
        al = self._alignment(0.97)
        b = eigvec_statistic(al, [50.0, 10.0], 1, 100, 80, 2, "B").value
        c2 = eigvec_statistic(al, [50.0, 10.0], 1, 100, 80, 2, "C2").value
        assert b == c2

    def test_variant_C1(self):
        al = self._alignment(0.95)
        got = eigvec_statistic(al, [50.0, 10.0], 1, 100, 80, 2, "C1")
        assert got.value == pytest.approx(100 * (1 - 0.95**2))

    def test_empirical_flag_uses_lhat(self):
        al = self._alignment(0.99)
        emp = eigvec_statistic(al, [55.0, 9.0], 1, 100, 80, 2, "A")
        assert emp.value == pytest.approx(55.0 * (1 - 0.99**2) - 0.8)


class TestChiMixture:
    def test_single_weight_is_chisquare(self):
        draws = chi_mixture_sample([1.0], seed=10, size=100_000)
        assert abs(draws.mean() - 1.0) <= 0.02
        assert abs(draws.var() - 2.0) <= 0.1

    def test_two_weights(self):
        draws = chi_mixture_sample([1.0, 1.0], seed=11, size=100_000)
        assert abs(draws.mean() - 2.0) <= 0.05
        assert abs(draws.var() - 4.0) <= 0.15

    def test_zero_weights(self):
        draws = chi_mixture_sample(np.zeros(5), seed=12, size=1000)
        assert not np.any(draws)

    def test_scalar_mode_deterministic(self):
        assert chi_mixture_sample([2.0, 1.0], seed=77) == chi_mixture_sample([2.0, 1.0], seed=77)

    def test_sample_moments_match_exact_moments(self):
        c = [2.0, 0.5, 0.25]
        draws = chi_mixture_sample(c, seed=13, size=200_000)
        m1 = chi_mixture_moment(c, 1)
        m2 = chi_mixture_moment(c, 2)
        assert m1 == pytest.approx(np.sum(c))
        assert abs(draws.mean() - m1) <= 5 * np.sqrt(draws.var() / len(draws))
        assert abs((draws**2).mean() - m2) <= 0.05 * m2


class TestChiMixtureMoments:
    def test_chisquare_second_moment(self):
        assert chi_mixture_moment([1.0], 2) == pytest.approx(3.0)

    def test_mean_additivity(self):
        assert chi_mixture_moment([1.0, 1.0], 1) == pytest.approx(2.0)

    def test_hand_expansion(self):
        # E[(2 y1^2 + 3 y2^2)^2] = 4*3 + 9*3 + 2*6*1 = 51
        assert chi_mixture_moment([2.0, 3.0], 2) == pytest.approx(51.0)

    def test_closed_forms(self):
        c = np.array([0.3, 1.7, 0.9, 0.2])
        assert chi_mixture_moment(c, 1) == pytest.approx(np.sum(c))
        assert chi_mixture_moment(c, 2) == pytest.approx(np.sum(c) ** 2 + 2 * np.sum(c**2))

    def test_caps(self):
        with pytest.raises(TooLarge):
            chi_mixture_moment(np.ones(13), 2)
        with pytest.raises(TooLarge):
            chi_mixture_moment([1.0], 9)


class TestLemmaDiagnostics:
    def test_single_spike_empty_sums(self, gaussian):
        n = 200
        spec = SpikedModelSpec(n=n, N=150, M=1, spikes=[n**0.8], law=gaussian)
        X, Z = generate_data(spec, 41)
        bd = block_decompose(Z, spec.spikes)
        eig = sym_eigen(sample_covariance(X))
        al = alignment(eig, None, spec.spikes, 1)
        rec = lemma_diagnostics(bd, al, spec.spikes, 1, n, 150, 1)
        assert rec["lemma1_a"] == 0.0
        assert rec["lemma1_b"] == 0.0

    def test_separated_instance_magnitudes(self, gaussian):
        # desk-scale check of the lemma statements (10 seeds; full scale in
        # the acceptance suite pilots)
        n, N, M = 1000, 500, 4
        spikes = (n**0.8) * np.array([8.0, 4.0, 2.0, 1.0])
        spec = SpikedModelSpec(n=n, N=N, M=M, spikes=spikes, law=gaussian)
        lemma3, ratios = [], []
        for seed in range(10):
            X, Z = generate_data(spec, 6000 + seed)
            bd = block_decompose(Z, spec.spikes)
            eig = sym_eigen(sample_covariance(X))
            al = alignment(eig, None, spec.spikes, 2)
            rec = lemma_diagnostics(bd, al, spec.spikes, 2, n, N, M)
            lemma3.append(abs(rec["lemma3"]))
            ratios.append(rec["diff_over_beta"])
        assert np.median(lemma3) <= 0.2
        assert 0.8 <= np.median(ratios) <= 1.25

    def test_lemma1_trend_with_n(self, gaussian):
        # medians of (i) and (ii) do not grow from n=500 to n=2000 (matched gamma)
        meds = {}
        for n in (500, 2000):
            N, M = n // 2, 3
            spikes = (n**0.8) * np.array([4.0, 2.0, 1.0])
            spec = SpikedModelSpec(n=n, N=N, M=M, spikes=spikes, law=gaussian)
            vals_a, vals_b = [], []
            for seed in range(8):
                X, Z = generate_data(spec, 7000 + seed)
                bd = block_decompose(Z, spec.spikes)
                eig = sym_eigen(sample_covariance(X))
                al = alignment(eig, None, spec.spikes, 1)
                rec = lemma_diagnostics(bd, al, spec.spikes, 1, n, N, M)
                vals_a.append(rec["lemma1_a"])
                vals_b.append(rec["lemma1_b"])
            meds[n] = (np.median(vals_a), np.median(vals_b))
        assert meds[2000][0] <= meds[500][0]
        assert meds[2000][1] <= meds[500][1]

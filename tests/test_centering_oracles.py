"""Equivalence of the shipped polynomial pipeline with independent oracles."""

import tracemalloc

import numpy as np
import pytest

from spikedcov.centering import (
    abc_coefficients,
    matrix_polynomial_Mnu,
    polynomial_coefficients,
    truncation_order,
)

from .oracles import exact_rational_abc, naive_abc, naive_matrix_polynomial


def _relative_gap(got, want):
    scale = max(np.max(np.abs(want)), 1e-300)
    return np.max(np.abs(got - want)) / scale


class TestAgainstNaiveFloatOracle:
    @pytest.mark.parametrize(
        "spikes,nu,n,s",
        [
            ([10.0, 2.0], 1, 100, 0),
            ([10.0, 2.0], 2, 100, 1),
            ([16.0, 8.0, 4.0, 2.0, 1.5], 3, 500, 3),
            ([120.0, 60.0, 30.0, 15.0, 7.0], 1, 1000, 4),
        ],
    )
    def test_matrix_polynomial_matches(self, spikes, nu, n, s):
        got = matrix_polynomial_Mnu(spikes, nu, n, s)
        want = naive_matrix_polynomial(spikes, nu, n, s)
        assert got.shape == (s + 1, len(spikes))
        for d in range(s + 1):
            # Itilde is all ones, so every column of the oracle's coefficient is column nu
            np.testing.assert_array_equal(want[d], want[d][:, [nu - 1]] * np.ones(len(spikes)))
            assert _relative_gap(got[d], want[d][:, nu - 1]) <= 1e-13

    def test_abc_matches_random_spikes(self):
        # M = 5, s = 3, spikes random but separated
        rng = np.random.default_rng(12345)
        for _ in range(5):
            base = np.sort(rng.uniform(1.5, 3.0, size=5))[::-1]
            spikes = np.cumprod(base)[::-1] * 20.0
            nu = int(rng.integers(1, 6))
            n = 700
            poly = matrix_polynomial_Mnu(spikes, nu, n, 3)
            a, b, c = abc_coefficients(poly, spikes, nu, n)
            na, nb, nc = naive_abc(naive_matrix_polynomial(spikes, nu, n, 3), spikes, nu, n)
            assert _relative_gap(a, na) <= 1e-12
            assert _relative_gap(b, nb) <= 1e-12
            assert _relative_gap(c, nc) <= 1e-12

    def test_abc_matches_at_acceptance_scale(self):
        n = 2000
        for M in (5, 10, 20, 45, 100):
            spikes = (n**0.8) * 2.0 ** np.arange(M)[::-1]
            s = truncation_order(n, M)
            nu = M // 2
            poly = matrix_polynomial_Mnu(spikes, nu, n, s)
            a, b, c = abc_coefficients(poly, spikes, nu, n)
            na, nb, nc = naive_abc(
                naive_matrix_polynomial(spikes, nu, n, s), spikes, nu, n
            )
            for got, want in ((a, na), (b, nb), (c, nc)):
                assert _relative_gap(got, want) <= 1e-12


def test_coefficients_hold_no_m_by_m_array():
    # n = 4000, M = 400: one M x M float64 array alone is 1.28 MB
    n, M = 4000, 400
    spikes = n**0.9 * np.linspace(2.0, 1.0, M)
    polynomial_coefficients(spikes, 1, n)  # warm-up
    tracemalloc.start()
    try:
        polynomial_coefficients(spikes, 1, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


class TestAgainstExactRationalOracle:
    def test_two_spike_s0_hand_case(self):
        # sqrt-spikes rational: l = (9, 4), n = 100, s = 0
        a, b, c = exact_rational_abc([3, 2], 1, 100, 0)
        # a0 = (1/n) l2/(l1-l2) = 4/500; b0 = -(1/n) l1 l2/(l1-l2)^2 = -36/2500
        from fractions import Fraction

        assert a[0] == Fraction(4, 500)
        assert b[0] == Fraction(-36, 2500)
        # c0 = (1/n) l2^2/(l1-l2)^2 + (1/n^2)(l2/(l1-l2))^2
        assert c[0] == Fraction(16, 2500) + Fraction(16, 250000)

    @pytest.mark.parametrize("nu,s", [(1, 0), (1, 1), (2, 1), (2, 2)])
    def test_float_pipeline_matches_exact(self, nu, s):
        sq = [3, 2]  # l = (9, 4)
        n = 100
        ae, be, ce = exact_rational_abc(sq, nu, n, s)
        spikes = [9.0, 4.0]
        poly = matrix_polynomial_Mnu(spikes, nu, n, s)
        a, b, c = abc_coefficients(poly, spikes, nu, n)
        for got, want in ((a, ae), (b, be), (c, ce)):
            want_f = np.array([float(v) for v in want])
            assert _relative_gap(got, want_f) <= 1e-14

    def test_three_spikes_exact(self):
        sq = [4, 2, 1]  # l = (16, 4, 1) -- bottom spike at the bulk edge value 1? keep 1.0 spike legal
        n = 50
        ae, be, ce = exact_rational_abc(sq, 2, n, 1)
        spikes = [16.0, 4.0, 1.0]
        poly = matrix_polynomial_Mnu(spikes, 2, n, 1)
        a, b, c = abc_coefficients(poly, spikes, 2, n)
        for got, want in ((a, ae), (b, be), (c, ce)):
            want_f = np.array([float(v) for v in want])
            assert _relative_gap(got, want_f) <= 1e-14


class TestLeadingTermLaw:
    def test_sign_resolution_and_quadratic_error(self):
        """The constructive x matches +(1/n) sum l_k/(l_nu - l_k) to O((M/n)^2).

        The positive-denominator form (l_nu - l_k) is the sign the
        construction produces; the opposite sign fails by a factor ~2/x.
        """
        from spikedcov.centering import polynomial_coefficients, solve_x

        n = 2000
        rows = []
        for M in (5, 10, 20):
            spikes = (n**0.8) * 2.0 ** np.arange(M)[::-1]
            for nu in range(1, M + 1, max(1, M // 5)):
                coeffs = polynomial_coefficients(spikes, nu, n)
                x = solve_x(coeffs)
                mask = np.arange(M) != nu - 1
                lead_pos = np.sum(spikes[mask] / (spikes[nu - 1] - spikes[mask])) / n
                rows.append((x, lead_pos, M))
        worst = max(abs(x - lead) / (M / n) ** 2 for x, lead, M in rows)
        assert worst <= 5.0  # fitted C2, frozen from the pilot run
        # the opposite sign is not the leading term
        x0, lead0, _ = rows[0]
        assert abs(x0 + lead0) > 100 * abs(x0 - lead0)

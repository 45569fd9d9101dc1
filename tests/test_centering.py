import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikedcov.centering import (
    PolynomialCoefficients,
    _x_map,
    clt_centering,
    clt_statistics,
    compose_O,
    deterministic_shift,
    iterate_x_expansion,
    matrix_polynomial_Mnu,
    oracle_centering,
    polynomial_coefficients,
    resolve_x_mode,
    root_residual,
    series_expansion_check,
    solve_x,
    statistical_centering,
    truncation_order,
)
from spikedcov.eigen import (
    alignment,
    block_decompose,
    bulk_trace,
    sample_covariance,
    shifted_resolvent_diag,
    sym_eigen,
)
from spikedcov.errors import (
    InvalidDims,
    NoRoot,
    NotInvertible,
    NotSeparated,
    SpikeAtOne,
    TiedEigenvalues,
)
from spikedcov.model import EntryLaw, SpikedModelSpec, generate_data


class TestTruncationOrder:
    def test_exact_power_ratio(self):
        assert truncation_order(10**6, 10**3) == 16

    def test_ten_thousand(self):
        assert truncation_order(10**4, 10) == 10

    def test_single_spike(self):
        assert truncation_order(5000, 1) == 8
        assert truncation_order(77, 1) == 8

    def test_invalid_dims(self):
        with pytest.raises(InvalidDims):
            truncation_order(100, 100)


class TestMatrixPolynomial:
    def test_single_spike_zero(self):
        poly = matrix_polynomial_Mnu([7.0], 1, 50, 3)
        assert not np.any(poly)

    def test_hand_value_s0(self):
        poly = matrix_polynomial_Mnu([10.0, 2.0], 1, 100, 0)
        assert poly.shape == (1, 2, 2)
        assert poly[0][1, 0] == pytest.approx(-0.0025, abs=1e-18)

    def test_row_nu_vanishes(self):
        spikes = np.array([40.0, 20.0, 10.0, 5.0, 2.0])
        for nu in (1, 3, 5):
            poly = matrix_polynomial_Mnu(spikes, nu, 500, 4)
            assert np.max(np.abs(poly[:, nu - 1, :])) == 0.0

    def test_not_separated(self):
        with pytest.raises(NotSeparated):
            matrix_polynomial_Mnu([5.0, 5.0], 1, 100, 2)


class TestComposeO:
    def test_all_zero(self):
        s = 2
        zeros = np.zeros(2 * s + 1)
        O_bar, O_j = compose_O(zeros, zeros, zeros, s)
        assert O_bar == 0.0
        assert not np.any(O_j)
        assert len(O_j) == 2 * s * s + 2 * s

    def test_zero_b_kills_outer_terms(self):
        s = 2
        a = np.array([0.3, -0.1, 0.2, 0.0, 0.05])
        c = np.array([0.7, 0.4, -0.3, 0.1, 0.0])
        b = np.zeros(5)
        O_bar, O_j = compose_O(a, b, c, s)
        assert O_bar == pytest.approx(2 * a[0] + c[0])
        for j in range(1, 5):
            assert O_j[j - 1] == pytest.approx(2 * a[j] + c[j])
        assert not np.any(O_j[4:])

    def test_evaluation_oracle(self):
        from .oracles import naive_compose_eval

        rng = np.random.default_rng(99)
        s = 2
        a, b, c = (0.2 * rng.standard_normal(2 * s + 1) for _ in range(3))
        O_bar, O_j = compose_O(a, b, c, s)
        for z in rng.uniform(-0.1, 0.1, size=20):
            direct = naive_compose_eval(a, b, c, s, z)
            expanded = O_bar + sum(oj * z ** (j + 1) for j, oj in enumerate(O_j))
            assert expanded == pytest.approx(direct, rel=1e-12)


def geometric_spikes(n, M, ratio, exponent):
    """n^exponent ratio^k for k = M-1 ... 0, the largest first."""
    return n**exponent * ratio ** np.arange(M)[::-1]


def leading_term(spikes, nu, n):
    """(1/n) sum_{k != nu} l_k / (l_nu - l_k), the leading term of x."""
    mask = np.arange(len(spikes)) != nu - 1
    return float(np.sum(spikes[mask] / (spikes[nu - 1] - spikes[mask])) / n)


def assert_certified(coeffs, x):
    """x is finite and |x - F(x)| <= 1e-13 (1 + |x|); NaN fails both."""
    assert math.isfinite(x)
    assert root_residual(coeffs, x) <= 1e-13 * (1.0 + abs(x))


class TestSolveX:
    def test_geometric_linear_case(self):
        # 2a = [0.01, 0.1], b = c = 0: x = 0.01 + 0.1 x
        zeros = np.zeros(3)
        coeffs = PolynomialCoefficients(s=1, a=np.array([0.005, 0.05, 0.0]), b=zeros, c=zeros)
        assert solve_x(coeffs) == pytest.approx(0.01 / 0.9, rel=1e-13)

    def test_single_spike_zero(self):
        coeffs = polynomial_coefficients([25.0], 1, 400)
        assert solve_x(coeffs) == 0.0

    def test_residual_contract(self):
        n = 2000
        spikes = (n**0.8) * 2.0 ** np.arange(12)[::-1]
        for nu in (1, 5, 12):
            coeffs = polynomial_coefficients(spikes, nu, n)
            x = solve_x(coeffs)
            O_bar, O_j = compose_O(coeffs.a, coeffs.b, coeffs.c, coeffs.s)
            resid = abs(x - O_bar - np.sum(O_j * x ** np.arange(1, len(O_j) + 1)))
            assert resid <= 1e-13 * (1.0 + abs(x))

    def test_high_precision_oracle(self):
        from .oracles import newton_refine_root

        cases = [
            (2000, 20, 2.0, 0.8, 3),
            # M = 20 and 40: the expanded coefficients Obar_j overflow here
            (1000, 20, 1.15, 0.9, 1),
            (1000, 40, 1.15, 0.9, 20),
        ]
        for n, M, ratio, exponent, nu in cases:
            coeffs = polynomial_coefficients(geometric_spikes(n, M, ratio, exponent), nu, n)
            x = solve_x(coeffs)
            x_ref = newton_refine_root(coeffs.a, coeffs.b, coeffs.c, coeffs.s, x)
            assert abs(x - x_ref) <= 1e-12 * (1.0 + abs(x_ref))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_coefficients_raise(self, bad):
        coeffs = polynomial_coefficients(geometric_spikes(1000, 4, 2.0, 0.9), 1, 1000)
        coeffs.b[1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoRoot):
                solve_x(coeffs)

    def test_overflowing_coefficients_raise(self):
        # spikes 1e-11 apart (relative): building a, b, c overflows
        spikes = geometric_spikes(200, 10, 1.0 + 1e-11, 0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coeffs = polynomial_coefficients(spikes, 5, 200)
            with pytest.raises(NoRoot, match="non-finite"):
                solve_x(coeffs)

    def test_no_convergence_raises(self):
        # n = 200, M = 16, ratio 1.11: the iteration from 0 runs off to inf
        coeffs = polynomial_coefficients(geometric_spikes(200, 16, 1.11, 0.9), 16, 200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoRoot):
                solve_x(coeffs)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([200, 500, 1000]),
        m_share=st.floats(0.0, 1.0),
        ratio=st.floats(1.11, 2.5),
        exponent=st.floats(0.5, 1.0),
        nu_share=st.floats(0.0, 1.0),
    )
    def test_certified_root_or_no_root(self, n, m_share, ratio, exponent, nu_share):
        M = 2 + int(m_share * (n // 8 - 2))
        nu = 1 + int(nu_share * (M - 1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            coeffs = polynomial_coefficients(geometric_spikes(n, M, ratio, exponent), nu, n)
            try:
                x = solve_x(coeffs)
            except NoRoot:
                x = None
        assert not caught
        if x is not None:
            assert_certified(coeffs, x)


class TestLargeSpikeCount:
    """n = 1000 and M from 16 to 40, far above the M <= 8 of the shipped configs."""

    @pytest.mark.parametrize("M", [16, 20, 40])
    def test_certified_root_near_the_leading_term(self, M):
        n = 1000
        spikes = geometric_spikes(n, M, 1.15, 0.9)
        for nu in (1, M // 2, M):
            coeffs = polynomial_coefficients(spikes, nu, n)
            x = solve_x(coeffs)
            assert_certified(coeffs, x)
            if nu == 1:
                # the gap to the leading term is 5.3% here and shrinks with n;
                # at nu = M/2 and M it reaches 15%
                lead = leading_term(spikes, nu, n)
                assert abs(x - lead) <= 0.1 * abs(lead)


class TestIterateExpansion:
    def test_k0_one_is_zero(self):
        coeffs = polynomial_coefficients([10.0, 3.0], 1, 200)
        assert iterate_x_expansion(coeffs, 1) == 0.0

    def test_k0_two_is_obar(self):
        coeffs = polynomial_coefficients([10.0, 3.0], 1, 200)
        x = iterate_x_expansion(coeffs, 2)
        assert x == _x_map(coeffs, 0.0)
        O_bar, _ = compose_O(coeffs.a, coeffs.b, coeffs.c, coeffs.s)
        assert x == pytest.approx(O_bar, rel=1e-15)

    def test_diverging_iteration_raises(self):
        coeffs = polynomial_coefficients(geometric_spikes(200, 16, 1.11, 0.9), 16, 200)
        with pytest.raises(NoRoot):
            iterate_x_expansion(coeffs, 40)

    def test_error_decays_with_k0(self):
        n = 2000
        spikes = (n**0.8) * 2.0 ** np.arange(20)[::-1]
        coeffs = polynomial_coefficients(spikes, 4, n)
        x = solve_x(coeffs)
        errs = [abs(iterate_x_expansion(coeffs, k0) - x) for k0 in (2, 3, 4)]
        assert errs[1] <= errs[0] and errs[2] <= errs[1]
        assert errs[2] <= 10.0 * (20 / n) ** 4


def trace_term(M_diag, l_hat_nu, n):
    """(1/n) tr(M (l_hat I - M)^{-1}) from the spectrum, as the dense path forms it."""
    return np.sum(shifted_resolvent_diag(M_diag, l_hat_nu)) / n


class TestElementaryCenterings:
    """The trace term from the spectrum and from the kernel's S (spike block first)."""

    def test_trace_exact_fraction(self):
        assert trace_term([1.0, 2.0], 5.0, 10) == pytest.approx(11.0 / 120.0, rel=1e-15)
        S = np.diag([9.0, 1.0, 2.0])
        assert bulk_trace(S, 1, 5.0) / 10 == pytest.approx(11.0 / 120.0, rel=1e-15)

    def test_trace_zero_bulk(self):
        assert trace_term(np.zeros(6), 3.0, 10) == 0.0
        assert bulk_trace(np.diag([9.0] + [0.0] * 6), 1, 4.0) == 0.0

    def test_trace_not_invertible(self):
        with pytest.raises(NotInvertible):
            trace_term([2.0], 2.0, 10)
        with pytest.raises(NotInvertible):
            bulk_trace(np.diag([9.0, 2.0]), 1, 2.0)

    def test_statistical_two_spikes(self):
        assert statistical_centering([10.0, 2.0], 1, 100) == pytest.approx(-0.0025, rel=1e-15)

    def test_statistical_single_spike_empty_sum(self):
        assert statistical_centering([10.0], 1, 100) == 0.0

    def test_statistical_three_spikes(self):
        got = statistical_centering([10.0, 5.0, 2.0], 2, 10)
        assert got == pytest.approx((10.0 / 5.0 + 2.0 / -3.0) / 10.0, rel=1e-14)

    def test_statistical_ties(self):
        with pytest.raises(TiedEigenvalues):
            statistical_centering([5.0, 5.0], 1, 10)

    def test_oracle_values(self):
        assert oracle_centering(11.0, 300, 2, 200) == pytest.approx(0.149, rel=1e-15)
        assert oracle_centering(1e9, 300, 2, 200) <= 1e-9 * 1.5
        with pytest.raises(SpikeAtOne):
            oracle_centering(1.0, 300, 2, 200)


class TestXModePolicy:
    def test_small_m_defaults_to_zero(self):
        assert resolve_x_mode(None, 10_000, 10) == "zero"
        assert resolve_x_mode("auto", 10_000, 10) == "zero"

    def test_large_m_defaults_to_root(self):
        assert resolve_x_mode(None, 10_000, 100) == "root"

    def test_explicit_override(self):
        assert resolve_x_mode("iter:3", 10_000, 10) == "iter:3"

    def test_deterministic_shift_modes(self):
        n = 1000
        spikes = (n**0.8) * np.array([4.0, 2.0, 1.0])
        assert deterministic_shift(spikes, 1, n, "zero") == 0.0
        x_root = deterministic_shift(spikes, 1, n, "root")
        x_iter = deterministic_shift(spikes, 1, n, "iter:4")
        assert abs(x_root - x_iter) <= 1e-8


@pytest.fixture(scope="module")
def instance(gaussian):
    n = 600
    spikes = (n**0.8) * np.array([4.0, 2.0, 1.0])
    spec = SpikedModelSpec(n=n, N=400, M=3, spikes=spikes, law=gaussian)
    X, Z = generate_data(spec, 909)
    bd = block_decompose(Z, spec.spikes)
    eig = sym_eigen(sample_covariance(X))
    al = alignment(eig, None, spec.spikes, 1)
    return spec, bd, eig, al


class TestCltStatistics:
    def test_degenerate_centering_gives_zero(self, gaussian):
        # single spike, x = 0: choosing l = l_hat / (1 + c_tr) zeroes the statistic
        n = 300
        spec = SpikedModelSpec(n=n, N=200, M=1, spikes=[n**0.8], law=gaussian)
        X, Z = generate_data(spec, 55)
        bd = block_decompose(Z, spec.spikes)
        eig = sym_eigen(sample_covariance(X))
        al = alignment(eig, None, spec.spikes, 1)
        c_tr = trace_term(bd.M_diag, al.l_hat, n)
        l_star = al.l_hat / (1.0 + c_tr)
        got = clt_statistics(bd, al, [l_star], gaussian, "mixed", x_mode="zero")
        assert abs(got) <= 1e-10

    def test_gaussian_scale(self, instance, gaussian):
        spec, bd, eig, al = instance
        got = clt_statistics(bd, al, spec.spikes, gaussian, "oracle", x_mode="zero")
        centering = oracle_centering(spec.spikes[0], spec.N, spec.M, spec.n)
        expected = math.sqrt(spec.n / 2.0) * (al.l_hat / spec.spikes[0] - 1.0 - centering)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_statistical_needs_lhat(self, instance, gaussian):
        spec, bd, eig, al = instance
        with pytest.raises(InvalidDims):
            clt_statistics(bd, al, spec.spikes, gaussian, "statistical")
        got = clt_statistics(
            bd, al, spec.spikes, gaussian, "statistical", l_hat=eig.values[:3]
        )
        assert np.isfinite(got)

    def test_modes_agree_up_to_centerings(self, instance, gaussian):
        spec, bd, eig, al = instance
        mixed = clt_statistics(bd, al, spec.spikes, gaussian, "mixed", x_mode="root")
        oracle = clt_statistics(bd, al, spec.spikes, gaussian, "oracle", x_mode="root")
        scale = math.sqrt(spec.n / 2.0)
        gap = (mixed - oracle) / scale
        c_tr = trace_term(bd.M_diag, al.l_hat, spec.n)
        orc = oracle_centering(spec.spikes[0], spec.N, spec.M, spec.n)
        assert gap == pytest.approx(orc - c_tr, rel=1e-10)


class TestCltCentering:
    """The one place that picks trace/oracle base and x/empirical extra."""

    BULK = np.array([0.5, 1.0, 2.0])

    def test_each_mode_is_its_two_terms(self):
        l_hat = np.array([50.0, 20.0, 8.0])
        trace = np.sum(shifted_resolvent_diag(self.BULK, 20.0))
        tr = trace_term(self.BULK, 20.0, 100)
        assert clt_centering("mixed", 2, 100, trace, 0.01) == tr + 0.01
        assert clt_centering("statistical", 2, 100, trace, 0.01, l_hat) == (
            tr + statistical_centering(l_hat, 2, 100)
        )
        assert clt_centering("oracle", 2, 100, 0.25, 0.01) == 0.25 + 0.01

    def test_statistical_needs_lhat_and_unknown_mode(self):
        with pytest.raises(InvalidDims):
            clt_centering("statistical", 2, 100, 0.1, 0.0)
        with pytest.raises(InvalidDims):
            clt_centering("hybrid", 2, 100, 0.1, 0.0)

    def test_trace_modes_need_lhat_above_bulk(self):
        # both sources of the trace modes' bulk sum flag l_hat_nu = 2 = max bulk
        with pytest.raises(NotInvertible):
            shifted_resolvent_diag(self.BULK, 2.0)
        with pytest.raises(NotInvertible):
            bulk_trace(np.diag([9.0, *self.BULK]), 1, 2.0)
        bd_spec = SpikedModelSpec(n=60, N=40, M=1, spikes=[20.0], law=EntryLaw.gaussian())
        X, Z = generate_data(bd_spec, 5)
        bd = block_decompose(Z, bd_spec.spikes)
        al = alignment(sym_eigen(sample_covariance(X)), None, bd_spec.spikes, 1)
        al.l_hat = float(np.max(bd.M_diag))
        for mode in ("mixed", "statistical"):
            with pytest.raises(NotInvertible):
                clt_statistics(bd, al, bd_spec.spikes, bd_spec.law, mode, l_hat=[al.l_hat])


class TestSeriesExpansion:
    def test_identity_residuals_small(self, small_spec):
        X, Z = generate_data(small_spec, 71)
        bd = block_decompose(Z, small_spec.spikes)
        eig = sym_eigen(sample_covariance(X))
        for nu in (1, 2, 4):
            al = alignment(eig, None, small_spec.spikes, nu)
            rep = series_expansion_check(bd, al, small_spec.spikes, nu, J=30)
            assert rep.entry_residual <= 1e-6
            assert rep.sigma3_residual <= 1e-6
            assert rep.decay_ratio < 1.0

    def test_truncation_monotone(self, small_spec):
        X, Z = generate_data(small_spec, 73)
        bd = block_decompose(Z, small_spec.spikes)
        eig = sym_eigen(sample_covariance(X))
        al = alignment(eig, None, small_spec.spikes, 2)
        r0 = series_expansion_check(bd, al, small_spec.spikes, 2, J=0)
        r30 = series_expansion_check(bd, al, small_spec.spikes, 2, J=30)
        assert r30.entry_residual < r0.entry_residual

    def test_exact_alignment_zero_residuals(self):
        # synthetic: a = e_nu exactly and a bd whose D e_nu vanishes
        from spikedcov.eigen import Alignment, BlockDecomposition

        M, p, n = 3, 6, 40
        spikes = np.array([8.0, 4.0, 2.0])
        bd = BlockDecomposition(
            S_AA=np.diag(spikes),
            S_AB=np.zeros((M, p)),
            S_BB=np.zeros((p, p)),
            M_diag=np.zeros(p),
            V=np.eye(p),
            H=np.zeros((n, p)),
            T=np.zeros((p, M)),
            Z_A=np.zeros((M, n)),
            Lambda=spikes,
        )
        e1 = np.zeros(M)
        e1[0] = 1.0
        al = Alignment(nu=1, l_hat=8.0, a=e1, R=0.0, inner=1.0, p_A=e1, p_B=np.zeros(p))
        rep = series_expansion_check(bd, al, spikes, 1, J=5)
        assert rep.entry_residual == 0.0
        assert rep.sigma3_residual == 0.0


class TestMonteCarloOracleClt:
    def test_oracle_clt_quick(self, gaussian):
        # reduced-replicate version of the oracle CLT (full run in acceptance)
        from spikedcov.montecarlo import ExperimentConfig, run_experiment

        n = 1000
        spikes = [n**0.9, n**0.9 / 2, n**0.9 / 4]
        spec = SpikedModelSpec(n=n, N=500, M=3, spikes=spikes, law=gaussian)
        cfg = ExperimentConfig(
            spec=spec, nu=1, replicates=100, master_seed=314159,
            statistic="clt_oracle", x_mode="zero", workers=2,
        )
        rep = run_experiment(cfg)
        assert -0.2 <= rep.mean <= 0.2
        assert 0.7 <= rep.variance <= 1.3

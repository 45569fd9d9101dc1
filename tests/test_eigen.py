import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikedcov import eigen as eigen_module
from spikedcov.eigen import (
    alignment,
    block_decompose,
    bulk_trace,
    sample_covariance,
    shifted_resolvent_diag,
    spike_quadratic_form,
    sym_eigen,
    top_eigenpairs,
    top_eigenvalues,
    verify_master_identities,
)
from spikedcov.errors import DegenerateAlignment, NotInvertible, NotSymmetric
from spikedcov.model import EntryLaw, SpikedModelSpec, generate_data, random_orthogonal
from spikedcov.rng import Stream

from .oracles import svd_block_decompose


def random_symmetric(dim, seed):
    g = Stream(seed, "sym", dim).normals((dim, dim))
    return (g + g.T) / 2.0


class TestSymEigen:
    def test_diagonal(self):
        eig = sym_eigen(np.diag([2.0, 3.0]))
        np.testing.assert_allclose(eig.values, [3.0, 2.0])
        np.testing.assert_allclose(eig.vectors, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)

    def test_two_by_two_offdiagonal(self):
        eig = sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(eig.values, [1.0, -1.0], atol=1e-15)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(np.abs(eig.vectors), [[s, s], [s, s]], atol=1e-14)
        # sign rule: largest-|.| component positive (first index on ties)
        assert eig.vectors[0, 0] > 0 and eig.vectors[0, 1] > 0

    def test_reconstruction_50x50(self):
        A = random_symmetric(50, 1)
        eig = sym_eigen(A)
        recon = (eig.vectors * eig.values) @ eig.vectors.T
        assert np.max(np.abs(recon - A)) <= 1e-8 * np.max(np.abs(A))
        assert np.max(np.abs(eig.vectors.T @ eig.vectors - np.eye(50))) <= 1e-10

    def test_residual_per_pair(self):
        A = random_symmetric(40, 2)
        eig = sym_eigen(A)
        norm = np.linalg.norm(A, 2)
        for i in range(40):
            res = np.linalg.norm(A @ eig.vectors[:, i] - eig.values[i] * eig.vectors[:, i])
            assert res <= 1e-8 * (1.0 + norm)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_values_non_increasing_and_deterministic(self):
        A = random_symmetric(30, 3)
        e1, e2 = sym_eigen(A), sym_eigen(A)
        assert np.all(np.diff(e1.values) <= 0)
        np.testing.assert_array_equal(e1.values, e2.values)
        np.testing.assert_array_equal(e1.vectors, e2.vectors)

    def test_sign_rule_on_ties_takes_the_first_index(self):
        # columns whose largest |.| is attained by a + and a - entry, either order
        cols = np.array([[0.5, -0.5, 0.0, 0.0, -1.0],
                         [-0.5, 0.5, 0.0, -1.0, 1.0],
                         [0.5, 0.5, 0.0, 1.0, 0.0],
                         [-0.5, -0.5, 0.0, 0.0, 0.0]])
        rng = np.random.default_rng(8)
        for V in (cols, -cols, cols[::-1], rng.choice([-1.0, 0.0, 1.0], size=(30, 40))):
            idx = np.argmax(np.abs(V), axis=0)
            signs = np.sign(V[idx, np.arange(V.shape[1])])
            want = V * np.where(signs == 0.0, 1.0, signs)
            np.testing.assert_array_equal(eigen_module._fix_signs(V.copy()), want)

    def test_makes_no_n_by_n_temporaries(self):
        # N = 500: eigh's vectors and argmax's copy are 2 MB each; the parent's
        # reorder copy, |V| and V * signs added three more (6.09 MB traced)
        g = Stream(5, "sym", 500).normals((500, 1000))
        A = g @ g.T / 1000
        sym_eigen(A)  # warm-up
        tracemalloc.start()
        try:
            eig = sym_eigen(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5e6
        # one C-ordered array, so BLAS products with the vectors keep their bits
        assert eig.vectors.flags.c_contiguous

    def test_top_eigenpairs_matches_full(self):
        # top_eigenpairs is specified for PSD Gram matrices
        g = Stream(4, "sym", 60).normals((60, 60))
        A = g @ g.T / 60
        eig = sym_eigen(A)
        vals, vecs = top_eigenpairs(A, 5)
        np.testing.assert_allclose(vals, eig.values[:5], atol=1e-10)
        np.testing.assert_allclose(np.abs(vecs), np.abs(eig.vectors[:, :5]), atol=1e-8)


def psd_with_spectrum(values, seed):
    U = random_orthogonal(len(values), seed)
    A = (U * np.asarray(values)) @ U.T
    return (A + A.T) / 2.0


class TestTopEigenpairs:
    def test_identity_start_trap(self):
        # a start block of e_1..e_k spans only eigenvectors of eigenvalue 1
        # here and would certify l = 1; the random start finds 10
        A = np.diag([1.0] * 19 + [10.0])
        vals, vecs = top_eigenpairs(A, 1)
        assert vals[0] == pytest.approx(10.0, rel=1e-12)
        np.testing.assert_allclose(vecs[:, 0], np.eye(20)[:, 19], atol=1e-12)
        np.testing.assert_array_equal(top_eigenvalues(A, 1), vals)

    def test_slow_gap_takes_dense_fallback(self, monkeypatch):
        # lambda_m / lambda_{m+1} = 1 + 1e-3, and the bulk crowds up below
        # lambda_{m+1} (quadratic spacing), so the block's spare column does
        # not take in the gap: certifying would take ~600 products, and the
        # cap of 64 runs out first
        m = 3
        A = psd_with_spectrum([10.0, 5.0, 2.002] + list(2.0 - 1.9 * np.linspace(0, 1, 57) ** 2), 41)
        calls = []

        def dense(S):
            calls.append(S.shape)
            return sym_eigen(S)

        monkeypatch.setattr(eigen_module, "sym_eigen", dense)
        vals, vecs = top_eigenpairs(A, m)
        assert calls == [A.shape]
        ref = sym_eigen(A)
        np.testing.assert_array_equal(vals, ref.values[:m])
        np.testing.assert_array_equal(vecs, ref.vectors[:, :m])

    def test_fast_gap_is_certified_without_fallback(self, monkeypatch):
        A = psd_with_spectrum([50.0, 20.0, 8.0] + list(np.linspace(1.5, 0.1, 57)), 43)
        monkeypatch.setattr(eigen_module, "sym_eigen", None)  # must not be called
        vals, vecs = top_eigenpairs(A, 3)
        res = np.linalg.norm(A @ vecs - vecs * vals, axis=0)
        assert np.all(res <= 1e-12 * vals)
        np.testing.assert_allclose(vals, [50.0, 20.0, 8.0], rtol=1e-13)
        # descending order and the sign convention of sym_eigen
        idx = np.argmax(np.abs(vecs), axis=0)
        assert np.all(vecs[idx, np.arange(3)] > 0)


# top_eigenpairs against sym_eigen. Values: within TOP_M_RTOL * lambda_1.
# Vectors: within TOP_M_RTOL * lambda_1 / gap of the reference eigenspace,
# where gap is the distance to the rest of the spectrum (Davis-Kahan). The
# certificate alone gives 1e-12 * theta over the gap; eigh adds ~N eps.
# Reference eigenvalues within TOP_M_TIE * lambda_1 of each other are one
# tied eigenspace: the pairs in it are compared as a subspace.
TOP_M_RTOL = 1e-10
TOP_M_TIE = 1e-8
TOP_M_LAWS = {
    "gaussian": EntryLaw.gaussian(),
    "uniform": EntryLaw.uniform_scaled(),
    "twopoint:0.5": EntryLaw.two_point(0.5),
}


def assert_matches_dense(S, m, vals, vecs, ref=None):
    """(vals, vecs) are the top m pairs of ``ref = sym_eigen(S)``, tied eigenspaces as subspaces."""
    ref = sym_eigen(S) if ref is None else ref
    top = ref.values[0]
    np.testing.assert_allclose(vals, ref.values[:m], rtol=0, atol=TOP_M_RTOL * top)
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(m), rtol=0, atol=1e-12)
    cuts = np.flatnonzero(-np.diff(ref.values) > TOP_M_TIE * top) + 1
    for group in np.split(np.arange(len(ref.values)), cuts):
        inside = group[group < m]
        if not inside.size:
            break
        others = np.delete(ref.values, group)
        gap = np.min(np.abs(others[:, None] - ref.values[group]))
        tol = TOP_M_RTOL * top / gap
        U, V = ref.vectors[:, group], vecs[:, inside]
        np.testing.assert_allclose(U @ (U.T @ V), V, rtol=0, atol=tol)
        if group.size == 1:  # a simple eigenvalue: the same vector, sign convention too
            np.testing.assert_allclose(V, U, rtol=0, atol=tol)


class TestTopEigenpairsAgainstDense:
    """The kernel's top-M against the dense path across shapes, laws and spike rules."""

    @settings(max_examples=60, deadline=None)
    @given(
        N=st.integers(min_value=8, max_value=100),
        n_over_N=st.floats(min_value=0.25, max_value=4.0),
        m_share=st.floats(min_value=0.0, max_value=1.0),
        law=st.sampled_from(sorted(TOP_M_LAWS)),
        rule=st.sampled_from(["readme", "geometric"]),
        ratio=st.floats(min_value=1.11, max_value=2.5),
        tie=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_property_matches_sym_eigen(self, N, n_over_N, m_share, law, rule, ratio, tie, seed):
        # p <= n and p > n, M from 1 to N / 4; spikes c * n^0.9 as in the
        # README (at least 1), or n^0.9 ratio^k as in the x-root regime test
        n = max(6, round(n_over_N * N))
        M = min(1 + int(m_share * (N // 4 - 1)), n - 1)
        if rule == "readme":
            spikes = [max(1.0, (M - k) / M * n**0.9) for k in range(M)]
        else:
            spikes = list(n**0.9 * ratio ** np.arange(M)[::-1])
        spec = SpikedModelSpec(n=n, N=N, M=M, spikes=spikes, law=TOP_M_LAWS[law])
        X = generate_data(spec, seed)[0]
        S = sample_covariance(X)
        if tie:
            # tie the top two sample eigenvalues, and the M-th to the one
            # below it, so a tied eigenspace straddles the cut at M
            ref = sym_eigen(S)
            values = ref.values.copy()
            values[1] = values[0]
            values[M] = values[M - 1]
            X = ref.vectors * np.sqrt(np.maximum(values, 0.0) * N)  # S = X X^T / N
            S = (ref.vectors * values) @ ref.vectors.T
            S = (S + S.T) / 2.0
        ref = sym_eigen(S)
        vals, vecs = top_eigenpairs(S, M)
        assert_matches_dense(S, M, vals, vecs, ref)
        vals, vecs = top_eigenpairs(X, M, factor=True)
        assert_matches_dense(S, M, vals, vecs, ref)

    @pytest.mark.parametrize("N, M", [(1000, 40), (2000, 100)])
    def test_many_spikes_are_certified(self, monkeypatch, N, M):
        # the paper's regime of many spikes, n = 2N, spikes (M - k) / M n^0.9:
        # both inputs certify without the dense path and match it
        n = 2 * N
        spikes = [max(1.0, (M - k) / M * n**0.9) for k in range(M)]
        spec = SpikedModelSpec(n=n, N=N, M=M, spikes=spikes, law=EntryLaw.gaussian())
        X = generate_data(spec, 23)[0]
        S = sample_covariance(X)
        ref = sym_eigen(S)
        monkeypatch.setattr(eigen_module, "sym_eigen", None)  # must not be called
        for A, factor in ((S, False), (X, True)):
            vals, vecs = top_eigenpairs(A, M, factor=factor)
            assert np.all(np.linalg.norm(S @ vecs - vecs * vals, axis=0) <= 1e-12 * vals)
            assert_matches_dense(S, M, vals, vecs, ref)

    @pytest.mark.parametrize("N, n", [(60, 40), (40, 120)])
    def test_injected_slow_gap_is_answered_by_the_dense_path(self, monkeypatch, N, n):
        # a drawn sample covariance with its bulk lifted to within 1e-3 of
        # the M-th eigenvalue and crowded up to its top (quadratic spacing
        # down to the drawn bottom): certifying would take ~300-650
        # products, so the cap runs out first; on both inputs
        M = 3
        spec = SpikedModelSpec(n=n, N=N, M=M, spikes=[40.0, 20.0, 10.0], law=EntryLaw.gaussian())
        ref = sym_eigen(sample_covariance(generate_data(spec, 17)[0]))
        values = ref.values.copy()
        top = values[M - 1] / (1.0 + 1e-3)
        values[M:] = top - (top - max(values[-1], 0.0)) * np.linspace(0, 1, N - M) ** 2
        X = ref.vectors * np.sqrt(values * N)  # S = X X^T / N
        S = sample_covariance(X)
        calls = []

        def dense(A):
            calls.append(A.shape)
            return sym_eigen(A)

        monkeypatch.setattr(eigen_module, "sym_eigen", dense)
        want = sym_eigen(S)
        for A, factor in ((S, False), (X, True)):
            calls.clear()
            vals, vecs = top_eigenpairs(A, M, factor=factor)
            assert calls == [S.shape]
            np.testing.assert_array_equal(vals, want.values[:M])
            np.testing.assert_array_equal(vecs, want.vectors[:, :M])


# bulk_trace against the sum over the SVD route's bulk spectrum
# (oracles.svd_block_decompose), a factorization it does not share: relative
# 1e-12 times the condition number l_hat / (l_hat - max M_diag) of
# l_hat I - S_BB. The worst measured ratio over 2000 sweep cases is 1.5e-13.
BULK_TRACE_RTOL = 1e-12
BULK_TRACE_LAWS = {
    "gaussian": EntryLaw.gaussian(),
    "uniform": EntryLaw.uniform_scaled(),
    "twopoint:0.05": EntryLaw.two_point(0.05),
}


def without_lapack(monkeypatch):
    """Make bulk_trace take its numpy fallback, as on a numpy without OpenBLAS."""
    monkeypatch.setattr(eigen_module, "_lapack_cholesky_inverse", lambda: None)


class TestBulkSpectrum:
    """The kernel's bulk trace: the sum of m / (l_hat - m) over the S_BB spectrum."""

    @pytest.mark.parametrize("N, n", [(300, 400), (12, 5)])
    def test_matches_block_decompose(self, N, n):
        # p = N - M <= n, and p > n where the trailing p - n entries of M_diag are 0
        spikes = [40.0, 20.0]
        Z = Stream(8, "bulk", N, n).normals((N, n))
        X = Z.copy()
        X[:2] *= np.sqrt(spikes)[:, None]
        S = sample_covariance(X)
        m_diag = svd_block_decompose(Z, spikes).M_diag
        for l_hat in (*top_eigenvalues(S, 2), 1.01 * m_diag[0], 1e3):
            want = np.sum(shifted_resolvent_diag(m_diag, l_hat))
            assert bulk_trace(S, 2, l_hat) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("lapack", [True, False], ids=["lapack", "numpy"])
    def test_l_hat_at_or_below_the_bulk_is_not_invertible(self, monkeypatch, lapack):
        if not lapack:
            without_lapack(monkeypatch)
        S = np.diag([50.0, 3.0, 1.0, 2.0])
        with pytest.raises(NotInvertible):
            bulk_trace(S, 1, 3.0)  # a tie: l_hat I - S_BB is singular
        with pytest.raises(NotInvertible):
            bulk_trace(S, 1, 2.5)
        Z = Stream(9, "bulk", 40, 30).normals((40, 30))
        S = sample_covariance(Z)
        top = svd_block_decompose(Z, [1.0]).M_diag[0]
        for l_hat in (top * (1.0 - 1e-9), 0.5 * top, 0.0, -1.0):
            with pytest.raises(NotInvertible):
                bulk_trace(S, 1, l_hat)
        assert bulk_trace(S, 1, top * (1.0 + 1e-9)) > 0.0

    def test_numpy_fallback_agrees_with_lapack(self, monkeypatch):
        fast, slow = [], []
        for N, n in ((200, 150), (120, 300)):  # p > n and p <= n
            Z = Stream(10, "bulk", N, n).normals((N, n))
            Z[:3] *= np.sqrt([60.0, 30.0, 15.0])[:, None]
            S = sample_covariance(Z)
            for l_hat in (*top_eigenvalues(S, 3), 1.01 * top_eigenvalues(S[3:, 3:], 1)[0]):
                fast.append(bulk_trace(S, 3, l_hat))
                with monkeypatch.context() as patch:
                    without_lapack(patch)
                    slow.append(bulk_trace(S, 3, l_hat))
        np.testing.assert_allclose(slow, fast, rtol=1e-12, atol=0.0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        N=st.integers(min_value=8, max_value=120),
        n_over_N=st.floats(min_value=0.25, max_value=4.0),
        m_share=st.floats(min_value=0.0, max_value=1.0),
        law=st.sampled_from(sorted(BULK_TRACE_LAWS)),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_property_matches_block_decompose_at_every_nu(self, N, n_over_N, m_share, law, seed):
        # p <= n and p > n, M from 1 to N / 4, spikes c * n^0.9 as in the
        # README (at least 1)
        n = max(6, round(n_over_N * N))
        M = min(1 + int(m_share * (N // 4 - 1)), n - 1)
        spikes = [max(1.0, (M - k) / M * n**0.9) for k in range(M)]
        spec = SpikedModelSpec(n=n, N=N, M=M, spikes=spikes, law=BULK_TRACE_LAWS[law])
        X, Z = generate_data(spec, seed)
        S = sample_covariance(X)
        m_diag = svd_block_decompose(Z, spec.spikes).M_diag
        top = np.max(m_diag)
        for l_hat in sym_eigen(S).values[:M]:
            if l_hat > top * (1.0 + 1e-6):
                want = np.sum(shifted_resolvent_diag(m_diag, l_hat))
                kappa = l_hat / (l_hat - top)
                assert bulk_trace(S, M, l_hat) == pytest.approx(want, rel=BULK_TRACE_RTOL * kappa)
            elif l_hat < top * (1.0 - 1e-6):
                # the spike fell into the bulk: both paths flag it
                with pytest.raises(NotInvertible):
                    shifted_resolvent_diag(m_diag, l_hat)
                with pytest.raises(NotInvertible):
                    bulk_trace(S, M, l_hat)


class TestSampleCovariance:
    def test_identity(self):
        np.testing.assert_allclose(sample_covariance(np.eye(4)), np.eye(4) / 4.0)

    def test_single_column(self):
        S = sample_covariance(np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(S, [[9.0, 12.0], [12.0, 16.0]])

    def test_trace_identity(self):
        X = Stream(5, "cov").normals((20, 35))
        S = sample_covariance(X)
        assert abs(np.trace(S) - np.sum(X**2) / 35) <= 1e-12 * np.trace(S)

    def test_exactly_symmetric(self):
        X = Stream(6, "cov2").normals((30, 50))
        S = sample_covariance(X)
        np.testing.assert_array_equal(S, S.T)
        # a strided view: one matrix product would not round symmetrically
        S = sample_covariance(Stream(6, "cov3").normals((300, 800))[:, ::2])
        np.testing.assert_array_equal(S, S.T)

    @staticmethod
    def symmetrized_reference(X):
        """The formula sample_covariance replaced: divide, then average with the transpose."""
        S = (X @ X.T) / X.shape[1]
        return (S + S.T) / 2.0

    @pytest.mark.parametrize("N, n, order", [
        (500, 1000, "C"),  # clt_bulk
        (2000, 4000, "C"),
        (300, 400, "F"),
        (513, 1000, "C"),
        (1100, 1100, "C"),
        (1100, 2200, "C"),
        (700, 300, "C"),  # n < N
    ])
    def test_bit_identical_to_the_symmetrized_formula(self, N, n, order):
        X = np.asarray(Stream(7, "cov", N, n).normals((N, n)), order=order)
        S = sample_covariance(X)
        np.testing.assert_array_equal(S, self.symmetrized_reference(X))

    def test_read_only_input_is_not_written(self):
        X = Stream(9, "cov").normals((20, 35))
        X.flags.writeable = False
        S = sample_covariance(X)
        assert not np.shares_memory(S, X)
        np.testing.assert_array_equal(S, self.symmetrized_reference(X))

    @pytest.mark.parametrize("N, n", [(20, 35), (600, 1200)])
    def test_writeable_input_is_left_unchanged(self, N, n):
        X = Stream(8, "cov", N, n).normals((N, n))
        original = X.copy()
        S = sample_covariance(X)
        assert not np.shares_memory(S, X)
        np.testing.assert_array_equal(X, original)


# block_decompose against the SVD route, relative to the largest entry: the
# prototype measured at most 1.8e-15 on the quadratic forms.
BLOCK_DECOMPOSE_RTOL = 1e-12


class TestBlockDecompose:
    """block_decompose against the SVD route of ``oracles.svd_block_decompose``.

    The two share no factorization: the bulk spectrum and the quadratic forms
    S_AB (l_hat I - S_BB)^{-power} S_BA agree to 1e-12 relative, and
    W^T W = S_AB S_BA for any orthonormal bulk basis.
    """

    @staticmethod
    def assert_matches_svd_route(bd, Z, spikes, l_hats):
        ref = svd_block_decompose(Z, spikes)
        assert (bd.n, bd.M, bd.N) == (ref.n, ref.M, ref.N)
        scale = np.max(np.abs(ref.M_diag))
        np.testing.assert_allclose(bd.M_diag, ref.M_diag, rtol=0, atol=BLOCK_DECOMPOSE_RTOL * scale)
        for l_hat in l_hats:
            for power in (1, 2):
                want = spike_quadratic_form(ref, l_hat, power)
                got = spike_quadratic_form(bd, l_hat, power)
                assert np.max(np.abs(got - want)) <= BLOCK_DECOMPOSE_RTOL * np.max(np.abs(want))

    @staticmethod
    def cross_gram(Z, spikes):
        """S_AB S_BA from its definition."""
        M, n = len(spikes), Z.shape[1]
        C = (np.sqrt(spikes)[:, None] * Z[:M]) @ Z[M:].T / n
        return C @ C.T

    def test_hand_computed_bulk(self):
        # Z with M = 1 spike row of spike 2, bulk Z_B = [[3,0],[0,4]], n = 2:
        # S_BB = diag(4.5, 8) so M_diag desc = (8, 4.5) with V = (+-e2, +-e1);
        # S_BA = Z_B sqrt(2) (1, 1)^T / 2 = (3, 4) / sqrt(2), so
        # |W| = (4, 3) / sqrt(2) and at l_hat = 10 the forms are
        # 8/2 + 4.5/5.5 = 53/11 and 8/4 + 4.5/30.25 = 260/121
        Z = np.array([[1.0, 1.0], [3.0, 0.0], [0.0, 4.0]])
        bd = block_decompose(Z, [2.0])
        np.testing.assert_allclose(bd.M_diag, [8.0, 4.5], rtol=1e-15)
        np.testing.assert_allclose(np.abs(bd.W), [[4.0 / np.sqrt(2.0)], [3.0 / np.sqrt(2.0)]], rtol=1e-14)
        np.testing.assert_allclose(bd.S_AA, [[2.0]], rtol=1e-15)  # 2 (1 + 1) / 2
        np.testing.assert_allclose(spike_quadratic_form(bd, 10.0, 1), [[53.0 / 11.0]], rtol=1e-14)
        np.testing.assert_allclose(spike_quadratic_form(bd, 10.0, 2), [[260.0 / 121.0]], rtol=1e-14)
        assert (bd.n, bd.M, bd.N) == (2, 1, 3)
        self.assert_matches_svd_route(bd, Z, [2.0], (10.0, 8.5))

    def test_tall_bulk_matches_the_svd_route(self):
        # N - M > n: S_BB has rank n, and the (N - M) - n values past it are
        # rounding-level where the SVD route pads exact zeros
        Z = Stream(7, "tall").normals((12, 5))
        spikes = [3.0, 2.0]
        bd = block_decompose(Z, spikes)
        assert bd.M_diag.shape == (10,) and bd.W.shape == (10, 2)
        top = bd.M_diag[0]
        assert np.all(np.abs(bd.M_diag[5:]) <= 1e-14 * top)
        np.testing.assert_allclose(bd.W.T @ bd.W, self.cross_gram(Z, spikes), rtol=1e-12)
        self.assert_matches_svd_route(bd, Z, spikes, (1.01 * top, 2.0 * top, 50.0 * top))

    def test_factorization_invariants(self, small_spec):
        X, Z = generate_data(small_spec, 11)
        bd = block_decompose(Z, small_spec.spikes)
        n = small_spec.n
        assert (bd.n, bd.M, bd.N) == (n, 4, small_spec.N)
        assert bd.W.shape == (small_spec.N - 4, 4)
        want = self.cross_gram(Z, small_spec.spikes)
        assert np.max(np.abs(bd.W.T @ bd.W - want)) <= 1e-12 * np.max(np.abs(want))
        XA = np.sqrt(small_spec.spikes)[:, None] * Z[:4]
        np.testing.assert_array_equal(bd.S_AA, (XA @ XA.T) / n)
        l_hats = top_eigenvalues(sample_covariance(X), 4)
        self.assert_matches_svd_route(bd, Z, small_spec.spikes, l_hats)
        for held in (bd.S_AA, bd.M_diag, bd.W):  # Z may be scaled in place after the split
            assert not np.shares_memory(held, Z)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_blocks_exactly_symmetric(self, small_spec, order):
        Z = np.asarray(generate_data(small_spec, 19)[1], order=order)
        bd = block_decompose(Z, small_spec.spikes)
        np.testing.assert_array_equal(bd.S_AA, bd.S_AA.T)
        Q = spike_quadratic_form(bd, 1.01 * bd.M_diag[0])
        np.testing.assert_array_equal(Q, Q.T)

    def test_bulk_spectrum_matches_sym_eigen(self, small_spec):
        # M_diag is the whole spectrum of S_BB, descending
        _, Z = generate_data(small_spec, 17)
        bd = block_decompose(Z, small_spec.spikes)
        direct = sym_eigen(sample_covariance(Z[4:])).values
        np.testing.assert_array_equal(bd.M_diag, direct)
        assert np.all(np.diff(bd.M_diag) <= 0.0)


class TestAlignment:
    def test_perfect_alignment(self):
        eig = sym_eigen(np.diag([5.0, 2.0, 1.0, 1.0]))
        al = alignment(eig, None, [5.0, 2.0], 1)
        assert al.R == 0.0
        np.testing.assert_allclose(al.a, [1.0, 0.0], atol=1e-15)
        assert al.inner == pytest.approx(1.0)

    def test_sign_convention_flips_negative(self):
        from spikedcov.eigen import EigenSystem

        vectors = np.eye(3)
        vectors[0, 0] = -1.0
        eig = EigenSystem(values=np.array([4.0, 1.0, 1.0]), vectors=vectors)
        al = alignment(eig, None, [4.0, 2.0], 1)
        assert al.inner == pytest.approx(1.0)

    def test_basis_rotation(self, gaussian):
        from spikedcov.model import SpikedModelSpec

        n, N = 500, 100
        U = random_orthogonal(N, 31)
        spikes = [50.0, 25.0]
        spec = SpikedModelSpec(n=n, N=N, M=2, spikes=spikes, law=gaussian, basis=U)
        X, _ = generate_data(spec, 101)
        eig = sym_eigen(sample_covariance(X))
        al = alignment(eig, U, spikes, 1)
        # inner = <p, u_1> with u_1 the first basis column
        p = eig.vectors[:, 0]
        assert al.inner == pytest.approx(abs(p @ U[:, 0]), abs=1e-12)
        assert al.inner**2 > 0.9

    def test_divergent_spikes_align(self, gaussian):
        from spikedcov.model import SpikedModelSpec

        n, N, M = 500, 400, 3
        spikes = (n**0.8) * np.array([4.0, 2.0, 1.0])
        spec = SpikedModelSpec(n=n, N=N, M=M, spikes=spikes, law=gaussian)
        X, _ = generate_data(spec, 202)
        eig = sym_eigen(sample_covariance(X))
        for nu in range(1, M + 1):
            al = alignment(eig, None, spikes, nu)
            assert al.inner**2 > 0.9
            assert abs(np.linalg.norm(eig.vectors[:M, nu - 1]) ** 2 + al.R**2 - 1.0) <= 1e-10

    def test_degenerate_alignment_raises(self):
        from spikedcov.eigen import EigenSystem

        vectors = np.zeros((4, 4))
        vectors[2, 0] = 1.0  # eigenvector fully in the B block
        vectors[[0, 1, 3], [1, 2, 3]] = 1.0
        eig = EigenSystem(values=np.array([3.0, 1.0, 1.0, 0.5]), vectors=vectors)
        with pytest.raises(DegenerateAlignment):
            alignment(eig, None, [3.0, 2.0], 1)


class TestMasterIdentities:
    def test_residuals_small_on_simulated_instance(self, small_spec):
        X, Z = generate_data(small_spec, 23)
        bd = block_decompose(Z, small_spec.spikes)
        eig = sym_eigen(sample_covariance(X))
        for nu in (1, 4):
            al = alignment(eig, None, small_spec.spikes, nu)
            res = verify_master_identities(bd, al)
            assert res["r4"] <= 1e-6 * al.l_hat
            assert res["r5"] <= 1e-6 * (1.0 + res["R2_over_1mR2"])

    def test_rank_one_case(self, gaussian):
        from spikedcov.model import SpikedModelSpec

        n = 300
        spec = SpikedModelSpec(n=n, N=200, M=1, spikes=[n**0.8], law=gaussian)
        X, Z = generate_data(spec, 29)
        bd = block_decompose(Z, spec.spikes)
        eig = sym_eigen(sample_covariance(X))
        al = alignment(eig, None, spec.spikes, 1)
        res = verify_master_identities(bd, al)
        assert res["r5"] <= 1e-6 * (1.0 + res["R2_over_1mR2"])

    def test_tiny_spike_not_invertible(self, gaussian):
        from spikedcov.eigen import Alignment
        from spikedcov.model import SpikedModelSpec

        n = 200
        spec = SpikedModelSpec(n=n, N=150, M=1, spikes=[1.0], law=gaussian)
        _, Z = generate_data(spec, 31)
        bd = block_decompose(Z, spec.spikes)
        fake = Alignment(nu=1, l_hat=float(np.max(bd.M_diag)) * 0.5, a=np.ones(1), R=0.1, inner=1.0)
        with pytest.raises(NotInvertible):
            verify_master_identities(bd, fake)


def test_eq3_orthonormality_of_top_block(small_spec):
    X, _ = generate_data(small_spec, 37)
    eig = sym_eigen(sample_covariance(X))
    P = eig.vectors[:, :4]
    assert np.max(np.abs(P.T @ P - np.eye(4))) <= 1e-10


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), dim=st.integers(min_value=2, max_value=16))
def test_sym_eigen_reconstruction_property(seed, dim):
    A = random_symmetric(dim, seed)
    eig = sym_eigen(A)
    recon = (eig.vectors * eig.values) @ eig.vectors.T
    assert np.max(np.abs(recon - A)) <= 1e-8 * max(np.max(np.abs(A)), 1.0)

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
    sym_eigen,
    top_eigenpairs,
    top_eigenvalues,
    verify_master_identities,
)
from spikedcov.errors import DegenerateAlignment, NotInvertible, NotSymmetric
from spikedcov.model import EntryLaw, SpikedModelSpec, generate_data, random_orthogonal
from spikedcov.rng import Stream


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
        # lambda_m / lambda_{k+1} = 1 + 1e-3: the sweep cap runs out first
        m = 3
        A = psd_with_spectrum([10.0, 5.0, 2.002] + [2.0] * 57, 41)
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


# bulk_trace against the sum over block_decompose's spectrum: relative
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
        m_diag = block_decompose(Z, spikes).M_diag
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
        top = block_decompose(Z, [1.0]).M_diag[0]
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
        # p <= n and p > n, M from 1 to N / 4, spikes c * n^0.9 as in the README
        n = max(6, round(n_over_N * N))
        M = min(1 + int(m_share * (N // 4 - 1)), n - 1)
        spikes = [f"{(M - k) / M:g}*n^0.9" for k in range(M)]
        spec = SpikedModelSpec(n=n, N=N, M=M, spikes=spikes, law=BULK_TRACE_LAWS[law])
        X, Z = generate_data(spec, seed)
        S = sample_covariance(X)
        m_diag = block_decompose(Z, spec.spikes).M_diag
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
        (2000, 4000, "C"),  # eigvec_large
        (300, 400, "F"),
    ])
    def test_bit_identical_to_the_symmetrized_formula(self, N, n, order):
        X = np.asarray(Stream(7, "cov", N, n).normals((N, n)), order=order)
        np.testing.assert_array_equal(sample_covariance(X), self.symmetrized_reference(X))


class TestBlockDecompose:
    def test_hand_computed_bulk(self):
        # Z with M = 1 spike row, bulk Z_B = [[3,0],[0,4]], n = 2:
        # S_BB = (1/2) Z_B Z_B^T = diag(4.5, 8) so M_diag desc = (8, 4.5)
        Z = np.array([[1.0, 1.0], [3.0, 0.0], [0.0, 4.0]])
        bd = block_decompose(Z, [2.0])
        np.testing.assert_allclose(bd.M_diag, [8.0, 4.5], atol=1e-12)
        recon = (bd.V * bd.M_diag) @ bd.V.T
        np.testing.assert_allclose(recon, bd.S_BB, atol=1e-12)

    def test_padding_branch_tall_bulk(self, gaussian):
        # N - M > n: H gains exactly (N - M) - n zero columns
        Z = Stream(7, "tall").normals((12, 5))
        bd = block_decompose(Z, [3.0, 2.0])
        assert bd.H.shape == (5, 10)
        zero_cols = np.sum(~np.any(bd.H, axis=0))
        assert zero_cols == 10 - 5
        np.testing.assert_allclose(
            Z[2:] / np.sqrt(5), (bd.V * np.sqrt(bd.M_diag)) @ bd.H.T, atol=1e-12
        )

    def test_factorization_invariants(self, small_spec):
        _, Z = generate_data(small_spec, 11)
        bd = block_decompose(Z, small_spec.spikes)
        n = small_spec.n
        scale = np.max(np.abs(bd.S_BB))
        assert np.max(np.abs(bd.S_BB - (bd.V * bd.M_diag) @ bd.V.T)) <= 1e-8 * scale
        assert np.max(np.abs(Z[4:] / np.sqrt(n) - (bd.V * np.sqrt(bd.M_diag)) @ bd.H.T)) <= 1e-8
        sq = np.sqrt(bd.M_diag)
        assert np.max(np.abs(sq[:, None] * (bd.H.T @ bd.H) - np.diag(sq))) <= 1e-8
        T_expected = bd.H.T @ Z[:4].T / np.sqrt(n)
        np.testing.assert_array_equal(bd.T, T_expected)

    def test_sab_definition(self, small_spec):
        _, Z = generate_data(small_spec, 13)
        bd = block_decompose(Z, small_spec.spikes)
        sqrt_l = np.sqrt(small_spec.spikes)
        expected = (sqrt_l[:, None] * Z[:4]) @ Z[4:].T / small_spec.n
        assert np.max(np.abs(bd.S_AB - expected)) <= 1e-12

    def test_bulk_spectrum_matches_sym_eigen(self, small_spec):
        _, Z = generate_data(small_spec, 17)
        bd = block_decompose(Z, small_spec.spikes)
        direct = sym_eigen(bd.S_BB).values
        np.testing.assert_allclose(
            np.sort(direct), np.sort(bd.M_diag), rtol=1e-8, atol=1e-10
        )


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
            assert abs(np.linalg.norm(al.p_A) ** 2 + al.R**2 - 1.0) <= 1e-10

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
        fake = Alignment(nu=1, l_hat=float(np.max(bd.M_diag)) * 0.5, a=np.ones(1),
                         R=0.1, inner=1.0, p_A=np.ones(1), p_B=np.zeros(1))
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

"""Dense symmetric eigenstructure and the exact block decomposition.

``block_decompose`` reproduces the split of the sample covariance into the
spike block A (first M coordinates of the identity frame) and the bulk
block B, via an SVD of the bulk rows of Z: with (1/sqrt(n)) Z_B = V M^{1/2} H^T,
the diagonal M holds the eigenvalues of S_BB and T = (1/sqrt(n)) H^T Z_A^T
collects the cross terms. The two master identities tying
(S_AA, T, M, Lambda) to a sample eigenpair are checked by
``verify_master_identities``.

Dense eigen/SVD factorizations are delegated to LAPACK (Householder
tridiagonalization paths) behind the contracts below. The replication
harness needs only the top-M eigenpairs of a PSD Gram matrix and, for the
trace centering, one resolvent trace of its bulk block at one point:
``top_eigenpairs`` gets the former by certified subspace iteration,
``bulk_trace`` the latter from a Cholesky factor of l_hat I - S_BB, without
the bulk spectrum; see README.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np

from .cores import openblas_functions
from .errors import (
    DegenerateAlignment,
    DegenerateSVD,
    IndexOutOfRange,
    NoConvergence,
    NotInvertible,
    NotSymmetric,
)
from .rng import Stream

# Block subspace iteration in top_eigenpairs: certificate and sweep cap.
_SUBSPACE_TOL = 1e-12
_SUBSPACE_SWEEPS = 64


@dataclass
class EigenSystem:
    """Eigenvalues (descending) and orthonormal eigenvectors (columns)."""

    values: np.ndarray
    vectors: np.ndarray


@dataclass
class BlockDecomposition:
    """The exact A/B split of one simulated instance (identity frame)."""

    S_AA: np.ndarray
    S_AB: np.ndarray
    S_BB: np.ndarray
    M_diag: np.ndarray
    V: np.ndarray
    H: np.ndarray
    T: np.ndarray
    Z_A: np.ndarray
    Lambda: np.ndarray

    @property
    def n(self) -> int:
        return self.Z_A.shape[1]

    @property
    def M(self) -> int:
        return self.Z_A.shape[0]

    @property
    def N(self) -> int:
        return self.M + self.M_diag.shape[0]


@dataclass
class Alignment:
    """A-block direction and B-block mass of one sample eigenvector."""

    nu: int
    l_hat: float
    a: np.ndarray
    R: float
    inner: float
    p_A: np.ndarray
    p_B: np.ndarray


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns so each vector's largest-|.| component is positive.

    Ties resolve to the first index attaining the maximum (np.argmax order).
    """
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0.0] = 1.0
    return vectors * signs[np.newaxis, :]


def sym_eigen(A: np.ndarray) -> EigenSystem:
    """Full eigendecomposition of a symmetric matrix, descending order.

    Raises
    ------
    NotSymmetric
        If max |A - A^T| exceeds 1e-12 relative to max |A|.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {A.shape}")
    scale = max(np.max(np.abs(A)), 1.0)
    asym = np.max(np.abs(A - A.T))
    if asym > 1e-12 * scale:
        raise NotSymmetric(f"max |A - A^T| = {asym:.3e} exceeds 1e-12 * {scale:g}")
    try:
        values, vectors = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
    order = np.arange(len(values))[::-1]  # eigh is ascending; ties keep input order
    return EigenSystem(values=values[order].copy(), vectors=_fix_signs(vectors[:, order]))


@functools.cache
def _start_block(N: int, k: int) -> np.ndarray:
    """The fixed-key Gaussian start block of ``top_eigenpairs``, drawn once per shape."""
    block = Stream(0, "top-eigenpairs", N, k).normals((N, k))
    block.flags.writeable = False
    return block


def top_eigenpairs(S: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Largest ``m`` eigenpairs (descending) of a PSD matrix, certified.

    Block subspace iteration with Rayleigh-Ritz on ``m`` plus
    ``max(m, 4)`` columns, started from a fixed-key Gaussian block. It
    stops once every returned pair meets ||S v - theta v|| <= 1e-12 theta;
    if ``_SUBSPACE_SWEEPS`` sweeps pass first, the dense ``sym_eigen``
    answers instead. Same ordering and sign conventions as ``sym_eigen``.
    The spikes sit far above the bulk edge, so the ratio lambda_{k+1} /
    lambda_m that sets the rate is small and a few sweeps suffice.
    """
    N = S.shape[0]
    k = min(m + max(m, 4), N)
    Y = S @ _start_block(N, k)
    for _ in range(_SUBSPACE_SWEEPS):
        Q = np.linalg.qr(Y)[0]
        Y = S @ Q
        theta, W = np.linalg.eigh(Q.T @ Y)
        theta, W = theta[: -m - 1 : -1], W[:, : -m - 1 : -1]
        vectors = Q @ W
        residual = np.linalg.norm(Y @ W - vectors * theta, axis=0)
        if np.all(residual <= _SUBSPACE_TOL * theta):
            return theta.copy(), _fix_signs(vectors)
    eig = sym_eigen(S)
    return eig.values[:m].copy(), eig.vectors[:, :m].copy()


def top_eigenvalues(S: np.ndarray, m: int) -> np.ndarray:
    """The values of ``top_eigenpairs(S, m)``."""
    return top_eigenpairs(S, m)[0]


@functools.cache
def _lapack_cholesky_inverse() -> tuple | None:
    """``(integer type, dpotrf, dtrtri)`` from numpy's OpenBLAS; None if absent."""
    try:
        integer, (potrf, trtri) = openblas_functions("dpotrf_", "dtrtri_")
    except LookupError:
        return None
    ref = ctypes.POINTER(integer)
    potrf.argtypes = [ctypes.c_char_p, ref, ctypes.c_void_p, ref, ref]
    trtri.argtypes = [ctypes.c_char_p, ctypes.c_char_p, ref, ctypes.c_void_p, ref, ref]
    potrf.restype = trtri.restype = None
    return integer, potrf, trtri


def bulk_trace(S: np.ndarray, M: int, l_hat: float) -> float:
    """Sum of m / (l_hat - m) over the eigenvalues m of S_BB = S[M:, M:].

    Equals ``np.sum(shifted_resolvent_diag(block_decompose(Z, spikes).M_diag,
    l_hat))`` for the Z behind S, without the bulk spectrum: with
    A = l_hat I - S_BB = L L^T, the sum is l_hat tr(A^{-1}) - p =
    l_hat ||L^{-1}||_F^2 - p. A is built from the upper triangle of S_BB
    alone, which in C order is the lower triangle that LAPACK's ``dpotrf``
    and ``dtrtri`` read and overwrite, so the other triangle stays zero and
    ||L^{-1}||_F^2 is a sum over all of A. Where numpy's OpenBLAS exports
    no such routines, the sum is taken over ``eigvalsh`` of S_BB.

    Raises
    ------
    NotInvertible
        If A is not positive definite: l_hat is not above the top of S_BB.
    """
    S_BB = np.asarray(S, dtype=np.float64)[M:, M:]
    p = S_BB.shape[0]
    lapack = _lapack_cholesky_inverse()
    failed = f"l_hat = {l_hat:g} is not above the top eigenvalue of S_BB"
    if lapack is None:
        m = np.linalg.eigvalsh(S_BB, UPLO="U")
        if p and l_hat <= m[-1]:
            raise NotInvertible(failed)
        return float(np.sum(m / (l_hat - m)))
    A = np.ascontiguousarray(np.triu(S_BB))
    np.negative(A, out=A)
    A.flat[:: p + 1] += l_hat
    integer, potrf, trtri = lapack
    order, info = integer(p), integer(0)
    potrf(b"L", ctypes.byref(order), A.ctypes.data, ctypes.byref(order), ctypes.byref(info))
    if info.value == 0:
        trtri(b"L", b"N", ctypes.byref(order), A.ctypes.data, ctypes.byref(order), ctypes.byref(info))
    if info.value != 0:
        raise NotInvertible(f"{failed} (LAPACK info {info.value})")
    return float(l_hat * np.einsum("ij,ij->", A, A) - p)


def sample_covariance(X: np.ndarray) -> np.ndarray:
    """(1/n) X X^T, exactly symmetric.

    On a C-contiguous X numpy computes X @ X.T as one triangle (syrk) and
    mirrors it, so no symmetrizing pass or temporary is needed.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    S = X @ X.T
    S /= X.shape[1]
    return S


def block_decompose(Z: np.ndarray, spikes) -> BlockDecomposition:
    """Split Z into spike/bulk rows and factor the bulk via SVD.

    Builds Z_A (first M rows of Z), Z_B (the rest), and the factorization
    (1/sqrt(n)) Z_B = V diag(sqrt(M_diag)) H^T with V square orthogonal and
    H of shape n x (N-M) whose first min(N-M, n) columns are orthonormal;
    when N - M > n the trailing (N-M) - n columns of H are zero.
    """
    Z = np.asarray(Z, dtype=np.float64)
    spikes = np.atleast_1d(np.asarray(spikes, dtype=np.float64))
    M = len(spikes)
    N, n = Z.shape
    if not M < N:
        raise IndexOutOfRange(f"need M < N, got M={M}, N={N}")
    Z_A = Z[:M, :]
    Z_B = Z[M:, :]
    B = Z_B / np.sqrt(n)
    p = N - M
    try:
        if p <= n:
            V, svals, Ht = np.linalg.svd(B, full_matrices=False)
            M_diag = svals**2
            H = Ht.T
        else:
            V, svals, Ht = np.linalg.svd(B, full_matrices=True)
            M_diag = np.concatenate([svals**2, np.zeros(p - n)])
            H = np.concatenate([Ht.T, np.zeros((n, p - n))], axis=1)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSVD(str(exc)) from exc

    sqrt_l = np.sqrt(spikes)
    XA = sqrt_l[:, np.newaxis] * Z_A
    S_AA = (XA @ XA.T) / n
    S_AA = (S_AA + S_AA.T) / 2.0
    S_AB = (XA @ Z_B.T) / n
    S_BB = B @ B.T
    S_BB = (S_BB + S_BB.T) / 2.0
    T = (H.T @ Z_A.T) / np.sqrt(n)
    return BlockDecomposition(
        S_AA=S_AA, S_AB=S_AB, S_BB=S_BB, M_diag=M_diag, V=V, H=H, T=T,
        Z_A=Z_A, Lambda=spikes,
    )


def alignment(eig: EigenSystem, U: np.ndarray | None, spikes, nu: int) -> Alignment:
    """A/B split of the nu-th sample eigenvector in the U frame.

    The eigenvector is rotated to U coordinates (U^T p) when a non-identity
    basis is given, split at index M, and sign-flipped so that
    <p, u_nu> = sqrt(1 - R^2) <a, e_nu> >= 0.
    """
    spikes = np.atleast_1d(np.asarray(spikes, dtype=np.float64))
    M = len(spikes)
    if not 1 <= nu <= M:
        raise IndexOutOfRange(f"nu = {nu} outside 1..{M}")
    p = eig.vectors[:, nu - 1]
    if U is not None:
        p = U.T @ p
    p_A = p[:M].copy()
    p_B = p[M:].copy()
    norm_A = np.linalg.norm(p_A)
    if norm_A <= 1e-12:
        raise DegenerateAlignment(
            f"||p_A|| = {norm_A:.3e} at nu = {nu}: R = 1 within tolerance"
        )
    if p_A[nu - 1] < 0.0:
        p_A, p_B = -p_A, -p_B
    R = np.linalg.norm(p_B)
    a = p_A / norm_A
    inner = np.sqrt(max(1.0 - R * R, 0.0)) * a[nu - 1]
    return Alignment(
        nu=nu, l_hat=float(eig.values[nu - 1]), a=a, R=float(R),
        inner=float(inner), p_A=p_A, p_B=p_B,
    )


def shifted_resolvent_diag(M_diag: np.ndarray, l_hat: float, power: int = 1) -> np.ndarray:
    """Diagonal of M (l_hat I - M)^{-power}; requires l_hat > max(M_diag)."""
    m = np.asarray(M_diag, dtype=np.float64)
    top = float(np.max(m)) if m.size else 0.0
    if l_hat <= top:
        raise NotInvertible(f"l_hat = {l_hat:g} <= max eigenvalue of S_BB = {top:g}")
    return m / (l_hat - m) ** power


def spike_quadratic_form(bd: BlockDecomposition, l_hat: float, power: int = 1) -> np.ndarray:
    """Lambda^{1/2} T^T M (l_hat I - M)^{-power} T Lambda^{1/2} (M x M)."""
    d = shifted_resolvent_diag(bd.M_diag, l_hat, power)
    sqrt_l = np.sqrt(bd.Lambda)
    W = bd.T.T @ (d[:, np.newaxis] * bd.T)
    W = (W + W.T) / 2.0
    return sqrt_l[:, np.newaxis] * W * sqrt_l[np.newaxis, :]


def verify_master_identities(bd: BlockDecomposition, al: Alignment) -> dict:
    """Residuals of the two exact eigenpair identities.

    r4 is the 2-norm defect of a_nu as an eigenvector of
    S_AA + Lambda^{1/2} T^T M (l_hat I - M)^{-1} T Lambda^{1/2} with
    eigenvalue l_hat; r5 compares the squared resolvent quadratic form
    against R^2 / (1 - R^2). Both vanish in exact arithmetic.
    """
    K1 = bd.S_AA + spike_quadratic_form(bd, al.l_hat, power=1)
    r4 = float(np.linalg.norm(K1 @ al.a - al.l_hat * al.a))
    K2 = spike_quadratic_form(bd, al.l_hat, power=2)
    ratio = al.R**2 / (1.0 - al.R**2)
    r5 = float(abs(al.a @ K2 @ al.a - ratio))
    return {"r4": r4, "r5": r5, "l_hat": al.l_hat, "R2_over_1mR2": ratio}

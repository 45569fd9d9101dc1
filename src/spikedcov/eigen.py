"""Dense symmetric eigenstructure and the exact block decomposition.

``block_decompose`` reproduces the split of the sample covariance into the
spike block A (first M coordinates of the identity frame) and the bulk
block B from the bulk Gram alone: with S_BB = (1/n) Z_B Z_B^T = V diag(M) V^T,
it keeps S_AA, the bulk spectrum M and W = V^T S_BA, the cross block in the
bulk eigenbasis. The Schur complement S_AB (l_hat I - S_BB)^{-1} S_BA of a
sample eigenvalue l_hat is then W^T (l_hat I - M)^{-1} W, and the two master
identities tying it to a sample eigenpair are checked by
``verify_master_identities``.

Dense factorizations are LAPACK's symmetric eigensolver (``dsyevd``),
Cholesky and QR, behind the contracts below. The replication harness needs
only the top-M eigenpairs of a PSD Gram matrix and, for the trace
centering, one resolvent trace of its bulk block at one point:
``top_eigenpairs`` gets the former by certified restarted block Krylov,
from S or from its factor X; ``bulk_trace`` the latter from a Cholesky
factor of l_hat I - S_BB, without the bulk spectrum; see README.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np

from .cores import openblas_functions
from .errors import (
    ConfigInvalid,
    DegenerateAlignment,
    NoConvergence,
    NotInvertible,
    NotSymmetric,
)
from .rng import Stream

# Restarted block Krylov in top_eigenpairs: certificate, basis depth and
# Ritz vectors kept at a restart (both in blocks), and the cap on products.
_KRYLOV_TOL = 1e-12
_KRYLOV_DEPTH = 4
_KRYLOV_KEEP = 2
_KRYLOV_PRODUCTS = 64


@dataclass
class EigenSystem:
    """Eigenvalues (descending) and orthonormal eigenvectors (columns)."""

    values: np.ndarray
    vectors: np.ndarray


@dataclass
class BlockDecomposition:
    """The exact A/B split of one simulated instance (identity frame)."""

    S_AA: np.ndarray
    M_diag: np.ndarray
    W: np.ndarray
    n: int

    @property
    def M(self) -> int:
        return self.S_AA.shape[0]

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


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns in place so each vector's largest-|.| component is positive.

    The largest |.| of a column is at its argmax or its argmin; on a tie the
    smaller index wins, the first index attaining the maximum that
    np.argmax(np.abs(v)) picks, without forming |v|.
    """
    cols = np.arange(vectors.shape[1])
    hi, lo = np.argmax(vectors, axis=0), np.argmin(vectors, axis=0)
    top, bottom = np.abs(vectors[hi, cols]), np.abs(vectors[lo, cols])
    idx = np.where(top > bottom, hi, np.where(bottom > top, lo, np.minimum(hi, lo)))
    vectors *= np.where(vectors[idx, cols] < 0.0, -1.0, 1.0)
    return vectors


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
    # eigh is ascending; ties keep input order. Rows are reversed in place: a
    # reversed view would change how BLAS reads, and so rounds, products with it
    for row in vectors:
        row[:] = row[::-1]
    return EigenSystem(values=values[::-1].copy(), vectors=_fix_signs(vectors))


@functools.cache
def _start_block(N: int, k: int) -> np.ndarray:
    """The fixed-key Gaussian start block of ``top_eigenpairs``, drawn once per shape."""
    block = Stream(0, "top-eigenpairs", N, k).normals((N, k))
    block.flags.writeable = False
    return block


def top_eigenpairs(A: np.ndarray, m: int, *, factor: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Largest ``m`` eigenpairs (descending) of a PSD matrix S, certified.

    A is S, or with ``factor`` the N x n matrix X of S = X X^T / n, applied
    as (V^T X) X^T / n, so S is never formed. Restarted block Krylov (block
    Lanczos with full reorthogonalisation) on blocks of ``max(m, 4)``
    columns, from a fixed-key Gaussian start block: each new block is S
    times the newest one, made orthogonal to the basis, and Rayleigh-Ritz
    runs on the whole basis. At ``_KRYLOV_DEPTH`` blocks the basis restarts
    from its top ``_KRYLOV_KEEP`` blocks of Ritz vectors. It returns once
    every pair meets ||S v - theta v|| <= 1e-12 theta. If
    ``_KRYLOV_PRODUCTS`` products pass first, or the basis spans the space,
    the dense ``sym_eigen`` answers instead (with ``factor``, on S formed
    from X). Same ordering and sign conventions as ``sym_eigen``.
    """
    N = A.shape[0]
    b = min(max(m, 4), N)
    width = min(_KRYLOV_DEPTH * b, N)
    keep = min(_KRYLOV_KEEP * b, width - b)
    # the basis and its products by S, column-contiguous: a block is one
    # contiguous run of columns, and unused columns are never touched
    Q = np.empty((N, width), order="F")
    SQ = np.empty((N, width), order="F")
    T = np.empty((width, width))  # Q^T S Q; eigh reads its lower triangle
    Q[:, :b] = np.linalg.qr(_start_block(N, b))[0]
    lo, hi = 0, b  # the newest block is Q[:, lo:hi]
    for _ in range(_KRYLOV_PRODUCTS):
        V, SV = Q[:, lo:hi], SQ[:, lo:hi]
        if factor:
            np.matmul(V.T @ A, A.T, out=SV.T)
            SV /= A.shape[1]
        else:
            np.matmul(V.T, A, out=SV.T)  # V^T S = (S V)^T
        B = Q[:, :hi].T @ SV
        T[:hi, lo:hi] = B
        T[lo:hi, :hi] = B.T
        theta, W = np.linalg.eigh(T[:hi, :hi])
        theta, W = theta[::-1], W[:, ::-1]
        # S Q - Q T is the newest block's part outside the basis, U R, so
        # the residual of v = Q w is ||R w[lo:hi]||: check it outright only
        # once that says every pair passes
        U, R = np.linalg.qr(SV - Q[:, :hi] @ B)
        bound = _KRYLOV_TOL * theta[:m]
        if np.all(np.linalg.norm(R @ W[lo:hi, :m], axis=0) <= bound):
            vectors = Q[:, :hi] @ W[:, :m]
            residual = np.linalg.norm(SQ[:, :hi] @ W[:, :m] - vectors * theta[:m], axis=0)
            if np.all(residual <= bound):
                return theta[:m].copy(), _fix_signs(vectors)
        if hi == N or (hi + b > width and keep < m):
            break  # the basis spans the space, or a restart cannot keep m pairs
        if hi + b > width:
            Q[:, :keep] = Q[:, :hi] @ W[:, :keep]
            SQ[:, :keep] = SQ[:, :hi] @ W[:, :keep]
            T[:keep, :keep] = np.diag(theta[:keep])
            hi = keep
        # block Gram-Schmidt, second pass and QR, against the basis that
        # stays: it keeps the new block orthogonal to it where U is nearly
        # inside the old basis, or has more columns than the space left
        U -= Q[:, :hi] @ (Q[:, :hi].T @ U)
        lo, hi = hi, hi + b
        Q[:, lo:hi] = np.linalg.qr(U)[0]
    eig = sym_eigen(sample_covariance(A) if factor else A)
    return eig.values[:m].copy(), eig.vectors[:, :m].copy()


def top_eigenvalues(A: np.ndarray, m: int, *, factor: bool = False) -> np.ndarray:
    """The values of ``top_eigenpairs(A, m, factor=factor)``."""
    return top_eigenpairs(A, m, factor=factor)[0]


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
    """(1/n) X X^T, exactly symmetric; X is left unchanged.

    On a C-contiguous copy of X, ``X @ X.T`` is one syrk, which computes
    one triangle and mirrors it; a strided X would get a gemm instead,
    which need not round symmetrically.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    S = X @ X.T
    S /= X.shape[1]
    return S


def block_decompose(Z: np.ndarray, spikes) -> BlockDecomposition:
    """Split Z into spike rows Z_A and bulk rows Z_B and factor the bulk Gram.

    With X_A = Lambda^{1/2} Z_A and S_BB = (1/n) Z_B Z_B^T = V diag(M_diag) V^T
    (``sym_eigen``, so M_diag is descending and holds all N - M values), it
    keeps S_AA = (1/n) X_A X_A^T, M_diag and W = V^T (1/n) Z_B X_A^T. The
    result holds only new arrays, no view of Z.
    """
    Z = np.asarray(Z, dtype=np.float64)
    spikes = np.atleast_1d(np.asarray(spikes, dtype=np.float64))
    M = len(spikes)
    N, n = Z.shape
    if not M < N:
        raise ConfigInvalid(f"need M < N, got M={M}, N={N}")
    Z_B = Z[M:, :]
    bulk = sym_eigen(sample_covariance(Z_B))
    XA = np.sqrt(spikes)[:, np.newaxis] * Z[:M, :]
    W = bulk.vectors.T @ (Z_B @ XA.T / n)
    return BlockDecomposition(S_AA=sample_covariance(XA), M_diag=bulk.values, W=W, n=n)


def alignment(eig: EigenSystem, U: np.ndarray | None, spikes, nu: int) -> Alignment:
    """A/B split of the nu-th sample eigenvector in the U frame.

    The eigenvector is rotated to U coordinates (U^T p) when a non-identity
    basis is given and split at index M into views p_A and p_B. The sign
    rides in the divisor, a = p_A / (+-||p_A||), so that
    <p, u_nu> = sqrt(1 - R^2) <a, e_nu> >= 0 with R = ||p_B||.
    """
    spikes = np.atleast_1d(np.asarray(spikes, dtype=np.float64))
    M = len(spikes)
    if not 1 <= nu <= M:
        raise ConfigInvalid(f"nu = {nu} outside 1..{M}")
    p = eig.vectors[:, nu - 1]
    if U is not None:
        p = U.T @ p
    p_A, p_B = p[:M], p[M:]
    norm_A = np.linalg.norm(p_A)
    if norm_A <= 1e-12:
        raise DegenerateAlignment(
            f"||p_A|| = {norm_A:.3e} at nu = {nu}: R = 1 within tolerance"
        )
    R = np.linalg.norm(p_B)
    a = p_A / (-norm_A if p_A[nu - 1] < 0.0 else norm_A)
    inner = np.sqrt(max(1.0 - R * R, 0.0)) * a[nu - 1]
    return Alignment(nu=nu, l_hat=float(eig.values[nu - 1]), a=a, R=float(R), inner=float(inner))


def _shift(M_diag: np.ndarray, l_hat: float) -> np.ndarray:
    """l_hat - M_diag; requires l_hat > max(M_diag)."""
    m = np.asarray(M_diag, dtype=np.float64)
    top = float(np.max(m)) if m.size else 0.0
    if l_hat <= top:
        raise NotInvertible(f"l_hat = {l_hat:g} <= max eigenvalue of S_BB = {top:g}")
    return l_hat - m


def shifted_resolvent_diag(M_diag: np.ndarray, l_hat: float, power: int = 1) -> np.ndarray:
    """Diagonal of M (l_hat I - M)^{-power}; requires l_hat > max(M_diag)."""
    return np.asarray(M_diag, dtype=np.float64) / _shift(M_diag, l_hat) ** power


def spike_quadratic_form(bd: BlockDecomposition, l_hat: float, power: int = 1) -> np.ndarray:
    """S_AB (l_hat I - S_BB)^{-power} S_BA = W^T (l_hat I - M)^{-power} W (M x M)."""
    d = 1.0 / _shift(bd.M_diag, l_hat) ** power
    Q = bd.W.T @ (d[:, np.newaxis] * bd.W)
    return (Q + Q.T) / 2.0


def verify_master_identities(bd: BlockDecomposition, al: Alignment) -> dict:
    """Residuals of the two exact eigenpair identities.

    r4 is the 2-norm defect of a_nu as an eigenvector of
    S_AA + S_AB (l_hat I - S_BB)^{-1} S_BA with eigenvalue l_hat; r5
    compares the squared resolvent quadratic form against R^2 / (1 - R^2).
    Both vanish in exact arithmetic.
    """
    K1 = bd.S_AA + spike_quadratic_form(bd, al.l_hat, power=1)
    r4 = float(np.linalg.norm(K1 @ al.a - al.l_hat * al.a))
    K2 = spike_quadratic_form(bd, al.l_hat, power=2)
    ratio = al.R**2 / (1.0 - al.R**2)
    r5 = float(abs(al.a @ K2 @ al.a - ratio))
    return {"r4": r4, "r5": r5, "l_hat": al.l_hat, "R2_over_1mR2": ratio}

"""Dense linear-algebra kernels with an explicit tolerance policy.

Validated wrappers around LAPACK (through numpy/scipy): symmetric
eigendecomposition, real Schur form, SVD-based rank/nullspace, and
minimum-norm least squares.  Every other module funnels its numerical
decisions through the thresholds collected in :class:`Tolerances`, so a
single object controls what counts as "zero" throughout a computation.

Characteristic polynomials are computed from Schur/eigenvalue data (stable
for the certification pipelines), with a Faddeev-LeVerrier recursion kept
alongside as an independent route that also yields the adjugate
coefficients needed for entry-wise derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InputError, StrongPropsError

#: Relative asymmetry above which a "symmetric" input is rejected.
SYMMETRY_RTOL = 1e-10


@dataclass(frozen=True)
class Tolerances:
    """Numerical policy shared by all modules.

    rank_tol
        Relative singular-value threshold: sigma <= rank_tol * sigma_max
        counts as zero.  1e-8 separates genuine nullspace from roundoff
        for dense problems up to n ~ 50.
    cluster_tol
        Relative eigenvalue-gap threshold used to merge eigenvalues into
        multiplicity clusters.
    newton_tol
        Residual Frobenius norm at which a Gauss-Newton solve is converged.
    max_iter
        Gauss-Newton iteration cap.
    """

    rank_tol: float = 1e-8
    cluster_tol: float = 1e-6
    newton_tol: float = 1e-11
    max_iter: int = 50

    def __post_init__(self):
        for name in ("rank_tol", "cluster_tol", "newton_tol"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise InputError(f"{name} must be finite and strictly positive")
        if self.max_iter < 1:
            raise InputError("max_iter must be at least 1")

    def as_dict(self) -> dict:
        return {
            "rank_tol": self.rank_tol,
            "cluster_tol": self.cluster_tol,
            "newton_tol": self.newton_tol,
            "max_iter": self.max_iter,
        }


DEFAULT_TOL = Tolerances()


def as_matrix(obj, name: str = "matrix") -> np.ndarray:
    """Coerce ``obj`` to a 2-D float array with finite entries."""
    a = np.asarray(obj, dtype=float)
    if a.ndim != 2:
        raise InputError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InputError(f"{name} contains NaN or Inf entries")
    return a


def require_square(a: np.ndarray, name: str = "matrix") -> int:
    if a.shape[0] != a.shape[1]:
        raise InputError(f"{name} must be square, got shape {a.shape}")
    return a.shape[0]


def fro(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def symmetrize(a, name: str = "matrix") -> np.ndarray:
    """Return (A + A^T)/2, rejecting input whose asymmetry exceeds
    ``SYMMETRY_RTOL * ||A||_F``."""
    a = as_matrix(a, name)
    require_square(a, name)
    scale = fro(a)
    if fro(a - a.T) > SYMMETRY_RTOL * max(scale, 1e-300):
        raise InputError(f"{name} is not symmetric within tolerance")
    return (a + a.T) / 2.0


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Ascending eigenvalues and the orthogonal eigenvector matrix Q with
    A = Q diag(eigenvalues) Q^T."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        q = self.eigenvectors
        return q @ np.diag(self.eigenvalues) @ q.T


def sym_eig(a, tol: Tolerances = DEFAULT_TOL) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix (symmetrized first)."""
    s = symmetrize(a)
    w, q = np.linalg.eigh(s)
    return EigenDecomposition(eigenvalues=w, eigenvectors=q)


@dataclass(frozen=True, eq=False)
class RealSchurForm:
    """A = Q T Q^T with Q orthogonal and T quasi-upper-triangular
    (1x1 blocks for real eigenvalues, standardized 2x2 blocks for
    complex-conjugate pairs)."""

    orthogonal: np.ndarray
    quasi_triangular: np.ndarray

    def reconstruct(self) -> np.ndarray:
        q = self.orthogonal
        return q @ self.quasi_triangular @ q.T

    def diagonal_blocks(self) -> list[tuple[int, int]]:
        """(start index, size) of each diagonal block, in order."""
        t = self.quasi_triangular
        n = t.shape[0]
        blocks = []
        i = 0
        while i < n:
            if i + 1 < n and t[i + 1, i] != 0.0:
                blocks.append((i, 2))
                i += 2
            else:
                blocks.append((i, 1))
                i += 1
        return blocks

    def block_mean_disc(self, start: int) -> tuple[float, float]:
        """Mean and discriminant of the 2x2 diagonal block at ``start``: its
        eigenvalues are mean +- sqrt(disc)."""
        t = self.quasi_triangular
        a11, a12 = t[start, start], t[start, start + 1]
        a21, a22 = t[start + 1, start], t[start + 1, start + 1]
        mean = (a11 + a22) / 2.0
        disc = ((a11 - a22) / 2.0) ** 2 + a12 * a21
        return mean, disc

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues read off the diagonal blocks (complex array)."""
        t = self.quasi_triangular
        out = []
        for start, size in self.diagonal_blocks():
            if size == 1:
                out.append(complex(t[start, start]))
            else:
                mean, disc = self.block_mean_disc(start)
                if disc < 0.0:
                    b = np.sqrt(-disc)
                    out.extend([complex(mean, b), complex(mean, -b)])
                else:
                    s = np.sqrt(disc)
                    out.extend([complex(mean + s), complex(mean - s)])
        return np.asarray(out, dtype=complex)


def real_schur(a) -> RealSchurForm:
    """Real Schur form of a square matrix.

    Raises a package error (never returns garbage) if the QR iteration
    fails to converge.
    """
    a = as_matrix(a)
    require_square(a)
    try:
        t, q = scipy.linalg.schur(a, output="real")
    except (scipy.linalg.LinAlgError, ValueError) as exc:  # pragma: no cover
        raise StrongPropsError(f"real Schur iteration failed: {exc}") from exc
    return RealSchurForm(orthogonal=q, quasi_triangular=t)


def rank(a, tol: Tolerances = DEFAULT_TOL) -> int:
    """Numerical rank: count of singular values above rank_tol * sigma_max."""
    a = as_matrix(a)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    smax = s[0] if len(s) else 0.0
    if smax == 0.0:
        return 0
    return int(np.sum(s > tol.rank_tol * smax))


def svd_nullspace(a, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and an orthonormal basis (columns) of the numerical
    nullspace, from one SVD.

    The SVD is thin unless ``a`` has fewer rows than columns, when the full
    V is needed for the directions no row reaches.  The all-zero matrix has
    nullspace dimension equal to its column count.
    """
    a = as_matrix(a)
    m, n = a.shape
    if n == 0:
        return np.zeros(0), np.zeros((0, 0))
    if m == 0:
        return np.zeros(0), np.eye(n)
    _, s, vt = np.linalg.svd(a, full_matrices=m < n)
    if s[0] == 0.0:
        return s, np.eye(n)
    s_full = np.concatenate([s, np.zeros(n - len(s))])
    return s, vt[s_full <= tol.rank_tol * s[0]].T


def nullspace(a, tol: Tolerances = DEFAULT_TOL) -> tuple[int, np.ndarray]:
    """Dimension and orthonormal basis (columns) of the numerical nullspace.

    The all-zero matrix has nullspace dimension equal to its column count.
    """
    _, basis = svd_nullspace(a, tol)
    return basis.shape[1], basis


def lstsq_min_norm(a, b, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Minimum-norm least-squares solution of A x ~ b (pseudo-inverse)."""
    a = as_matrix(a, "coefficient matrix")
    b = np.asarray(b, dtype=float).reshape(-1)
    if b.shape[0] != a.shape[0]:
        raise InputError(
            f"incompatible shapes for least squares: {a.shape} vs {b.shape}"
        )
    if not np.all(np.isfinite(b)):
        raise InputError("right-hand side contains NaN or Inf entries")
    x, *_ = np.linalg.lstsq(a, b, rcond=tol.rank_tol)
    return x


def _poly_from_real_blocks(blocks) -> np.ndarray:
    """Monic real polynomial with the given roots.

    ``blocks`` yields ("r", lam) for a real root and ("c", a, b) for a
    conjugate pair a +- b*i.  Coefficients returned in ascending order,
    last entry 1.
    """
    coeffs = np.array([1.0])  # descending while building
    for block in blocks:
        if block[0] == "r":
            factor = np.array([1.0, -block[1]])
        else:
            a, b = block[1], block[2]
            factor = np.array([1.0, -2.0 * a, a * a + b * b])
        coeffs = np.convolve(coeffs, factor)
    return coeffs[::-1].copy()


def poly_from_spectrum(reals, pairs) -> np.ndarray:
    """Monic polynomial (ascending coefficients) whose roots are the given
    reals plus the conjugate pairs (a, b) -> a +- b*i."""
    blocks = [("r", float(r)) for r in reals]
    blocks += [("c", float(a), float(b)) for a, b in pairs]
    return _poly_from_real_blocks(blocks)


def char_poly(a) -> np.ndarray:
    """Coefficients of det(xI - A), ascending order, leading 1.

    Computed from the real Schur diagonal blocks (never by determinant
    expansion), so coefficients are exactly real.
    """
    schur = real_schur(a)
    t = schur.quasi_triangular
    blocks = []
    for start, size in schur.diagonal_blocks():
        if size == 1:
            blocks.append(("r", t[start, start]))
        else:
            mean, disc = schur.block_mean_disc(start)
            if disc < 0.0:
                blocks.append(("c", mean, np.sqrt(-disc)))
            else:
                s = np.sqrt(disc)
                blocks.extend([("r", mean + s), ("r", mean - s)])
    return _poly_from_real_blocks(blocks)


def char_poly_faddeev(a) -> tuple[np.ndarray, list[np.ndarray]]:
    """Faddeev-LeVerrier characteristic polynomial plus adjugate data.

    Returns (coeffs ascending with leading 1, [B_0, ..., B_{n-1}]) where
    adj(xI - A) = sum_k B_k x^{n-1-k}.  Exact up to roundoff in the matrix
    products, which makes it a useful independent oracle and the basis of
    the entry-wise coefficient derivatives used by the nilpotent-Jacobian
    diagnostic.
    """
    a = as_matrix(a)
    n = require_square(a)
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    b = np.eye(n)
    bs = [b]
    for k in range(1, n + 1):
        c = a @ b
        coeffs[n - k] = -np.trace(c) / k
        b = c + coeffs[n - k] * np.eye(n)
        if k < n:
            bs.append(b)
    return coeffs, bs

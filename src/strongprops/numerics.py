"""Dense linear-algebra kernels with an explicit tolerance policy.

Validated wrappers around LAPACK (through numpy/scipy): symmetric
eigendecomposition, real Schur form, SVD-based rank/nullspace, and
minimum-norm least squares (a QR of A^T for well-conditioned wide systems,
otherwise xGELSY's complete orthogonal factorization built on QR with
column pivoting).  Every other module funnels its numerical decisions
through the thresholds collected in :class:`Tolerances`, so a single
object controls what counts as "zero" throughout a computation:
``rank_tol`` is both the singular-value cutoff of the rank decisions and
the condition cutoff of the least-squares step.

Characteristic polynomials are computed from Schur/eigenvalue data (stable
for the certification pipelines), with a Faddeev-LeVerrier recursion kept
alongside as an independent route that also yields the adjugate
coefficients needed for entry-wise derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InputError, InternalCheckError, StrongPropsError

#: Relative asymmetry above which a "symmetric" input is rejected.
SYMMETRY_RTOL = 1e-10


@dataclass(frozen=True)
class Tolerances:
    """Numerical policy shared by all modules.

    rank_tol
        Relative singular-value threshold: sigma <= rank_tol * sigma_max
        counts as zero.  1e-8 separates genuine nullspace from roundoff
        for dense problems up to n ~ 50.  It is also the cutoff of
        :func:`lstsq_min_norm`, which estimates condition numbers instead
        of computing singular values: a wide system is solved from the QR
        of its transpose when the triangular factor's reciprocal condition
        estimate exceeds rank_tol, and otherwise xGELSY cuts its pivoted
        triangular factor where that estimate would fall below rank_tol.
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

    def roots(self):
        """The eigenvalues read off the diagonal blocks, in order: ("r", lam)
        for each real one and ("c", a, b) for each conjugate pair a +- b*i."""
        t = self.quasi_triangular
        for start, size in self.diagonal_blocks():
            if size == 1:
                yield "r", t[start, start]
                continue
            mean, disc = self.block_mean_disc(start)
            if disc < 0.0:
                yield "c", mean, np.sqrt(-disc)
            else:
                s = np.sqrt(disc)
                yield from (("r", mean + s), ("r", mean - s))

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues read off the diagonal blocks (complex array)."""
        out = []
        for kind, a, *b in self.roots():
            out.extend([complex(a, b[0]), complex(a, -b[0])] if kind == "c" else [complex(a)])
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


def _direct_sum_spectra(a: np.ndarray, blocks):
    """Values-only singular values of the blocks of ``a``, batched by shape.

    ``blocks`` = (row labels, column labels) makes ``a`` a permuted direct
    sum: one block per column label, with the rows of that label (maybe
    none).  Returns, per block shape m x n, the blocks (k x m x n), their
    column indices (k x n) and singular values.  A nonzero outside the
    blocks raises :class:`InternalCheckError`, so an assembly error shows
    instead of being split away."""
    row_labels, col_labels = blocks
    if np.any(a[row_labels[:, None] != col_labels[None, :]]):
        raise InternalCheckError("a nonzero entry lies outside the direct-sum blocks")
    row_order = np.argsort(row_labels, kind="stable")
    col_order = np.argsort(col_labels, kind="stable")
    labels, col_start, widths = np.unique(
        col_labels[col_order], return_index=True, return_counts=True
    )
    row_start = np.searchsorted(row_labels[row_order], labels)
    heights = np.searchsorted(row_labels[row_order], labels, side="right") - row_start
    groups = []
    for height, width in sorted(set(zip(heights.tolist(), widths.tolist()))):
        pick = (heights == height) & (widths == width)
        rows = row_order[row_start[pick][:, None] + np.arange(height)]
        cols = col_order[col_start[pick][:, None] + np.arange(width)]
        stack = a[rows[:, :, None], cols[:, None, :]]
        groups.append((stack, cols, np.linalg.svd(stack, compute_uv=False)))
    return groups


def rank(a, tol: Tolerances = DEFAULT_TOL, blocks=None, values: bool = False):
    """Numerical rank: count of singular values above rank_tol * sigma_max,
    block by block when ``blocks`` makes ``a`` a permuted direct sum (see
    :func:`_direct_sum_spectra`), against the threshold of the whole matrix.

    With ``values``, returns (rank, singular values in descending order):
    the blocks' together when split, which omits the zeros that wide or
    empty blocks add to the whole matrix's."""
    a = as_matrix(a)
    if a.size == 0:
        return (0, np.zeros(0)) if values else 0
    spectra = [np.linalg.svd(a, compute_uv=False)] if blocks is None else [
        s for _, _, s in _direct_sum_spectra(a, blocks)]
    thr = tol.rank_tol * max(float(s.max(initial=0.0)) for s in spectra)
    r = sum(int(np.count_nonzero(s > thr)) for s in spectra)
    if not values:
        return r
    return r, spectra[0] if blocks is None else -np.sort(-np.concatenate(
        [s.reshape(-1) for s in spectra]))


def svd_nullspace(a, tol: Tolerances = DEFAULT_TOL, blocks=None) -> tuple[int, np.ndarray]:
    """Nullspace dimension and orthonormal null vectors (columns) of ``a``,
    its rank decided as by :func:`rank` from values-only SVDs.  Only the
    first block with a null direction gets singular vectors (the full V
    when it is wide); its null vectors are returned, embedded."""
    a = as_matrix(a)
    m, n = a.shape
    if n == 0:
        return 0, np.zeros((0, 0))
    if blocks is None:
        s = np.linalg.svd(a, compute_uv=False)
        r = int(np.count_nonzero(s > tol.rank_tol * s[0])) if m else 0
        basis = np.linalg.svd(a, full_matrices=m < n)[2][r:].T if r < n else np.zeros((n, 0))
        return n - r, basis
    groups = _direct_sum_spectra(a, blocks)
    thr = tol.rank_tol * max(float(s.max(initial=0.0)) for _, _, s in groups)
    null_dim, basis = 0, np.zeros((n, 0))
    for stack, cols, s in groups:
        _, height, width = stack.shape
        ranks = (s > thr).sum(axis=1)
        null_dim += cols.size - int(ranks.sum())
        if null_dim and not basis.size:
            k = int(np.argmax(ranks < width))
            vt = np.linalg.svd(stack[k], full_matrices=height < width)[2]
            basis = np.zeros((n, width - ranks[k]))
            basis[cols[k]] = vt[ranks[k]:].T
    return null_dim, basis


def nullspace(a, tol: Tolerances = DEFAULT_TOL) -> tuple[int, np.ndarray]:
    """Dimension and orthonormal basis (columns) of the numerical nullspace.

    The all-zero matrix has nullspace dimension equal to its column count.
    """
    return svd_nullspace(a, tol)


_GEQRF, _TRCON, _TRTRS, _ORMQR = scipy.linalg.lapack.get_lapack_funcs(
    ("geqrf", "trcon", "trtrs", "ormqr"), dtype=np.float64
)
#: Workspace of xGEQRF per column of A^T: room for blocks of up to 64
#: reflectors.  The wrapper's default (3 per column) forces unblocked
#: Householder steps, 4x slower at 1,081 x 1,128; below LAPACK's
#: crossover (128 columns by default) both give the same bits.
_GEQRF_BLOCK = 64


def lstsq_min_norm(a, b, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Minimum-norm least-squares solution of A x ~ b (pseudo-inverse).

    A wide A (0 < rows <= columns) of full row rank, as a chart's step
    matrix is where its base has the strong property, is solved from an
    unpivoted Householder QR of its transpose, A^T = Q R (xGEQRF): x = Q y
    with R^T y = b (xTRTRS, then xORMQR) is A^T (A A^T)^-1 b, the
    minimum-norm solution (Golub and Van Loan, Matrix Computations, 4th
    ed., sec. 5.6).  That route is taken only when xTRCON's estimate of
    R's reciprocal condition (1-norm) exceeds rank_tol.  Every other
    system, tall, rank-deficient or worse conditioned, takes one xGELSY
    call: QR with column pivoting, truncated at the leading triangular
    block whose estimated condition stays below 1 / rank_tol, then a
    complete orthogonal factorization of that block (sec. 5.5).  Both
    agree with the SVD solution whenever the cutoff separates the singular
    values as clearly as it does for the Gauss-Newton steps.
    """
    a = as_matrix(a, "coefficient matrix")
    b = np.asarray(b, dtype=float).reshape(-1)
    if b.shape[0] != a.shape[0]:
        raise InputError(
            f"incompatible shapes for least squares: {a.shape} vs {b.shape}"
        )
    if not np.all(np.isfinite(b)):
        raise InputError("right-hand side contains NaN or Inf entries")
    rows, cols = a.shape
    if 0 < rows <= cols:
        qr, tau, _, _ = _GEQRF(a.T, lwork=_GEQRF_BLOCK * rows)
        rcond, _ = _TRCON(qr[:rows])
        if rcond > tol.rank_tol:
            # y in the first rows of a zero-padded column, then x = Q [y; 0]
            y = np.zeros((cols, 1))
            y[:rows, 0] = b
            y, _ = _TRTRS(qr, y, trans=1, overwrite_b=1)
            x, _, _ = _ORMQR("L", "N", qr, tau, y, 1, overwrite_c=1)
            return x[:, 0]
    x, *_ = scipy.linalg.lstsq(
        a, b, cond=tol.rank_tol, lapack_driver="gelsy", check_finite=False
    )
    return x


def _poly_from_real_blocks(blocks) -> np.ndarray:
    """Monic real polynomial with the given roots.

    ``blocks`` yields ("r", lam) for a real root and ("c", a, b) for a
    conjugate pair a +- b*i, as :meth:`RealSchurForm.roots` does.
    Coefficients returned in ascending order, last entry 1.
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
    return _poly_from_real_blocks(real_schur(a).roots())


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

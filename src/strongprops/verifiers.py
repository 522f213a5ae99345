"""Verifiers for the strong properties SSP, SMP, SAP, and nSSP.

Each property asserts that X = O is the only matrix in a
pattern-constrained subspace satisfying certain linear equations in a
base matrix A.  Every verifier runs two independent routes and demands
agreement:

primal
    The equations solved in coordinates of the small space the unknown X
    already lies in; the property holds iff the solution space is trivial,
    and any solution is a concrete witness of failure.
dual
    The property holds iff a sum of explicit subspaces spans the whole
    ambient space (closed pattern class plus a commutator/congruence
    range, plus the span of matrix powers for the SMP); check by rank.

The primal's small spaces, with W the input scaled to unit Frobenius norm
and cut = rank_tol * sigma_max of the Kronecker primal, the dual's
threshold (the dual is factored first):

commutant (SSP, SMP)
    A symmetric X commutes with W = Q diag(lambda) Q^T iff
    X = sum_k Q_k Y_k Q_k^T over the eigenvalue clusters, each Y_k
    symmetric.  The system reads X on the diagonal and the edges (n + |E|
    rows) over the orthonormal coordinates of the Y_k.  Consecutive
    eigenvalues cluster when their gap is at most cut: a coupling across a
    gap g on the non-edges has the Kronecker singular value g.  The SMP
    trace conditions tr(W^k X) = 0 read lambda_p^k on the diagonal
    coordinates Y_pp.
kernel (SAP)
    WX = O for symmetric X iff X = N Y N^T with N an eigenbasis of ker W
    (|lambda| <= cut): the Colin de Verdiere form (Barrett et al., EJC 24
    (2017) P2.40).
centralizer (nSSP)
    [W, X^T] = O.  For nonderogatory W, X^T is a polynomial in W, so the
    system reads X on the nonzero cells over an Arnoldi basis of
    span{I, W, ..., W^(n-1)} (the nilpotent-centralizer method of Garnett
    and Shader, LAA 438 (2013)).  A breakdown at cut means W is
    derogatory; then, and for systems under CENTRALIZER_MIN_WORK, the
    Kronecker primal decides.

These primals decide when their nullity is the dual's.  Near the cut they
can read the equations differently: clusters chain gaps that are each at
most cut, and a near-kernel or near-derogatory W has couplings that the
Kronecker primal counts as null and the small space leaves out.  Then the
Kronecker primal, which has the dual's singular values, decides.

The dual is read from a Kronecker matrix.  In row-major vec,
vec(WX - XW) = C vec(X) with C = W (x) I - I (x) W^T and vec(WX) = D vec(X)
with D = W (x) I, so the image of the matrix unit E_ij is column i*n + j.
The constrained subspaces are spanned by matrix units on the zero cells
(nSSP) or by pairs E_ij + E_ji on the non-edges (SSP, SMP, SAP), and the
symmetric commutator ranges by skew pairs E_ij - E_ji.  Two exact
identities shrink the dual or split it:

coordinate elimination
    The closed graph class (diagonal and edges) and the sign tangent space
    (nonzero cells) are coordinate subspaces S, and dim(S + span R) =
    dim S + rank(R restricted to the coordinates outside S).  The dual
    keeps only the non-edge (zero-cell) rows of its range.
direct-sum splitting
    C and D join cell (a, b) to cell (i, j) only when a, i and b, j lie in
    common components of W's support, so the dual is a permuted direct
    sum, one block per component pair, with the union of the blocks'
    singular values: the linear algebra of the disjoint-union results for
    SSP, SMP and SAP (Barrett et al., EJC 24 (2017) P2.40).  Blocks are
    factored one by one against the threshold of the whole system, each
    stack of same-shape blocks read from the system's own formula (the
    dual scattered from its entries, a Kronecker primal evaluated
    elementwise): no whole matrix of a split system is built.

The eliminated dual block is the transpose of the Kronecker form of the
primal (the same equations over the orthonormal cell coordinates), up to
sign and a row permutation, and twice it for the SAP - the duality
itself.  Its m-th singular value, m its row count, is therefore the
primal's smallest one and is reported as the margin.

Like the primal, the dual has routes, tried in order:

Gram
    Whole duals whose rows * cols * min(rows, cols) reaches GRAM_MIN_WORK:
    a Cholesky of the m x m matrix G = D D^T, assembled sparse from W's
    nonzeros, and Lanczos for sigma_m^2 on G^-1 and sigma_max^2 on G.  G
    squares the condition number, so this route decides only "full row
    rank", and only when sigma_m >= GRAM_GATE * sigma_max, far above the
    cut; otherwise it gives no decision, on a failing dual mostly before
    any Lanczos run.
dense
    A values-only SVD of the dense dual, whole or split; it always decides.

When the primal disagrees with the Gram route, the dense dual decides.
Both routes factor the entries of one assembler, :func:`_kronecker_entries`,
and the Kronecker primals are broadcast apart from it, so an assembly error
in the dual or the Kronecker primal surfaces as a primal/dual mismatch or,
in a split system, as a nonzero outside its blocks (an entry of the dual,
or a Kronecker primal's formula where a row and a column cell share an
index, the only places its indicator factors can be 1), raising
:class:`InternalCheckError`, whose message names the primal route that
decided and each dual route it disagreed with; one in a small-space
primal that moves its nullity hands the decision to the Kronecker primal,
and the oracle tests check which routes decided.  A failing verification
factors the primal that decides once, with singular vectors.

Inputs are normalized to unit Frobenius norm internally (all four
properties are invariant under nonzero scaling), so verdicts do not
depend on the scale of A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dtrsv

from .errors import InputError, InternalCheckError, NotInClass
from .numerics import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    fro,
    rank,
    require_square,
    svd_nullspace,
    sym_eig,
    symmetrize,
)
from .patterns import (
    Graph,
    SignPattern,
    _upper_mask,
    cluster_eigenvalues,
    matrix_in_graph_class,
    matrix_in_sign_class,
)

SQRT2 = np.sqrt(2.0)

#: rows * cols * min(rows, cols) of a primal below which its systems stay whole:
#: the measured crossover, under which the per-block overhead outweighs the saving.
SPLIT_MIN_WORK = 10**6

#: rows * cols * min(rows, cols) of the Kronecker nSSP primal below which it is
#: factored as is, without first trying the polynomial basis: the measured
#: crossover, under which the Arnoldi steps cost more than the SVD they save.
CENTRALIZER_MIN_WORK = 3 * 10**4

#: rows * cols * min(rows, cols) of a whole dual from which the Gram route is
#: tried before the dense SVD: the measured crossover, under which the
#: Cholesky and the two Lanczos runs cost more than the SVD they save.
GRAM_MIN_WORK = 10**7

#: sigma_m / sigma_max from which the Gram route decides that the dual has
#: full row rank.  D D^T resolves sigma only down to about sqrt(m eps) *
#: sigma_max (under 1e-6 for m up to 4,500 rows); the rank cut is rank_tol.
GRAM_GATE = 1e-6


@dataclass(frozen=True, eq=False)
class StrongPropertyReport:
    """Outcome of one strong-property verification.

    ``holds`` iff the primal nullspace is trivial; ``dual_verdict`` is the
    independent subspace-span result and always agrees.  When the property
    fails, ``witness`` is a unit-Frobenius-norm nonzero solution of the
    defining equations and ``witness_residual`` the norm of its equation
    images (relative to ||A||_F).  ``smallest_structural_singular_value``
    is the smallest singular value of the defining equations over the
    orthonormal cell coordinates of the constrained subspace, i.e. the
    margin by which the verdict clears the rank tolerance, read from the
    dual route that decided (inf when the constrained subspace is trivial):
    the dense SVD's value, or the Gram route's ||D^T u||, which agrees with
    it to about eps * sigma_max / sigma_m relative.
    """

    property_name: str
    holds: bool
    nullspace_dim: int
    smallest_structural_singular_value: float
    dual_span_dim: int
    ambient_dim: int
    dual_verdict: bool
    witness: np.ndarray | None = None
    witness_residual: float | None = None
    q_used: int | None = None
    q_alternatives: tuple[tuple[int, bool], ...] = field(default=())

    def as_dict(self) -> dict:
        return {
            "property": self.property_name,
            "holds": self.holds,
            "nullspace_dim": self.nullspace_dim,
            "smallest_structural_singular_value": (
                None
                if np.isinf(self.smallest_structural_singular_value)
                else self.smallest_structural_singular_value
            ),
            "dual_span_dim": self.dual_span_dim,
            "ambient_dim": self.ambient_dim,
            "dual_verdict": self.dual_verdict,
            "witness": None if self.witness is None else self.witness.tolist(),
            "witness_residual": self.witness_residual,
            "q_used": self.q_used,
            "q_alternatives": [list(alt) for alt in self.q_alternatives],
        }


# Cells are (row indices, column indices) pairs, as numpy indexes them;
# reversing a pair transposes its cells.


def _left_block(w, rows, cols) -> np.ndarray:
    """Rows (a, b), columns (i, j) of D = W (x) I: D[ab, ij] = W[a, i] [b = j].
    Cells of 1-D arrays give the whole rows x cols matrix, W[a, i] gathered
    by whole rows of W[:, i] (copies, not an elementwise index); cells of
    index arrays that broadcast (the stacked blocks of a split system, see
    :func:`_kronecker_primal`) give the entries elementwise.  Either way
    each entry is the one product W[a, i] * [b = j], so the zeros keep the
    signs of W[a, i] * 0, which the Householder steps of the SVD that gives
    a witness read.  It serves the Kronecker primals, apart from the dual
    (:func:`_kronecker_entries`)."""
    if rows[0].ndim == 1:
        return w[:, cols[0]][rows[0]] * (rows[1][:, None] == cols[1])
    return w[rows[0], cols[0]] * (rows[1] == cols[1])


def _commutator_block(w, rows, cols) -> np.ndarray:
    """Rows (a, b), columns (i, j) of C = W (x) I - I (x) W^T:
    C[ab, ij] = W[a, i] [b = j] - [a = i] W[j, b], whole or elementwise as
    :func:`_left_block`.  On the cell (a, b) itself the entry is the one
    subtraction W[a, a] - W[b, b]."""
    if rows[0].ndim == 1:
        return _left_block(w, rows, cols) - (rows[0][:, None] == cols[0]) * w[cols[1]].T[rows[1]]
    return _left_block(w, rows, cols) - (rows[0] == cols[0]) * w[cols[1], rows[1]]


def _kronecker_entries(w, rows, prop: str):
    """(row, column, value) entries of the eliminated dual of ``prop`` at W on
    the cells ``rows``, read from the nonzeros of W; repeats add up.  Row
    (a, b) holds W[a, i] at column (i, b), from D = W (x) I, and then
    -W[j, b] at (a, j), from C = W (x) I - I (x) W^T, or for the SAP
    W[b, i] at (i, a), from D's symmetric row (b, a): the dual over sqrt 2,
    which is sqrt 2 times the transpose of the Kronecker primal.
    The SSP and SMP fold column (i, j) onto the skew pair E_ij - E_ji, i < j
    in row-major order, with sign +1 above the diagonal and -1 below it,
    and drop the columns (i, i) of no pair, which hold W[a, b]: nonzero on a
    chart's residual cells and on a non-edge entry the class check accepts."""
    n = w.shape[0]
    k, i = np.nonzero(w[rows[0]])
    entries = [(k, i * n + rows[1][k], w[rows[0][k], i])]
    if prop == "sap":
        k, i = np.nonzero(w[rows[1]])
        entries.append((k, i * n + rows[0][k], w[rows[1][k], i]))
    else:
        k, j = np.nonzero(w[:, rows[1]].T)
        entries.append((k, rows[0][k] * n + j, -w[j, rows[1][k]]))
    k, col, value = (np.concatenate(part) for part in zip(*entries))
    if prop not in ("ssp", "smp"):
        return k, col, value
    i, j = np.divmod(col, n)
    lo, hi, paired = np.minimum(i, j), np.maximum(i, j), i != j
    pair = lo * (2 * n - lo - 1) // 2 + hi - lo - 1
    return k[paired], pair[paired], np.where(i < j, value, -value)[paired]


def _dense(entries, shape) -> np.ndarray:
    """Dense matrix of (row, column, value) ``entries``, repeats summed by a
    scatter-add, so its zeros are +0.0 (bincount counts no entries in ints)."""
    k, col, value = entries
    flat = np.bincount(k * shape[1] + col, value, shape[0] * shape[1])
    return flat.astype(float, copy=False).reshape(shape)


def _sparse(entries, shape):
    """CSR matrix of (row, column, value) ``entries``, repeats summed."""
    import scipy.sparse  # imported here, as in _gram_dual

    k, col, value = entries
    return scipy.sparse.csr_matrix((value, (k, col)), shape=shape)


def _primal_nullspace(system, tol: Tolerances, blocks=None, null: bool = False):
    """(nullspace dim, null vectors) of a primal system; ``null`` when the
    dual has found a null direction, so a whole system is factored once."""
    return svd_nullspace(system, tol, blocks, null=True) if null else svd_nullspace(system, tol, blocks)


def _witness_from(n: int, cells, coeffs: np.ndarray, symmetric: bool) -> np.ndarray:
    """Unit-norm matrix carrying ``coeffs`` on ``cells`` (mirrored across the
    diagonal when ``symmetric``) and exact zeros elsewhere."""
    w = np.zeros((n, n))
    w[cells] = coeffs
    if symmetric:
        w = w + w.T
    return w / fro(w)


def _transposed(blocks):
    """Direct-sum labels of a system's transpose."""
    return None if blocks is None else blocks[::-1]


#: The primal route over the small space X lies in, by property.
_SMALL_PRIMAL = {"ssp": "commutant", "smp": "commutant", "sap": "kernel", "nssp": "centralizer"}


def _split_dual(entries, shape, blocks, trailing):
    """The dual of ``entries`` and ``trailing`` columns split by ``blocks``,
    as :func:`numerics.rank` takes it: a callable that scatters the entries
    of each stack of blocks straight into it (by :func:`_dense`, in entry
    order, so each sum has the whole dual's bits) and copies the trailing
    columns in.  A nonzero entry or trailing value outside the blocks
    raises :class:`InternalCheckError`."""
    (k, col, value), (row_labels, col_labels) = entries, blocks
    if np.any(value[row_labels[k] != col_labels[col]]) or trailing is not None and np.any(
            trailing[row_labels[:, None] != col_labels[shape[1]:]]):
        raise InternalCheckError("a nonzero entry lies outside the direct-sum blocks")

    def stack(rows, cols):
        # each row of the stack at block * height + row, each column at its place
        slot, place, width = np.full(shape[0], -1), np.zeros(len(col_labels), int), cols.shape[1]
        slot[rows], place[cols] = np.arange(rows.size).reshape(rows.shape), np.arange(width)
        keep = slot[k] >= 0
        out = _dense((slot[k[keep]], place[col[keep]], value[keep]), (rows.size, width))
        out, extra = out.reshape(*rows.shape, width), (cols - shape[1])[:, None, :]
        if trailing is None:
            return out
        return np.where(extra >= 0, trailing[rows[:, :, None], np.maximum(extra, 0)], out)

    return stack


def _dense_dual(entries, shape, blocks, tol: Tolerances, scale: float, trailing):
    """The dual route that always decides: a values-only SVD of the dual,
    its ``entries`` and then ``trailing`` columns, dense (:func:`_dense`),
    or block by block when ``blocks`` splits it (:func:`_split_dual`).
    Gives (rank, sigma_max, sigma_m) in the units of the Kronecker primal,
    sigma_m the m-th singular value (0 when the dual has fewer).  The dual
    lives only in this call, so no primal is factored while it is held."""
    dual = _dense(entries, shape) if blocks is None else _split_dual(entries, shape, blocks, trailing)
    if blocks is None and trailing is not None:
        dual = np.hstack([dual, trailing])
    dual_rank, values = rank(dual, tol, blocks, values=True)
    values = values / scale
    m = shape[0]
    margin = float(values[m - 1]) if 0 < m <= values.size else 0.0
    return dual_rank, float(values.max(initial=0.0)), margin


def _gram_dual(sparse, trailing, scale: float):
    """The dual route that decides only "full row rank", from a Cholesky of
    the m x m Gram matrix G = D D^T of the dual D = [S T], S ``sparse`` and
    T its dense ``trailing`` columns (the SMP's trace columns, or None), so
    G is one sparse product plus T T^T.  sigma_m^2 is read by Lanczos on
    G^-1 through the factor, then sigma_max^2 by Lanczos on G, both from a
    fixed-seed start vector.  It gives (m, sigma_max, sigma_m) in the units
    of the Kronecker primal when the Cholesky succeeds, both runs converge
    and sigma_m >= GRAM_GATE * sigma_max, else None; bounds from the
    diagonals of G and of the factor give None earlier, before the first
    run on a failing dual and before the second on most duals the gate
    rejects.  The margin is ||D^T u|| for the unit Lanczos vector u of
    sigma_m, which reads sigma_m from D and not from G, so it keeps the
    dense SVD's relative accuracy of about eps * sigma_max / sigma_m."""
    # imported here: the module costs time and memory that only large
    # verifications repay
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    gram = (sparse @ sparse.T).toarray()
    if trailing is not None:
        gram += trailing @ trailing.T
    try:
        upper = scipy.linalg.cholesky(gram, check_finite=False)  # G = U^T U
    except np.linalg.LinAlgError:  # G is not numerically positive definite
        return None
    # sigma_max^2 >= max G_kk, and sigma_m^2 = lambda_min(G) <= min U_kk^2:
    # this and the test between the Lanczos runs reject only what the
    # gate would, the first without Lanczos (a failing dual)
    peak = np.diagonal(gram).max()
    if np.diagonal(upper).min() ** 2 < GRAM_GATE**2 * peak:
        return None
    # a seeded start: the same input gives the same margin in every process
    start = np.random.default_rng(0).standard_normal(len(gram))
    # 8 Lanczos vectors took the fewest products on the verify decks
    options = dict(k=1, v0=start, ncv=8, tol=1e-10)
    # G^-1 x by two triangular solves (xTRSV: xPOTRS on one vector is slower)
    inverse = LinearOperator(
        gram.shape, lambda x: dtrsv(upper, dtrsv(upper, x, trans=1)), dtype=float)
    try:
        bottom, u = eigsh(inverse, **options)  # 1 / sigma_m^2
        if not bottom[0] * GRAM_GATE**2 * peak <= 1.0:
            return None
        top = eigsh(gram, return_eigenvectors=False, **options)[0]
    except ArpackError:  # no convergence, or ARPACK refused the problem
        return None
    sigma_max = math.sqrt(top)
    if not bottom[0] * (GRAM_GATE * sigma_max) ** 2 <= 1.0:  # sigma_m^2 = 1 / bottom
        return None
    u = u[:, 0]
    margin = float(np.linalg.norm(sparse.T @ u))
    if trailing is not None:
        margin = math.hypot(margin, float(np.linalg.norm(trailing.T @ u)))
    return len(gram), sigma_max / scale, margin / scale


def _dual_decisions(entries, shape, blocks, tol: Tolerances, scale: float = 1.0, trailing=None):
    """The decisions of the dual routes of one verification, in order, as
    (route name, rank, sigma_max, sigma_m), over the ``entries``
    (:func:`_kronecker_entries`) of a dual of ``shape`` and its dense
    ``trailing`` columns (the SMP's trace columns), if any: the Gram route
    (:func:`_gram_dual`, on their CSR form), when it decides, for whole duals
    of two rows or more (Lanczos needs two) whose rows * cols * min(rows,
    cols) reaches GRAM_MIN_WORK, then the dense SVD (:func:`_dense_dual`),
    which always decides.  The dual's singular values are the Kronecker
    primal's times ``scale``."""
    cols = shape[1] if trailing is None else shape[1] + trailing.shape[1]
    if blocks is None and shape[0] > 1 and _svd_work(shape[0], cols) >= GRAM_MIN_WORK:
        decided = _gram_dual(_sparse(entries, shape), trailing, scale)
        if decided is not None:
            yield ("Gram", *decided)
    yield ("dense", *_dense_dual(entries, shape, blocks, tol, scale, trailing))


def _check_and_build(
    name, n, cells, symmetric, duals, tol, residual_of, primal, kronecker, *,
    q_used=None, alt_qs=(),
) -> StrongPropertyReport:
    """Decide both routes and build the report.

    The dual has one row per constrained cell: the coordinates not
    eliminated from the ambient space.  ``duals`` yields the decisions of
    its routes, in order (see :func:`_dual_decisions`): (route name, rank,
    sigma_max, sigma_m) in the units of the Kronecker primal.  The first
    decision gives the margin sigma_m and the resolution cut = rank_tol *
    sigma_max; when the primal then disagrees with it, the next dual route
    decides, and only a disagreement with the last raises
    :class:`InternalCheckError`.

    A primal route maps the SMP's q (None elsewhere) to (system, direct-sum
    labels, map from null vectors to X or None); its null vectors are the
    solutions X.  ``primal(cut)`` is the route over the small space X lies
    in, or None where none applies, and decides when its nullity is the
    dual's.  Otherwise ``kronecker``, the Kronecker primal over the
    constrained ``cells``, decides: the two routes can read a coupling
    across an eigenvalue gap near the cut differently, and the Kronecker
    primal has the dual's singular values.  The SMP alternatives ``alt_qs``
    are tried on the primal route that decided."""
    m = len(cells[0])
    ambient = n * (n + 1) // 2 if symmetric else n * n
    mismatches = []
    for dual_name, dual_rank, sigma_max, margin in duals:
        dual_dim = ambient - m + dual_rank
        primal_name, null_dim = None, 0
        if m:
            # the constrained subspace is not {O}: solve
            small = primal(tol.rank_tol * sigma_max)
            for primal_name, route in ((_SMALL_PRIMAL[name], small), ("Kronecker", kronecker)):
                if route is not None:
                    system, blocks, to_matrix = route(q_used)
                    null_dim, null_basis = _primal_nullspace(system, tol, blocks, dual_rank < m)
                    if null_dim == m - dual_rank:
                        break
        if (null_dim == 0) == (dual_dim == ambient):
            break
        mismatches.append(
            f"{primal_name} primal verdict {null_dim == 0} (nullspace {null_dim}) disagrees "
            f"with {dual_name} dual verdict {dual_dim == ambient} (span {dual_dim}/{ambient})"
        )
    else:
        raise InternalCheckError(f"{name}: " + "; ".join(mismatches))
    witness, alternatives = None, [(alt, True) for alt in alt_qs]
    if m:
        if null_dim:
            coeffs = null_basis[:, 0]
            if to_matrix is not None:
                coeffs = to_matrix(coeffs)[cells]
            witness = _witness_from(n, cells, coeffs, symmetric)
        alternatives = []
        for alt in alt_qs:
            system, blocks, _ = route(alt)
            alternatives.append((alt, _primal_nullspace(system, tol, blocks)[0] == 0))
    return StrongPropertyReport(
        property_name=name,
        holds=null_dim == 0,
        nullspace_dim=null_dim,
        smallest_structural_singular_value=margin if m else float("inf"),
        dual_span_dim=dual_dim,
        ambient_dim=ambient,
        dual_verdict=dual_dim == ambient,
        witness=witness,
        witness_residual=None if witness is None else residual_of(witness),
        q_used=q_used,
        q_alternatives=tuple(alternatives),
    )


def _svd_work(rows: int, cols: int) -> int:
    return rows * cols * min(rows, cols)


def _split(w: np.ndarray, shape, rows, cols, extra=0):
    """(row labels, column labels) of a Kronecker system over the cells
    ``rows`` and ``cols`` plus ``extra`` SMP trace columns.  A cell's label
    is the unordered pair of its components in W's exact support graph, or
    -1 within one component, which the SMP trace columns (W^k)_ij join.
    None (system whole) when that graph is connected or rows * cols *
    min(rows, cols) of ``shape`` is below SPLIT_MIN_WORK."""
    if _svd_work(*shape) < SPLIT_MIN_WORK:
        return None
    n = w.shape[0]
    reach = (w != 0) | (w.T != 0) | np.eye(n, dtype=bool)
    for _ in range(max(n - 1, 1).bit_length()):  # repeated squaring
        if reach.all():
            return None
        reach = reach @ reach
    comp = np.argmax(reach, axis=1)  # the smallest vertex of each component
    if not comp.any():
        return None

    def label(cells) -> np.ndarray:
        ci, cj = comp[cells[0]], comp[cells[1]]
        return np.where(ci == cj, -1, np.minimum(ci, cj) * n + np.maximum(ci, cj))

    return label(rows), np.concatenate([label(cols), np.full(extra, -1)])


def _prepare_symmetric(a, g: Graph, tol: Tolerances):
    a = symmetrize(a)
    if not matrix_in_graph_class(a, g, tol):
        raise NotInClass("matrix is not in the class of the given graph")
    scale = fro(a)
    work = a / scale if scale > 0 else a
    return a, work


def _congruence_system(q: np.ndarray, coupled: np.ndarray, g: Graph):
    """The symmetric X = Q Y Q^T with Y symmetric and zero outside the mask
    ``coupled`` of eigenvector pairs, read on the closed graph class.

    Columns are the orthonormal coordinates of Y (E_pp, and (E_pr + E_rp)/sqrt 2
    for p < r); rows are X_ii and sqrt(2) X_ij on the edges, the orthonormal
    coordinates of X on the diagonal and the edges.  Returns the system, the
    eigenvalue index of each column's diagonal coordinate (-1 off the
    diagonal) and the map from coordinates to X."""
    p, r = np.nonzero(coupled & ~_upper_mask(len(q)).T)  # p <= r
    scale = np.where(p == r, 0.5, 1.0 / SQRT2)
    qp, qr = q[:, p], q[:, r]
    i, j = np.array(g.edges, dtype=int).reshape(-1, 2).T
    # X_ij = (Q_ip Q_jr + Q_ir Q_jp) * scale
    system = np.vstack([2.0 * scale * qp * qr, SQRT2 * scale * (qp[i] * qr[j] + qr[i] * qp[j])])

    def to_matrix(y: np.ndarray) -> np.ndarray:
        coords = np.zeros((g.n, g.n))
        coords[p, r] = scale * y
        return q @ (coords + coords.T) @ q.T

    return system, np.where(p == r, p, -1), to_matrix


def _commutant_system(eig, cut: float, g: Graph):
    """:func:`_congruence_system` over the commutant of W = Q diag(lambda) Q^T:
    Y is block diagonal over the eigenvalue clusters, consecutive eigenvalues
    merging when their gap is at most ``cut``."""
    lam = eig.eigenvalues
    cluster = np.concatenate([[0], np.cumsum(np.diff(lam) > cut)])
    return _congruence_system(eig.eigenvectors, cluster[:, None] == cluster, g)


def _kronecker_primal(w, system, rows, cols, blocks, trailing=None):
    """A Kronecker primal route's (system, labels, None): the formula
    ``system(w, row cells, column cells)`` on the cells ``rows`` x ``cols``,
    then the dense ``trailing`` rows (the SMP's trace rows), if any.  Whole,
    the dense matrix; split by ``blocks``, a callable that evaluates each
    stack of blocks elementwise (see :func:`_left_block`), as
    :func:`numerics.rank` takes it.  Each entry has an indicator factor
    ([a = i], [b = j], or [a = j], [b = i] for a pair's mirror), so it is
    W * 0 = +-0 unless a row and a column cell share an index: the formula
    is read at those pairs first, and a nonzero there outside the blocks,
    or a trailing one, raises :class:`InternalCheckError`."""
    if blocks is None:
        whole = system(w, rows, cols)
        return (whole if trailing is None else np.vstack([whole, trailing])), None, None
    height, n = len(rows[0]), w.shape[0]

    def stack(r, c):
        top, extra = np.minimum(r, height - 1)[:, :, None], (r - height)[:, :, None]
        out = system(w, [cell[top] for cell in rows], [cell[c][:, None, :] for cell in cols])
        if trailing is None:
            return out
        return np.where(extra >= 0, trailing[np.maximum(extra, 0), c[:, None, :]], out)

    index = np.full((n, n), -1)
    index[rows] = np.arange(height)
    (row_labels, col_labels), i, j = blocks, cols[0][:, None], cols[1][:, None]
    outside = trailing is not None and np.any(trailing[row_labels[height:, None] != col_labels])
    # the cells (i, .), (j, .), (., i) and (., j) of each column cell (i, j),
    # one group at a time (index -1: not a row of the system)
    every = np.arange(n)[None]
    for near in ((i, every), (j, every), (every, i), (every, j)):
        row = index[near]
        outside = outside or np.any(
            (system(w, near, (i, j)) != 0) & (row >= 0) & (row_labels[row] != col_labels[:, None]))
    if outside:
        raise InternalCheckError("a nonzero entry lies outside the direct-sum blocks")
    return stack, blocks, None


def _commutator_primal(w: np.ndarray, rows, cols) -> np.ndarray:
    """The halved Kronecker SSP primal (upper rows x non-edge pairs), which
    the dual transposes."""
    return _commutator_block(w, rows, cols) + _commutator_block(w, rows, cols[::-1])


def _commutator_residual(a):
    return lambda x: fro(a @ x - x @ a) / max(fro(a), 1e-300)


def verify_ssp(a, g: Graph, tol: Tolerances = DEFAULT_TOL) -> StrongPropertyReport:
    """Strong spectral property of a symmetric matrix relative to its graph.

    Primal equations: A o X = O, I o X = O, [A, X] = O, solved over the
    commutant of A.  Dual: closure(graph class) + {K^T A + A K : K skew}
    spans all symmetric matrices.
    """
    a, w = _prepare_symmetric(a, g, tol)
    cells, upper = g._non_edges, np.nonzero(_upper_mask(g.n))
    shape = (len(cells[0]), len(upper[0]))
    dual_blocks = _split(w, shape, cells, upper)

    def primal(cut):
        system, _, to_matrix = _commutant_system(sym_eig(w, tol), cut, g)
        return lambda _: (system, None, to_matrix)

    return _check_and_build(
        "ssp", g.n, cells, True,
        _dual_decisions(_kronecker_entries(w, cells, "ssp"), shape, dual_blocks, tol),
        tol, _commutator_residual(a), primal,
        lambda _: _kronecker_primal(w, _commutator_primal, upper, cells, _transposed(dual_blocks)),
    )


def _smp_q_candidates(lam: np.ndarray, tol: Tolerances) -> tuple[int, list[int]]:
    """Number of distinct eigenvalues plus alternatives when the clustering
    decision sits within a factor 2 of the threshold."""
    clusters = cluster_eigenvalues(lam, tol)
    q = len(clusters)
    spread = float(lam[-1] - lam[0]) if len(lam) > 1 else 0.0
    thr = tol.cluster_tol * max(1.0, spread)
    alternatives = []
    centers = [c for c, _ in clusters]
    if q > 1 and any(
        thr < centers[i + 1] - centers[i] <= 2.0 * thr for i in range(q - 1)
    ):
        alternatives.append(q - 1)
    intra = [
        lam[i + 1] - lam[i]
        for i in range(len(lam) - 1)
        if lam[i + 1] - lam[i] <= thr
    ]
    if any(gap > thr / 2.0 for gap in intra):
        alternatives.append(q + 1)
    return q, alternatives


def _trace_rows(w: np.ndarray, cells, q: int) -> np.ndarray:
    """Rows tr(W^k X) = sqrt(2) (W^k)_ij over the non-edge pairs, k < q."""
    rows, power = [], np.eye(w.shape[0])
    for _ in range(q):
        rows.append(SQRT2 * power[cells])
        power = power @ w
    return np.array(rows)


def verify_smp(a, g: Graph, tol: Tolerances = DEFAULT_TOL) -> StrongPropertyReport:
    """Strong multiplicity property: the SSP system plus the trace
    conditions tr(A^k X) = 0 for k = 0..q-1, with q the number of distinct
    eigenvalues under the clustering tolerance.

    The q actually used is recorded; when the clustering is ambiguous
    (some gap within 2x of the threshold) the verdicts for the alternative
    q values are reported as well.
    """
    a, w = _prepare_symmetric(a, g, tol)
    eig = sym_eig(w, tol)
    lam = eig.eigenvalues
    q, alt_qs = _smp_q_candidates(lam, tol)
    cells, upper = g._non_edges, np.nonzero(_upper_mask(g.n))
    shape = (len(cells[0]), len(upper[0]))
    work = (shape[0], shape[1] + q)
    dual_blocks = _split(w, work, cells, upper, q)

    def primal(cut):
        commutant, diagonal, to_matrix = _commutant_system(eig, cut, g)

        def route(q_val):
            # tr(W^k X) is lambda_p^k on the diagonal coordinate Y_pp; k = 0
            # is left out, being the sum of the rows X_ii = 0
            powers = np.where(diagonal >= 0, lam[diagonal], 0.0) ** np.arange(1, q_val)[:, None]
            return np.vstack([commutant, powers]), None, to_matrix

        return route

    return _check_and_build(
        "smp", g.n, cells, True,
        _dual_decisions(_kronecker_entries(w, cells, "smp"), shape, dual_blocks, tol,
                        trailing=_trace_rows(w, cells, q).T),
        tol, _commutator_residual(a), primal,
        lambda q_val: _kronecker_primal(
            w, _commutator_primal, upper, cells,
            _transposed(_split(w, work, cells, upper, q_val)), _trace_rows(w, cells, q_val)),
        q_used=q, alt_qs=[alt for alt in alt_qs if 1 <= alt <= g.n],
    )


def verify_sap(a, g: Graph, tol: Tolerances = DEFAULT_TOL) -> StrongPropertyReport:
    """Strong Arnol'd property: A o X = O, I o X = O, A X = O, solved over
    X = N Y N^T with N an eigenbasis of ker A; dual uses {L^T A + A L} with L
    ranging over all square matrices."""
    a, w = _prepare_symmetric(a, g, tol)
    cells, every = g._non_edges, np.divmod(np.arange(g.n * g.n), g.n)
    shape = (len(cells[0]), g.n * g.n)
    dual_blocks = _split(w, shape, cells, every)

    def primal(cut):
        eig = sym_eig(w, tol)
        kernel = np.abs(eig.eigenvalues) <= cut
        system, _, to_matrix = _congruence_system(eig.eigenvectors, kernel[:, None] & kernel, g)
        return lambda _: (system, None, to_matrix)

    return _check_and_build(
        "sap", g.n, cells, True,
        # the entries are the dual over sqrt 2; a Python float scale keeps
        # the margin a Python float, as the other properties' are
        _dual_decisions(_kronecker_entries(w, cells, "sap"), shape, dual_blocks, tol,
                        scale=math.sqrt(2.0)),
        tol, lambda x: fro(a @ x) / max(fro(a), 1e-300), primal,
        lambda _: _kronecker_primal(
            w, lambda w, r, c: (_left_block(w, r, c) + _left_block(w, r, c[::-1])) / SQRT2,
            every, cells, _transposed(dual_blocks)),
    )


def _polynomial_basis(w: np.ndarray, cut: float) -> np.ndarray | None:
    """Frobenius-orthonormal basis (n x n x n) of span{I, W, ..., W^(n-1)}
    by Arnoldi with two Gram-Schmidt passes, or None when a step leaves at
    most ``cut`` (W has unit norm): the minimal polynomial of W has degree
    below n at that resolution, so W is derogatory and its centralizer is
    larger.  A diagonal W with a repeated value is exactly derogatory (its
    Arnoldi steps break down at heights far below the cut): None at once."""
    n = w.shape[0]
    d = np.diagonal(w)
    if np.count_nonzero(w) == np.count_nonzero(d) and np.unique(d).size < n:
        return None
    basis = np.empty((n, n * n))
    basis[0] = np.eye(n).reshape(-1) / np.sqrt(n)
    for k in range(1, n):
        v = (w @ basis[k - 1].reshape(n, n)).reshape(-1)
        for _ in range(2):
            v -= basis[:k].T @ (basis[:k] @ v)
        height = math.sqrt(v @ v)
        if height <= cut:
            return None
        basis[k] = v / height
    return basis.reshape(n, n, n)


def verify_nssp(
    a,
    tol: Tolerances = DEFAULT_TOL,
    pattern: SignPattern | None = None,
) -> StrongPropertyReport:
    """Non-symmetric strong spectral property of a square matrix.

    Primal: A o X = O and [A, X^T] = O force X = O, with X ranging over
    matrices supported on the zero cells of A (or of ``pattern`` when
    supplied, after checking A lies in its sign class).  For nonderogatory
    A it is solved over X^T = p(A), a polynomial in A.  Dual: the sign
    tangent space plus {-L A + A L} spans all of M_n.
    """
    a = as_matrix(a)
    n = require_square(a)
    if pattern is not None:
        if not matrix_in_sign_class(a, pattern, tol):
            raise NotInClass("matrix is not in the class of the given sign pattern")
    else:
        pattern = SignPattern.from_matrix(a)
    scale = fro(a)
    w = a / scale if scale > 0 else a
    zero = pattern._signs == 0
    cells, every = np.nonzero(zero), np.divmod(np.arange(n * n), n)
    shape = (len(cells[0]), n * n)
    dual_blocks = _split(w, shape, cells, every)

    def primal(cut):
        if _svd_work(n * n, len(cells[0])) < CENTRALIZER_MIN_WORK:
            return None
        basis = _polynomial_basis(w, cut)
        if basis is None:
            return None
        # X^T = sum_k c_k B_k vanishes on the nonzero cells of X
        nonzero = np.nonzero(~zero)
        system = basis[:, nonzero[1], nonzero[0]].T
        return lambda _: (system, None, lambda c: np.tensordot(c, basis, axes=1).T)

    return _check_and_build(
        "nssp", n, cells, False,
        _dual_decisions(_kronecker_entries(w, cells, "nssp"), shape, dual_blocks, tol),
        tol, lambda x: fro(a @ x.T - x.T @ a) / max(fro(a), 1e-300), primal,
        lambda _: _kronecker_primal(
            w, _commutator_block, every, cells[::-1], _transposed(dual_blocks)),
    )


_VERIFIERS = {
    "ssp": verify_ssp,
    "smp": verify_smp,
    "sap": verify_sap,
}


def verify_property(
    name: str,
    a,
    graph: Graph | None = None,
    pattern: SignPattern | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> StrongPropertyReport:
    """Dispatch by property name ('ssp', 'smp', 'sap', 'nssp')."""
    name = name.lower()
    if name == "nssp":
        return verify_nssp(a, tol, pattern=pattern)
    if name not in _VERIFIERS:
        raise InputError(f"unknown property {name!r}")
    if graph is None:
        raise InputError(f"property {name} needs a graph")
    return _VERIFIERS[name](a, graph, tol)

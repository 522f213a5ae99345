"""Verifiers for the strong properties SSP, SMP, SAP, and nSSP.

Each property asserts that X = O is the only matrix in a
pattern-constrained subspace satisfying certain linear equations in a
base matrix A.  Every verifier runs two independent routes and demands
agreement:

primal
    The linear map X -> (equations) on the constrained subspace; the
    property holds iff its nullspace is trivial, and any nullspace vector
    is a concrete witness of failure.
dual
    The property holds iff a sum of explicit subspaces spans the whole
    ambient space (closed pattern class plus a commutator/congruence
    range, plus the span of matrix powers for the SMP); check by rank.

Both systems are index slices of a Kronecker matrix.  In row-major vec,
vec(WX - XW) = C vec(X) with C = W (x) I - I (x) W^T and vec(WX) = D vec(X)
with D = W (x) I, so the image of the matrix unit E_ij is column i*n + j.
The constrained subspaces are spanned by matrix units on the zero cells
(nSSP) or by pairs E_ij + E_ji on the non-edges (SSP, SMP, SAP).  Three
exact identities shrink the systems or split them:

skew row halving
    For symmetric W and X, WX - XW is skew, so the SSP/SMP primal keeps its
    strictly upper rows only; with unnormalized pairs E_ij + E_ji its Gram
    matrix, hence every singular value, equals that of the n^2-row system
    over the orthonormal pairs (E_ij + E_ji)/sqrt(2).
coordinate elimination
    The closed graph class (diagonal and edges) and the sign tangent space
    (nonzero cells) are coordinate subspaces S, and dim(S + span R) =
    dim S + rank(R restricted to the coordinates outside S).  The dual
    keeps only the non-edge (zero-cell) rows of its range.
direct-sum splitting
    C and D join cell (a, b) to cell (i, j) only when a, i and b, j lie in
    common components of W's support, so each system is a permuted direct
    sum, one block per component pair, with the union of the blocks'
    singular values: the linear algebra of the disjoint-union results for
    SSP, SMP and SAP (Barrett et al., EJC 24 (2017) P2.40).  Blocks are
    factored one by one against the threshold of the whole system.

The eliminated dual block is then the primal's transpose up to sign,
scaling and a row permutation - the duality itself - but it is sliced and
factored separately, so an assembly error on either side surfaces as a
primal/dual mismatch or, in a split system, as a nonzero outside its blocks,
raising :class:`InternalCheckError`.

Inputs are normalized to unit Frobenius norm internally (all four
properties are invariant under nonzero scaling), so verdicts do not
depend on the scale of A.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, InternalCheckError
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
    cluster_eigenvalues,
    matrix_in_graph_class,
    matrix_in_sign_class,
)

SQRT2 = np.sqrt(2.0)

#: rows * cols * min(rows, cols) of a primal below which its systems stay whole:
#: the measured crossover, under which the per-block overhead outweighs the saving.
SPLIT_MIN_WORK = 10**6


@dataclass(frozen=True, eq=False)
class StrongPropertyReport:
    """Outcome of one strong-property verification.

    ``holds`` iff the primal nullspace is trivial; ``dual_verdict`` is the
    independent subspace-span result and always agrees.  When the property
    fails, ``witness`` is a unit-Frobenius-norm nonzero solution of the
    defining equations and ``witness_residual`` the norm of its equation
    images (relative to ||A||_F).  ``smallest_structural_singular_value``
    is the smallest singular value of the primal system, i.e. the margin
    by which the verdict clears the rank tolerance (inf when the
    constrained subspace is trivial).
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
    """Rows (a, b), columns (i, j) of D = W (x) I: D[ab, ij] = W[a, i] [b = j]."""
    a, b = rows[0][:, None], rows[1][:, None]
    i, j = cols[0][None, :], cols[1][None, :]
    return w[a, i] * (b == j)


def _commutator_block(w, rows, cols) -> np.ndarray:
    """Rows (a, b), columns (i, j) of C = W (x) I - I (x) W^T:
    C[ab, ij] = W[a, i] [b = j] - [a = i] W[j, b]."""
    a, b = rows[0][:, None], rows[1][:, None]
    i, j = cols[0][None, :], cols[1][None, :]
    return _left_block(w, rows, cols) - (a == i) * w[j, b]


def _non_edges(g: Graph):
    """Strictly upper cells (i < j) that are not edges, in row-major order."""
    adjacent = np.zeros((g.n, g.n), dtype=bool)
    for i, j in g.edges:
        adjacent[i, j] = True
    rows, cols = np.triu_indices(g.n, 1)
    keep = ~adjacent[rows, cols]
    return rows[keep], cols[keep]


def _primal_nullspace(system: np.ndarray, tol: Tolerances, blocks):
    """(nullspace dim, null vectors, sigma_min); columns are constrained cells."""
    return svd_nullspace(system, tol, blocks)


def _witness_from(n: int, cells, coeffs: np.ndarray, symmetric: bool) -> np.ndarray:
    """Unit-norm matrix carrying ``coeffs`` on ``cells`` (mirrored across the
    diagonal when ``symmetric``) and exact zeros elsewhere."""
    w = np.zeros((n, n))
    w[cells] = coeffs
    if symmetric:
        w = w + w.T
    return w / fro(w)


def _check_and_build(
    name, n, cells, symmetric, primal, dual, tol, residual_of, blocks,
    q_used=None, q_alternatives=(),
) -> StrongPropertyReport:
    """Decide both routes and build the report.  ``dual`` has one row per
    constrained cell: the coordinates not eliminated from the ambient space.
    ``blocks`` holds the direct-sum labels of the primal and of the dual
    (see :func:`_split`), each None for a system kept whole."""
    primal_blocks, dual_blocks = blocks
    if primal.shape[1] == 0:
        # Constrained subspace is {O}: the property holds with no solve.
        holds, null_dim, sigma_min, witness = True, 0, float("inf"), None
    else:
        null_dim, null_basis, sigma_min = _primal_nullspace(primal, tol, primal_blocks)
        holds = null_dim == 0
        witness = None if holds else _witness_from(n, cells, null_basis[:, 0], symmetric)

    ambient = n * (n + 1) // 2 if symmetric else n * n
    dual_dim = ambient - dual.shape[0] + rank(dual, tol, dual_blocks)
    dual_verdict = dual_dim == ambient
    if dual_verdict != holds:
        raise InternalCheckError(
            f"{name}: primal verdict {holds} disagrees with dual verdict "
            f"{dual_verdict} (nullspace {null_dim}, dual span {dual_dim}/{ambient})"
        )
    return StrongPropertyReport(
        property_name=name,
        holds=holds,
        nullspace_dim=null_dim,
        smallest_structural_singular_value=sigma_min,
        dual_span_dim=dual_dim,
        ambient_dim=ambient,
        dual_verdict=dual_verdict,
        witness=witness,
        witness_residual=None if witness is None else residual_of(witness),
        q_used=q_used,
        q_alternatives=tuple(q_alternatives),
    )


def _split(w: np.ndarray, shape):
    """Function of the primal's row cells (plus ``extra`` SMP trace rows)
    and column cells giving the primal's (row labels, column labels) and the
    dual's, swapped.  A cell's label is the unordered pair of its components
    in W's exact support graph, or -1 within one component, which the SMP
    trace rows (W^k)_ij join.  Labels are None (systems whole) when that
    graph is connected or the primal's ``shape`` is below SPLIT_MIN_WORK."""

    def whole(row_cells, col_cells, extra=0):
        return None, None

    rows, cols = shape
    if rows * cols * min(rows, cols) < SPLIT_MIN_WORK:
        return whole
    n = w.shape[0]
    reach = (w != 0) | (w.T != 0) | np.eye(n, dtype=bool)
    for _ in range(max(n - 1, 1).bit_length()):  # repeated squaring
        if reach.all():
            return whole
        reach = reach @ reach
    comp = np.argmax(reach, axis=1)  # the smallest vertex of each component
    if not comp.any():
        return whole

    def label(cells) -> np.ndarray:
        ci, cj = comp[cells[0]], comp[cells[1]]
        return np.where(ci == cj, -1, np.minimum(ci, cj) * n + np.maximum(ci, cj))

    def blocks(row_cells, col_cells, extra=0):
        r, c = np.concatenate([label(row_cells), np.full(extra, -1)]), label(col_cells)
        return (r, c), (c, r)

    return blocks


def _prepare_symmetric(a, g: Graph, tol: Tolerances):
    a = symmetrize(a)
    if a.shape[0] != g.n:
        raise InputError(
            f"matrix size {a.shape[0]} does not match graph on {g.n} vertices"
        )
    if not matrix_in_graph_class(a, g, tol):
        raise InputError("matrix is not in the class of the given graph")
    scale = fro(a)
    work = a / scale if scale > 0 else a
    return a, work


def _commutator_systems(w: np.ndarray, g: Graph):
    """Non-edge cells, upper cells, the halved SSP primal (upper rows x
    non-edge pairs) and the eliminated SSP dual (non-edge rows x skew pairs
    E_ij - E_ji)."""
    cells, upper = _non_edges(g), np.triu_indices(g.n, 1)
    primal = _commutator_block(w, upper, cells) + _commutator_block(w, upper, cells[::-1])
    dual = _commutator_block(w, cells, upper) - _commutator_block(w, cells, upper[::-1])
    return cells, upper, primal, dual


def _commutator_residual(a):
    return lambda x: fro(a @ x - x @ a) / max(fro(a), 1e-300)


def verify_ssp(a, g: Graph, tol: Tolerances = DEFAULT_TOL) -> StrongPropertyReport:
    """Strong spectral property of a symmetric matrix relative to its graph.

    Primal equations: A o X = O, I o X = O, [A, X] = O.
    Dual: closure(graph class) + {K^T A + A K : K skew} spans all
    symmetric matrices.
    """
    a, w = _prepare_symmetric(a, g, tol)
    cells, upper, primal, dual = _commutator_systems(w, g)
    return _check_and_build(
        "ssp", g.n, cells, True, primal, dual, tol, _commutator_residual(a),
        _split(w, primal.shape)(upper, cells),
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
    q, alt_qs = _smp_q_candidates(sym_eig(w, tol).eigenvalues, tol)
    cells, upper, commutator, dual = _commutator_systems(w, g)
    split = _split(w, (commutator.shape[0] + q, commutator.shape[1]))

    def verdict_only(q_val) -> bool:
        system = np.vstack([commutator, _trace_rows(w, cells, q_val)])
        blocks, _ = split(upper, cells, q_val)
        return system.shape[1] == 0 or rank(system, tol, blocks) == system.shape[1]

    trace = _trace_rows(w, cells, q)
    return _check_and_build(
        "smp", g.n, cells, True, np.vstack([commutator, trace]), np.hstack([dual, trace.T]),
        tol, _commutator_residual(a), split(upper, cells, q), q_used=q,
        q_alternatives=[(alt, verdict_only(alt)) for alt in alt_qs if 1 <= alt <= g.n],
    )


def verify_sap(a, g: Graph, tol: Tolerances = DEFAULT_TOL) -> StrongPropertyReport:
    """Strong Arnol'd property: A o X = O, I o X = O, A X = O; dual uses
    {L^T A + A L} with L ranging over all square matrices."""
    a, w = _prepare_symmetric(a, g, tol)
    cells, every = _non_edges(g), np.divmod(np.arange(g.n * g.n), g.n)
    primal = (_left_block(w, every, cells) + _left_block(w, every, cells[::-1])) / SQRT2
    dual = SQRT2 * (_left_block(w, cells, every) + _left_block(w, cells[::-1], every))
    return _check_and_build(
        "sap", g.n, cells, True, primal, dual, tol,
        lambda x: fro(a @ x) / max(fro(a), 1e-300),
        _split(w, primal.shape)(every, cells),
    )


def verify_nssp(
    a,
    tol: Tolerances = DEFAULT_TOL,
    pattern: SignPattern | None = None,
) -> StrongPropertyReport:
    """Non-symmetric strong spectral property of a square matrix.

    Primal: A o X = O and [A, X^T] = O force X = O, with X ranging over
    matrices supported on the zero cells of A (or of ``pattern`` when
    supplied, after checking A lies in its sign class).  Dual: the sign
    tangent space plus {-L A + A L} spans all of M_n.
    """
    a = as_matrix(a)
    n = require_square(a)
    if pattern is not None:
        if not matrix_in_sign_class(a, pattern, tol):
            raise InputError("matrix is not in the class of the given sign pattern")
    else:
        pattern = SignPattern.from_matrix(a)
    scale = fro(a)
    w = a / scale if scale > 0 else a
    cells, every = np.nonzero(pattern.as_array() == 0), np.divmod(np.arange(n * n), n)
    primal = _commutator_block(w, every, cells[::-1])
    return _check_and_build(
        "nssp", n, cells, False, primal, _commutator_block(w, cells, every), tol,
        lambda x: fro(a @ x.T - x.T @ a) / max(fro(a), 1e-300),
        _split(w, primal.shape)(every, cells),
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

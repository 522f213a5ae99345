"""Graphs, sign patterns, and the matrix subspaces they carve out.

A :class:`Graph` fixes which off-diagonal entries of a symmetric matrix
must be nonzero; a :class:`SignPattern` prescribes the sign of every entry
of a general square matrix.  This module provides membership tests for
both classes, orthonormal bases of the associated linear subspaces
(closed graph class, sign-tangent space, symmetric/skew/full ambient
spaces), eigenvalue clustering into ordered multiplicity lists, partial
and refined inertias, the admissibility oracle for cycle spectra, and the
text file formats used by the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ParseError
from .numerics import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    fro,
    real_schur,
    require_square,
    sym_eig,
    symmetrize,
)

#: Absolute scale factor of the "entry is zero" cutoff; the working
#: threshold is ENTRY_ZERO_SCALE * ||A||_F / n, which makes class
#: membership invariant under scaling of A.
ENTRY_ZERO_SCALE = 1e-10


def entry_zero_threshold(a: np.ndarray) -> float:
    """Magnitude below which an entry of ``a`` counts as a structural zero."""
    n = max(a.shape[0], 1)
    return ENTRY_ZERO_SCALE * fro(a) / n


def eig_zero_threshold(a: np.ndarray, tol: Tolerances) -> float:
    """Magnitude below which an eigenvalue of ``a`` counts as zero."""
    return tol.rank_tol * fro(a)


# ---------------------------------------------------------------------------
# Graphs


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    ``edges`` is a sorted tuple of (i, j) pairs with i < j; the
    constructor helpers normalize and validate.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        if n < 1:
            raise InputError("graph needs at least one vertex")
        normalized = set()
        for i, j in edges:
            i, j = int(i), int(j)
            if i == j:
                raise InputError(f"loop at vertex {i} is not allowed")
            if not (0 <= i < n and 0 <= j < n):
                raise InputError(f"edge ({i}, {j}) has an endpoint outside 0..{n - 1}")
            normalized.add((min(i, j), max(i, j)))
        return cls(n=n, edges=tuple(sorted(normalized)))

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls.from_edges(n, [])

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise InputError("a cycle needs at least 3 vertices")
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in set(self.edges)

    def complement(self) -> "Graph":
        present = set(self.edges)
        comp = [
            (i, j)
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if (i, j) not in present
        ]
        return Graph.from_edges(self.n, comp)

    def permuted(self, perm) -> "Graph":
        """Relabeled graph: vertex v becomes perm[v]."""
        perm = list(perm)
        return Graph.from_edges(self.n, [(perm[i], perm[j]) for i, j in self.edges])


# ---------------------------------------------------------------------------
# Sign patterns


PLUS, MINUS, ZERO = 1, -1, 0
_SIGN_CHARS = {"+": PLUS, "-": MINUS, "0": ZERO}
_CHAR_OF_SIGN = {PLUS: "+", MINUS: "-", ZERO: "0"}


@dataclass(frozen=True)
class SignPattern:
    """n x n array over {+, -, 0}, stored as nested tuples of {1, -1, 0}."""

    n: int
    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1 or len(self.cells) != self.n:
            raise InputError("sign pattern must be square and non-empty")
        for row in self.cells:
            if len(row) != self.n:
                raise InputError("sign pattern must be square")
            for v in row:
                if v not in (PLUS, MINUS, ZERO):
                    raise InputError("sign pattern cells must be +1, -1, or 0")

    @classmethod
    def from_rows(cls, rows) -> "SignPattern":
        cells = tuple(tuple(int(v) for v in row) for row in rows)
        return cls(n=len(cells), cells=cells)

    @classmethod
    def from_text_lines(cls, lines, source: str = "<pattern>") -> "SignPattern":
        rows = []
        for lineno, raw in lines:
            row = []
            for ch in raw.strip():
                if ch not in _SIGN_CHARS:
                    raise ParseError(
                        f"{source}:{lineno}: invalid sign character {ch!r} "
                        "(expected '+', '-', or '0')"
                    )
                row.append(_SIGN_CHARS[ch])
            rows.append(row)
        if not rows:
            raise ParseError(f"{source}: empty sign pattern")
        width = len(rows[0])
        for (lineno, _), row in zip(lines, rows):
            if len(row) != width:
                raise ParseError(
                    f"{source}:{lineno}: expected {width} characters, got {len(row)}"
                )
        if len(rows) != width:
            raise ParseError(
                f"{source}: sign pattern must be square "
                f"({len(rows)} rows of {width} characters)"
            )
        return cls.from_rows(rows)

    @classmethod
    def from_matrix(cls, a, threshold: float | None = None) -> "SignPattern":
        """Sign pattern of a matrix, with |entry| <= threshold counting as 0."""
        a = as_matrix(a)
        require_square(a)
        thr = entry_zero_threshold(a) if threshold is None else threshold
        rows = []
        for i in range(a.shape[0]):
            rows.append(
                [
                    ZERO if abs(a[i, j]) <= thr else (PLUS if a[i, j] > 0 else MINUS)
                    for j in range(a.shape[1])
                ]
            )
        return cls.from_rows(rows)

    def as_array(self) -> np.ndarray:
        return np.array(self.cells, dtype=int)

    def sign_at(self, i: int, j: int) -> int:
        return self.cells[i][j]

    def nonzero_cells(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i in range(self.n)
            for j in range(self.n)
            if self.cells[i][j] != ZERO
        ]

    def zero_cells(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i in range(self.n)
            for j in range(self.n)
            if self.cells[i][j] == ZERO
        ]

    @property
    def is_full(self) -> bool:
        return not self.zero_cells()

    def to_lines(self) -> list[str]:
        return ["".join(_CHAR_OF_SIGN[v] for v in row) for row in self.cells]


def is_superpattern(p2: SignPattern, p1: SignPattern) -> bool:
    """True iff every nonzero cell of ``p1`` appears with the same sign in
    ``p2`` (every pattern is a superpattern of itself)."""
    if p2.n != p1.n:
        raise InputError(f"pattern sizes differ: {p2.n} vs {p1.n}")
    return all(
        p2.cells[i][j] == p1.cells[i][j]
        for (i, j) in p1.nonzero_cells()
    )


# ---------------------------------------------------------------------------
# Class membership


def matrix_in_graph_class(a, g: Graph, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff the symmetric matrix ``a`` lies in the class of ``g``:
    off-diagonal entry (i, j) nonzero exactly when {i, j} is an edge."""
    a = symmetrize(a)
    if a.shape[0] != g.n:
        raise InputError(f"matrix size {a.shape[0]} does not match graph on {g.n} vertices")
    edges = np.zeros((g.n, g.n), dtype=bool)
    if g.edges:
        rows, cols = zip(*g.edges)
        edges[rows, cols] = edges[cols, rows] = True
    nonzero = np.abs(a) > entry_zero_threshold(a)
    np.fill_diagonal(nonzero, False)
    return bool(np.array_equal(nonzero, edges))


def matrix_in_sign_class(a, p: SignPattern, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff sign(a[i, j]) matches the pattern cell for every entry,
    with |a[i, j]| <= threshold counting as zero."""
    a = as_matrix(a)
    require_square(a)
    if a.shape[0] != p.n:
        raise InputError(f"matrix size {a.shape[0]} does not match pattern size {p.n}")
    nonzero = np.abs(a) > entry_zero_threshold(a)
    return bool(np.array_equal(np.sign(a) * nonzero, p.cells))


def marginal_cells(a, required_nonzero, factor: float = 10.0) -> list[tuple[int, int]]:
    """Cells that are nonzero but within ``factor`` of the zero threshold.

    The realization post-checks report these instead of silently accepting
    entries that sit on the edge of leaving the class.
    """
    a = as_matrix(a)
    thr = entry_zero_threshold(a)
    return [
        (i, j)
        for (i, j) in required_nonzero
        if thr < abs(a[i, j]) <= factor * thr
    ]


# ---------------------------------------------------------------------------
# Subspace bases


@dataclass(frozen=True, eq=False)
class PatternBasis:
    """Orthonormal basis (under <A, B> = tr(B^T A)) of a matrix subspace.

    ``ambient_dim`` is the dimension of the ambient space the subspace
    lives in (n^2 for all of M_n, n(n+1)/2 for symmetric, ...).
    ``stack`` holds the basis matrices as one (dim, n, n) array.  The
    combination of an empty basis is the zero matrix.
    """

    ambient_dim: int
    stack: np.ndarray

    @property
    def dim(self) -> int:
        return self.stack.shape[0]

    @property
    def matrices(self) -> tuple[np.ndarray, ...]:
        """The basis matrices, as views of the stack."""
        return tuple(self.stack)

    def combine(self, coeffs) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.dim,):
            raise InputError(f"expected {self.dim} coefficients, got {coeffs.shape}")
        return np.einsum("k,kij->ij", coeffs, self.stack)

    def coefficients_of(self, a: np.ndarray) -> np.ndarray:
        """Coefficients of the orthogonal projection of ``a`` onto the span."""
        return np.array([float(np.sum(b * a)) for b in self.stack])


_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _basis_stack(n: int, units=(), pairs=(), mirror: float = 1.0) -> np.ndarray:
    """(dim, n, n) stack: the matrix units at the cells ``units``, then one
    matrix per (i, j) in ``pairs`` with 1/sqrt(2) at (i, j) and
    mirror/sqrt(2) at (j, i).  Entries are set one by one: the bases are
    small, and scalar stores beat fancy indexing at these sizes."""
    units, pairs = list(units), list(pairs)
    stack = np.zeros((len(units) + len(pairs), n, n))
    for k, (i, j) in enumerate(units):
        stack[k, i, j] = 1.0
    for k, (i, j) in enumerate(pairs, start=len(units)):
        stack[k, i, j] = _INV_SQRT2
        stack[k, j, i] = mirror * _INV_SQRT2
    return stack


def _diagonal(n: int) -> list[tuple[int, int]]:
    return [(i, i) for i in range(n)]


def _upper_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def symmetric_basis(n: int) -> PatternBasis:
    """Orthonormal basis of all symmetric n x n matrices."""
    stack = _basis_stack(n, units=_diagonal(n), pairs=_upper_pairs(n))
    return PatternBasis(ambient_dim=n * (n + 1) // 2, stack=stack)


def skew_basis(n: int) -> PatternBasis:
    """Orthonormal basis of all skew-symmetric n x n matrices."""
    stack = _basis_stack(n, pairs=_upper_pairs(n), mirror=-1.0)
    return PatternBasis(ambient_dim=n * (n - 1) // 2, stack=stack)


def full_basis(n: int) -> PatternBasis:
    """Orthonormal basis of all n x n matrices (matrix units)."""
    stack = _basis_stack(n, units=[(i, j) for i in range(n) for j in range(n)])
    return PatternBasis(ambient_dim=n * n, stack=stack)


def graph_closure_basis(g: Graph) -> PatternBasis:
    """Closure of the graph class: diagonal free, off-diagonal supported on
    edges.  Dimension n + |E|."""
    stack = _basis_stack(g.n, units=_diagonal(g.n), pairs=g.edges)
    return PatternBasis(ambient_dim=g.n * (g.n + 1) // 2, stack=stack)


def edge_span_basis(g: Graph) -> PatternBasis:
    """Hollow symmetric matrices supported exactly on the edges of ``g``.

    With ``g`` the complement graph this is the constraint space
    {X symmetric : A o X = O, I o X = O} of the symmetric strong
    properties.
    """
    return PatternBasis(ambient_dim=g.n * (g.n + 1) // 2, stack=_basis_stack(g.n, pairs=g.edges))


def cell_basis(n: int, cells) -> PatternBasis:
    """Matrix units at the given (i, j) cells, ambient M_n."""
    return PatternBasis(ambient_dim=n * n, stack=_basis_stack(n, units=cells))


def sign_tangent_basis(p: SignPattern) -> PatternBasis:
    """Tangent space of the sign class: free on nonzero cells, zero
    elsewhere.  Dimension = number of nonzero cells."""
    return cell_basis(p.n, p.nonzero_cells())


# ---------------------------------------------------------------------------
# Multiplicity lists and spectra


def cluster_eigenvalues(values, tol: Tolerances = DEFAULT_TOL) -> list[tuple[float, int]]:
    """Group an ascending sequence into (center, multiplicity) clusters.

    Consecutive values merge when their gap is at most
    cluster_tol * max(1, spread); centers are cluster means.
    """
    vals = np.asarray(values, dtype=float).reshape(-1)
    if vals.size == 0:
        return []
    if np.any(np.diff(vals) < 0):
        raise InputError("eigenvalues must be sorted ascending")
    spread = float(vals[-1] - vals[0])
    thr = tol.cluster_tol * max(1.0, spread)
    clusters = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > thr:
            chunk = vals[start:i]
            clusters.append((float(np.mean(chunk)), len(chunk)))
            start = i
    return clusters


@dataclass(frozen=True)
class OrderedMultiplicityList:
    """Eigenvalue multiplicities in increasing eigenvalue order."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if any(m < 1 for m in self.entries):
            raise InputError("multiplicities must be positive")

    @property
    def total(self) -> int:
        return sum(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


def ordered_multiplicity_list(
    values, tol: Tolerances = DEFAULT_TOL
) -> OrderedMultiplicityList:
    """Ordered multiplicity list of an ascending eigenvalue sequence."""
    clusters = cluster_eigenvalues(values, tol)
    return OrderedMultiplicityList(entries=tuple(m for _, m in clusters))


def refinement_blocks(
    fine: OrderedMultiplicityList, coarse: OrderedMultiplicityList
) -> list[tuple[int, ...]] | None:
    """Split ``fine`` into consecutive blocks summing to ``coarse``.

    Returns the blocks when ``fine`` is a refinement of ``coarse`` (one
    block per coarse entry), else None.  Every list refines itself.
    """
    blocks = []
    idx = 0
    fine_entries = tuple(fine)
    for target in coarse:
        acc = 0
        block = []
        while acc < target and idx < len(fine_entries):
            block.append(fine_entries[idx])
            acc += fine_entries[idx]
            idx += 1
        if acc != target:
            return None
        blocks.append(tuple(block))
    if idx != len(fine_entries):
        return None
    return blocks


def refines(fine: OrderedMultiplicityList, coarse: OrderedMultiplicityList) -> bool:
    return refinement_blocks(fine, coarse) is not None


def cycle_spectrum_admissible(values, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether an ascending sequence can be the spectrum of a matrix whose
    graph is the cycle on n = len(values) vertices.

    The sequence must follow one of the two alternating weak/strict chains
    lam1 <= lam2 < lam3 <= lam4 < ...   or   lam1 < lam2 <= lam3 < lam4 <= ...
    Ties are decided relative to the spread, which keeps the verdict
    invariant under affine maps lam -> a*lam + c with a > 0.
    """
    vals = np.asarray(values, dtype=float).reshape(-1)
    if vals.size < 3:
        raise InputError("cycle spectra need at least 3 values")
    if np.any(np.diff(vals) < 0):
        raise InputError("values must be sorted ascending")
    spread = float(vals[-1] - vals[0])
    thr = tol.cluster_tol * spread
    gaps = np.diff(vals)
    strict = gaps > thr
    chain_a = all(strict[i] for i in range(1, len(gaps), 2))
    chain_b = all(strict[i] for i in range(0, len(gaps), 2))
    return bool(chain_a or chain_b)


# ---------------------------------------------------------------------------
# Inertias


def pin(a, tol: Tolerances = DEFAULT_TOL) -> tuple[int, int]:
    """Partial inertia (n_plus, n_minus) of a symmetric matrix."""
    a = symmetrize(a)
    lam = sym_eig(a, tol).eigenvalues
    thr = eig_zero_threshold(a, tol)
    return int(np.sum(lam > thr)), int(np.sum(lam < -thr))


def inertia(a, tol: Tolerances = DEFAULT_TOL) -> tuple[int, int, int]:
    """(n_plus, n_minus, n_zero) counted by the sign of the real part: the
    refined inertia with its zeros and imaginary pairs together."""
    n_pos, n_neg, n_z, n_p2 = rin(a, tol)
    return n_pos, n_neg, n_z + n_p2


def rin(a, tol: Tolerances = DEFAULT_TOL) -> tuple[int, int, int, int]:
    """Refined inertia (n_plus, n_minus, n_zero, 2 * n_imag_pairs).

    Zero-real-part eigenvalues split into exact zeros and nonzero
    pure-imaginary ones (the latter always an even count).
    """
    a = as_matrix(a)
    require_square(a)
    eigs = real_schur(a).eigenvalues()
    thr = eig_zero_threshold(a, tol)
    n_pos = n_neg = n_z = n_p2 = 0
    for lam in eigs:
        if lam.real > thr:
            n_pos += 1
        elif lam.real < -thr:
            n_neg += 1
        elif abs(lam) <= thr:
            n_z += 1
        else:
            n_p2 += 1
    return n_pos, n_neg, n_z, n_p2


# ---------------------------------------------------------------------------
# File formats
#
# Graph file: first line "n m", then m lines "i j" (0-based).
# Sign pattern file: n lines of n characters from "+-0".
# Matrix file: n lines of whitespace-separated decimal numbers.


def _numbered_lines(text: str) -> list[tuple[int, str]]:
    return [
        (lineno, line)
        for lineno, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]


def parse_graph_text(text: str, source: str = "<graph>") -> Graph:
    lines = _numbered_lines(text)
    if not lines:
        raise ParseError(f"{source}: empty graph file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(f"{source}:{lineno}: expected header 'n m'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"{source}:{lineno}: header entries must be integers") from None
    if len(lines) - 1 != m:
        raise ParseError(
            f"{source}: header announces {m} edges but {len(lines) - 1} edge lines follow"
        )
    edges = []
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"{source}:{lineno}: expected 'i j'")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"{source}:{lineno}: edge endpoints must be integers") from None
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise ParseError(f"{source}:{lineno}: invalid edge ({i}, {j}) for n = {n}")
        edges.append((i, j))
    try:
        return Graph.from_edges(n, edges)
    except InputError as exc:
        raise ParseError(f"{source}: {exc}") from None


def parse_sign_pattern_text(text: str, source: str = "<pattern>") -> SignPattern:
    return SignPattern.from_text_lines(_numbered_lines(text), source=source)


def parse_matrix_text(text: str, source: str = "<matrix>") -> np.ndarray:
    lines = _numbered_lines(text)
    if not lines:
        raise ParseError(f"{source}: empty matrix file")
    rows = []
    for lineno, line in lines:
        try:
            row = [float(tok) for tok in line.split()]
        except ValueError:
            raise ParseError(f"{source}:{lineno}: entries must be decimal numbers") from None
        rows.append(row)
    width = len(rows[0])
    for (lineno, _), row in zip(lines, rows):
        if len(row) != width:
            raise ParseError(
                f"{source}:{lineno}: expected {width} entries, got {len(row)}"
            )
    a = np.array(rows, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ParseError(f"{source}: matrix contains non-finite entries")
    return a


def format_matrix(a) -> str:
    """Render a matrix so that parsing the text reproduces it exactly."""
    a = as_matrix(a)
    return "\n".join(" ".join(repr(float(v)) for v in row) for row in a) + "\n"

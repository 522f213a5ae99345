"""Dense paper-form assembly of the four strong-property systems, kept as
the reference the structured verifiers are compared against.

Every system is built one orthonormal basis matrix at a time, as the
definitions read: the primal stacks the n^2-entry images of the
constrained-subspace basis (plus the SMP trace rows tr(A^k X)), and the
dual stacks the closure or tangent basis next to the whole commutator or
congruence range, unreduced.
"""

import numpy as np
import pytest

from strongprops.numerics import DEFAULT_TOL, fro, nullspace, rank, sym_eig, symmetrize
from strongprops.patterns import (
    Graph,
    SignPattern,
    cell_basis,
    edge_span_basis,
    full_basis,
    graph_closure_basis,
    sign_tangent_basis,
    skew_basis,
)
from strongprops import verifiers
from strongprops.verifiers import (
    _smp_q_candidates,
    verify_nssp,
    verify_sap,
    verify_smp,
    verify_ssp,
)

from conftest import adjacency, random_graph, random_in_graph_class, random_square_with_zeros


def _columns(mats) -> np.ndarray:
    return np.column_stack([m.reshape(-1) for m in mats])


def _primal(x_basis, image_of, extra_rows, tol):
    """(nullspace dim, smallest singular value) of the dense primal."""
    if x_basis.dim == 0:
        return 0, float("inf")
    system = _columns([image_of(x) for x in x_basis.matrices])
    if extra_rows is not None:
        system = np.vstack([system, extra_rows])
    null_dim, _ = nullspace(system, tol)
    s = np.linalg.svd(system, compute_uv=False)
    return null_dim, float(s[-1]) if len(s) >= system.shape[1] else 0.0


def _dense(x_basis, image_of, extra_rows, dual_mats, tol) -> dict:
    null_dim, sigma = _primal(x_basis, image_of, extra_rows, tol)
    return {
        "holds": null_dim == 0,
        "nullspace_dim": null_dim,
        "dual_span_dim": rank(_columns(dual_mats), tol),
        "sigma": sigma,
    }


def _unit(a):
    scale = fro(a)
    return a / scale if scale > 0 else a


def dense_ssp(a, g: Graph, tol=DEFAULT_TOL) -> dict:
    w = _unit(symmetrize(a))
    dual = list(graph_closure_basis(g).matrices)
    dual += [w @ k - k @ w for k in skew_basis(g.n).matrices]
    return _dense(edge_span_basis(g.complement()), lambda x: w @ x - x @ w, None, dual, tol)


def _trace_rows(w, x_basis, q):
    powers = [np.linalg.matrix_power(w, k) for k in range(q)]
    return np.array([[float(np.sum(p * x)) for x in x_basis.matrices] for p in powers])


def dense_smp(a, g: Graph, tol=DEFAULT_TOL) -> dict:
    w = _unit(symmetrize(a))
    q, alt_qs = _smp_q_candidates(sym_eig(w, tol).eigenvalues, tol)
    x_basis = edge_span_basis(g.complement())
    dual = list(graph_closure_basis(g).matrices)
    dual += [w @ k - k @ w for k in skew_basis(g.n).matrices]
    dual += [np.linalg.matrix_power(w, k) for k in range(q)]

    def image(x):
        return w @ x - x @ w

    out = _dense(x_basis, image, _trace_rows(w, x_basis, q), dual, tol)
    out["q_used"] = q
    out["q_alternatives"] = tuple(
        (alt, _primal(x_basis, image, _trace_rows(w, x_basis, alt), tol)[0] == 0)
        for alt in alt_qs
        if 1 <= alt <= g.n
    )
    return out


def dense_sap(a, g: Graph, tol=DEFAULT_TOL) -> dict:
    w = _unit(symmetrize(a))
    dual = list(graph_closure_basis(g).matrices)
    dual += [l.T @ w + w @ l for l in full_basis(g.n).matrices]
    return _dense(edge_span_basis(g.complement()), lambda x: w @ x, None, dual, tol)


def dense_nssp(a, tol=DEFAULT_TOL) -> dict:
    w = _unit(a)
    p = SignPattern.from_matrix(a)
    dual = list(sign_tangent_basis(p).matrices)
    dual += [w @ l - l @ w for l in full_basis(p.n).matrices]
    x_basis = cell_basis(p.n, p.zero_cells())
    return _dense(x_basis, lambda x: w @ x.T - x.T @ w, None, dual, tol)


def _assert_matches(report, expected):
    assert report.holds == expected["holds"]
    assert report.nullspace_dim == expected["nullspace_dim"]
    assert report.dual_span_dim == expected["dual_span_dim"]
    if "q_used" in expected:
        assert report.q_used == expected["q_used"]
        assert report.q_alternatives == expected["q_alternatives"]
    sigma = report.smallest_structural_singular_value
    if report.holds and np.isfinite(expected["sigma"]):
        assert abs(sigma - expected["sigma"]) <= 1e-10 * expected["sigma"]
    else:
        assert np.isinf(sigma) == np.isinf(expected["sigma"])


def _symmetric_corpus():
    """(matrix, graph) pairs, n = 2..10: generic matrices, integer matrices
    and repeated diagonals that fail exactly, and 10^+-6 rescalings."""
    rng = np.random.default_rng(31)
    out = []
    for n in range(2, 11):
        for _ in range(2):
            g = random_graph(rng, n)
            out.append((random_in_graph_class(rng, g), g))
            ints = np.diag(rng.integers(-2, 3, size=n).astype(float)) + adjacency(g)
            out.append((ints, g))
        # a repeated diagonal entry on the empty graph fails exactly
        values = rng.integers(0, max(2, n // 2), size=n).astype(float)
        out.append((np.diag(values), Graph.empty(n)))
        # two copies of the same component fail with a cross-component witness
        half = n // 2
        block = adjacency(Graph.path(half)) if half > 1 else np.zeros((1, 1))
        doubled = np.zeros((n, n))
        doubled[:half, :half] = doubled[half:2 * half, half:2 * half] = block
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if doubled[i, j]]
        out.append((doubled, Graph.from_edges(n, edges)))
    scaled = [(c * a, g) for a, g in out[::3] for c in (1e-6, 1e6)]
    return out + scaled


def _square_corpus():
    """Square matrices, n = 2..10: generic with zeros, integer (0/+-1 and
    nilpotent strictly-upper) that fail exactly, and 10^+-6 rescalings."""
    rng = np.random.default_rng(32)
    out = []
    for n in range(2, 11):
        out.append(random_square_with_zeros(rng, n))
        out.append(rng.integers(-1, 2, size=(n, n)).astype(float))
        out.append(np.triu(rng.integers(-2, 3, size=(n, n)).astype(float), 1))
        out.append(np.diag(rng.integers(0, 2, size=n).astype(float)))
    return out + [c * a for a in out[::3] for c in (1e-6, 1e6)]


SYMMETRIC = [(verify_ssp, dense_ssp), (verify_smp, dense_smp), (verify_sap, dense_sap)]


@pytest.mark.parametrize("verifier,oracle", SYMMETRIC, ids=["ssp", "smp", "sap"])
def test_symmetric_properties_match_dense_oracle(verifier, oracle):
    corpus = _symmetric_corpus()
    verdicts = set()
    for a, g in corpus:
        report = verifier(a, g)
        _assert_matches(report, oracle(a, g))
        verdicts.add(report.holds)
    assert verdicts == {True, False}


def test_nssp_matches_dense_oracle():
    verdicts = set()
    for a in _square_corpus():
        report = verify_nssp(a)
        _assert_matches(report, dense_nssp(a))
        verdicts.add(report.holds)
    assert verdicts == {True, False}


def test_ambiguous_clustering_alternatives_match_dense_oracle():
    g = Graph.empty(3)
    for a in (np.diag([0.0, 1.5e-6, 1.0]), np.diag([0.0, 0.6e-6, 1.0])):
        report = verify_smp(a, g)
        assert report.q_alternatives
        _assert_matches(report, dense_smp(a, g))


def _direct_sum(blocks, rng):
    """Block-diagonal matrix of ``blocks`` under a random vertex permutation."""
    n = sum(len(b) for b in blocks)
    out, start = np.zeros((n, n)), 0
    for b in blocks:
        out[start:start + len(b), start:start + len(b)] = b
        start += len(b)
    perm = rng.permutation(n)
    return out[np.ix_(perm, perm)]


def _support_graph(a) -> Graph:
    n = a.shape[0]
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if a[i, j]])


def _direct_sum_corpus():
    """Permuted block-diagonal (symmetric, square) pairs, n = 2..10, with
    1-3 components.  In half the cases every component has the eigenvalue
    c: a signed Laplacian shifted by c (symmetric) and a strictly upper
    integer block shifted by c (square), so the eigenvalue is exact.  Plus
    diagonal matrices (empty graph) and 10^+-6 rescalings."""
    rng = np.random.default_rng(33)
    out = []
    for case in range(36):
        n = 2 + case % 9
        k = min(n, 1 + case % 3)
        sizes = np.diff(np.r_[0, np.sort(rng.choice(np.arange(1, n), k - 1, replace=False)), n])
        c = float(rng.integers(-2, 3))
        sym_blocks, square_blocks = [], []
        for size in sizes:
            g = random_graph(rng, int(size))
            if case % 2:
                sym_blocks.append(random_in_graph_class(rng, g))
                square_blocks.append(random_square_with_zeros(rng, int(size)))
            else:
                adj = adjacency(g)
                sym_blocks.append(np.diag(adj.sum(axis=1)) - adj + c * np.eye(size))
                upper = np.triu(rng.integers(-2, 3, size=(size, size)), 1)
                square_blocks.append(upper + c * np.eye(size))
        seed = int(rng.integers(1 << 30))
        out.append((_direct_sum(sym_blocks, np.random.default_rng(seed)),
                    _direct_sum(square_blocks, np.random.default_rng(seed))))
        values = rng.integers(0, max(2, n // 2), size=n).astype(float)
        out.append((np.diag(values), np.diag(values)))
    # a gap of 1e-10 is a repeated eigenvalue under the threshold of the
    # whole system, though its 1 x 1 block is far from zero on its own
    for gap in (1e-10, 1e-5):
        values = np.arange(8.0)
        values[1] = values[0] + gap
        out.append((np.diag(values), np.diag(values)))
    # ambiguous eigenvalue clusterings: the SMP reports alternative q
    for values in ([0.0, 1.5e-6, 1.0], [0.0, 0.6e-6, 1.0]):
        out.append((np.diag(values), np.diag(values)))
    return out + [(c * a, c * sq) for a, sq in out[::3] for c in (1e-6, 1e6)]


@pytest.fixture(params=["default", "every-disconnected"])
def split_floor(request, monkeypatch):
    """The verifiers' split rule as shipped, and with every system of a
    disconnected matrix split, so small direct sums reach the block code."""
    if request.param == "every-disconnected":
        monkeypatch.setattr(verifiers, "SPLIT_MIN_WORK", 1)
    return request.param


@pytest.mark.parametrize("verifier,oracle", SYMMETRIC, ids=["ssp", "smp", "sap"])
def test_direct_sums_match_dense_oracle(verifier, oracle, split_floor):
    verdicts = set()
    for a, _ in _direct_sum_corpus():
        g = _support_graph(a)
        report = verifier(a, g)
        _assert_matches(report, oracle(a, g))
        assert report.holds or report.witness_residual <= 1e-8
        verdicts.add(report.holds)
    assert verdicts == {True, False}


def test_nssp_direct_sums_match_dense_oracle(split_floor):
    verdicts = set()
    for _, a in _direct_sum_corpus():
        report = verify_nssp(a)
        _assert_matches(report, dense_nssp(a))
        assert report.holds or report.witness_residual <= 1e-8
        verdicts.add(report.holds)
    assert verdicts == {True, False}

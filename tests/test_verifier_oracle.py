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
import scipy.linalg

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


def _assert_primal_matches(report, expected, residual=1e-8):
    """The oracle's primal decision, the duality identity and a witness with
    at most ``residual``, for inputs whose gaps sit near the threshold,
    where the oracle's unreduced dual (with a larger sigma_max) may count
    the span differently."""
    assert (report.holds, report.nullspace_dim) == (expected["holds"], expected["nullspace_dim"])
    assert report.ambient_dim - report.dual_span_dim == report.nullspace_dim
    assert report.q_used == expected.get("q_used")
    assert report.holds or report.witness_residual <= residual


@pytest.fixture
def kronecker_route(monkeypatch):
    """Records, per verification, [property, whether a small-space primal
    was offered, whether the Kronecker primal ran]."""
    routes = []
    original = verifiers._check_and_build

    def recording(name, n, cells, symmetric, dual, tol, residual_of, primal, kronecker, **kwargs):
        record = [name, False, False]
        routes.append(record)

        def offered(cut):
            route = primal(cut)
            record[1] = route is not None
            return route

        def ran(q):
            record[2] = True
            return kronecker(q)

        return original(name, n, cells, symmetric, dual, tol, residual_of, offered, ran, **kwargs)

    monkeypatch.setattr(verifiers, "_check_and_build", recording)
    return routes


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
def test_symmetric_properties_match_dense_oracle(verifier, oracle, kronecker_route):
    corpus = _symmetric_corpus()
    verdicts = set()
    for a, g in corpus:
        report = verifier(a, g)
        _assert_matches(report, oracle(a, g))
        verdicts.add(report.holds)
    assert verdicts == {True, False}
    # no gap sits near the cut: the small-space primal decides every time
    assert not any(kronecker for _, _, kronecker in kronecker_route)


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


def _laplacian(g: Graph) -> np.ndarray:
    adj = adjacency(g)
    return np.diag(adj.sum(axis=1)) - adj


def _complete_bipartite(p: int, q: int) -> Graph:
    return Graph.from_edges(p + q, [(i, p + j) for i in range(p) for j in range(q)])


def _repeated_eigenvalue_corpus():
    """Connected (matrix, graph) pairs whose eigenvalues repeat exactly:
    shifted and scaled Laplacians of cycles (eigenvalue pairs 2 - 2 cos(2 pi k / n))
    and of K_{p,q} (q repeated p - 1 times, p repeated q - 1 times)."""
    out = []
    for n in range(3, 9):
        g = Graph.cycle(n)
        for shift, scale in ((0.0, 1.0), (-1.5, -2.0), (0.25, 3.0)):
            out.append((scale * (_laplacian(g) + shift * np.eye(n)), g))
    for p, q in ((1, 3), (2, 2), (2, 3), (3, 3), (2, 4), (3, 4)):
        g = _complete_bipartite(p, q)
        for shift in (0.0, -1.0, 2.5):
            out.append((_laplacian(g) + shift * np.eye(p + q), g))
    return out


def _singular_corpus():
    """Connected symmetric (matrix, graph) pairs of nullity 1 to 3: a Laplacian
    (nullity 1), a generic matrix shifted by one of its eigenvalues (1), a
    cycle Laplacian shifted by a double eigenvalue (2), and K_{p,q}
    Laplacians shifted by the eigenvalue q of multiplicity p - 1 (1 to 3)."""
    rng = np.random.default_rng(34)
    out = []
    for n in range(3, 9):
        g = Graph.path(n)
        out.append((_laplacian(g), g))
        a = random_in_graph_class(rng, g)
        out.append((a - np.linalg.eigvalsh(a)[n // 2] * np.eye(n), g))
        if n > 3:
            c = Graph.cycle(n)
            out.append((_laplacian(c) - (2.0 - 2.0 * np.cos(2.0 * np.pi / n)) * np.eye(n), c))
    for p, q in ((2, 3), (3, 2), (4, 2), (3, 4), (4, 3)):
        out.append((_laplacian(_complete_bipartite(p, q)) - q * np.eye(p + q),
                    _complete_bipartite(p, q)))
    return out


@pytest.mark.parametrize("verifier,oracle", SYMMETRIC, ids=["ssp", "smp", "sap"])
def test_exactly_repeated_eigenvalues_match_dense_oracle(verifier, oracle, kronecker_route):
    verdicts = set()
    for a, g in _repeated_eigenvalue_corpus():
        report = verifier(a, g)
        _assert_matches(report, oracle(a, g))
        assert report.holds or report.witness_residual <= 1e-8
        verdicts.add(report.holds)
    # a nonsingular matrix has the SAP
    assert verdicts == ({True} if verifier is verify_sap else {True, False})
    assert not any(kronecker for _, _, kronecker in kronecker_route)


def test_singular_sap_matches_dense_oracle(kronecker_route):
    nullities, verdicts = set(), set()
    for a, g in _singular_corpus():
        lam = np.abs(np.linalg.eigvalsh(a))
        nullities.add(int(np.sum(lam <= 1e-8 * lam.max())))
        report = verify_sap(a, g)
        _assert_matches(report, dense_sap(a, g))
        assert report.holds or report.witness_residual <= 1e-8
        verdicts.add(report.holds)
    assert nullities == {1, 2, 3}
    assert verdicts == {True, False}
    assert not any(kronecker for _, _, kronecker in kronecker_route)


def _nonderogatory_corpus(rng):
    """Square matrices with a cyclic vector: generic sparse ones and
    companion matrices of polynomials with repeated roots."""
    out = [random_square_with_zeros(rng, n) for n in range(2, 9)]
    for roots in ([1.0, 1.0, -2.0], [0.5, 0.5, 0.5, 3.0], [2.0, 2.0, -1.0, -1.0, 0.0]):
        coeffs = np.poly(roots)
        n = len(roots)
        companion = np.diag(np.ones(n - 1), -1)
        companion[:, -1] = -coeffs[1:][::-1]
        out.append(companion)
    return out


def _nilpotent_index_n_corpus(rng):
    """Strictly upper triangular integer matrices with a nonzero
    superdiagonal: one Jordan block at zero, nilpotent of index n."""
    out = []
    for n in range(2, 9):
        a = np.triu(rng.integers(-2, 3, size=(n, n)).astype(float), 2)
        a[np.arange(n - 1), np.arange(1, n)] = rng.choice([-2.0, -1.0, 1.0, 2.0], size=n - 1)
        out.append(a)
    return out


def _derogatory_corpus(rng):
    """Square matrices with a repeated eigenvalue of geometric multiplicity
    at least 2: diagonals, direct sums of nilpotent blocks, a permuted
    direct sum with a shared eigenvalue, and the zero matrix."""
    out = [np.diag([1.0, 1.0, 2.0]), np.diag([0.0, 3.0, 0.0, 3.0, -1.0]), np.zeros((4, 4))]
    for sizes in ((2, 2), (3, 2), (2, 3, 1)):
        blocks = [np.triu(rng.integers(-2, 3, size=(k, k)).astype(float), 1) + 1.5 * np.eye(k)
                  for k in sizes]
        out.append(_direct_sum(blocks, rng))
    return out


@pytest.fixture
def nssp_route(monkeypatch):
    """Sends every nSSP primal with a constrained cell to the polynomial
    basis first, and records whether each call found one (True) or broke
    down on a derogatory matrix (False)."""
    routes = []
    original = verifiers._polynomial_basis

    def recording(w, cut):
        basis = original(w, cut)
        routes.append(basis is not None)
        return basis

    monkeypatch.setattr(verifiers, "CENTRALIZER_MIN_WORK", 1)
    monkeypatch.setattr(verifiers, "_polynomial_basis", recording)
    return routes


@pytest.mark.parametrize("corpus,centralizer", [
    (_nonderogatory_corpus, True),
    (_nilpotent_index_n_corpus, True),
    (_derogatory_corpus, False),
], ids=["nonderogatory", "nilpotent-index-n", "derogatory"])
def test_nssp_routes_match_dense_oracle(corpus, centralizer, nssp_route, kronecker_route):
    for a in corpus(np.random.default_rng(35)):
        nssp_route.clear()
        kronecker_route.clear()
        report = verify_nssp(a)
        assert nssp_route == [centralizer]
        assert kronecker_route == [["nssp", centralizer, not centralizer]]
        _assert_matches(report, dense_nssp(a))
        assert report.holds or report.witness_residual <= 1e-8


def test_nssp_default_floor_keeps_small_systems_on_kronecker(monkeypatch):
    sizes = []
    original = verifiers._polynomial_basis

    def recording(w, cut):
        sizes.append(len(w))
        return original(w, cut)

    monkeypatch.setattr(verifiers, "_polynomial_basis", recording)
    nilpotent = _nilpotent_index_n_corpus(np.random.default_rng(36))
    for a in (nilpotent[2], nilpotent[-1]):  # n = 4 and n = 8
        assert not verify_nssp(a).holds
    assert sizes == [8]


GAPS = (1e-4, 1e-6, 1e-7, 1e-8, 3e-9, 1e-9, 1e-10, 1e-12, 0.0)


def _shifted_path(rng, n: int, eigenvalue: float) -> np.ndarray:
    """Random matrix in S(P_n) shifted so that its smallest eigenvalue is
    ``eigenvalue``."""
    a = random_in_graph_class(rng, Graph.path(n))
    return a + (eigenvalue - np.linalg.eigvalsh(a)[0]) * np.eye(n)


def _gap_pairs(rng, gap: float):
    """(symmetric, square) pairs with two eigenvalues ``gap`` apart, one in
    each of two components (paths and single Jordan-type upper blocks, one
    of them shifted by the gap): as a permuted direct sum, and connected by
    a plane rotation between the components, which keeps the spectrum."""
    sizes = rng.integers(2, 5, size=2)
    sym = scipy.linalg.block_diag(_shifted_path(rng, sizes[0], 0.0),
                                  _shifted_path(rng, sizes[1], gap))
    blocks = []
    for k, shift in zip(sizes, (0.0, gap)):
        block = np.triu(rng.integers(-2, 3, size=(k, k)).astype(float), 1) + shift * np.eye(k)
        block[np.arange(k - 1), np.arange(1, k)] = 1.0
        blocks.append(block)
    square = scipy.linalg.block_diag(*blocks)
    n = len(square)
    rotation = np.eye(n)
    c, s = np.cos(0.7), np.sin(0.7)
    rotation[np.ix_([0, n - 1], [0, n - 1])] = [[c, -s], [s, c]]
    joined = rotation @ sym @ rotation.T
    perm = rng.permutation(n)
    return [(sym[np.ix_(perm, perm)], square[np.ix_(perm, perm)]),
            ((joined + joined.T) / 2.0, rotation @ square @ rotation.T)]


@pytest.mark.parametrize("gap", GAPS)
def test_near_common_eigenvalue_sweep_matches_dense_oracle(gap, nssp_route):
    rng = np.random.default_rng(37)
    for _ in range(8):
        for sym, square in _gap_pairs(rng, gap):
            g = _support_graph(sym)
            reports = [(verifier(sym, g), oracle(sym, g)) for verifier, oracle in SYMMETRIC]
            reports.append((verify_nssp(square), dense_nssp(square)))
            for report, expected in reports:
                _assert_primal_matches(report, expected)


def _complete_block(rng, eigenvalues) -> np.ndarray:
    """Q diag(eigenvalues) Q^T for a random orthogonal Q: a matrix of S(K_p)."""
    q, _ = np.linalg.qr(rng.normal(size=(len(eigenvalues), len(eigenvalues))))
    b = q @ np.diag(eigenvalues) @ q.T
    return (b + b.T) / 2.0


@pytest.mark.parametrize("delta", [1.2e-8, 1.5e-8, 1.8e-8])
def test_gap_just_above_the_dual_resolution(delta, kronecker_route):
    # B in S(K3) with eigenvalues -1, 0, 1 plus an isolated vertex at delta:
    # the coupling of 0 and delta lies on non-edges, and its singular value
    # delta clears the dual's cut rank_tol * (1 + delta) (in A's units),
    # though delta is under rank_tol * (lambda_max - lambda_min)
    b = _complete_block(np.random.default_rng(38), [-1.0, 0.0, 1.0])
    a = scipy.linalg.block_diag(b, [[delta]])
    g = _support_graph(a)
    for verifier, oracle in SYMMETRIC:
        report = verifier(a, g)
        _assert_primal_matches(report, oracle(a, g))
        assert report.holds
    assert kronecker_route == [[name, True, False] for name in ("ssp", "smp", "sap")]


@pytest.mark.parametrize("factor", [0.6, 0.8])
def test_chained_cluster_is_decided_by_the_kronecker_primal(factor, kronecker_route):
    # eigenvalues 0, f c and 2 f c in three components, c = 1e-8 about the
    # dual's cut: the consecutive gaps chain into one cluster, while the
    # outer pair's gap 2 f c is above the cut, so the commutant reads one
    # null coupling more than the dual and the Kronecker primal decides
    b = _complete_block(np.random.default_rng(39), [-1.0, 0.0, 1.0])
    a = scipy.linalg.block_diag(b, [[factor * 1e-8]], [[2.0 * factor * 1e-8]])
    g = _support_graph(a)
    for verifier, oracle in SYMMETRIC:
        report = verifier(a, g)
        _assert_primal_matches(report, oracle(a, g))
        assert report.nullspace_dim == (1 if verifier is verify_sap else 2)
    assert [record[2] for record in kronecker_route[:2]] == [True, True]


def _interior_gap_pairs(rng, factor: float):
    """(symmetric, square) pairs: a complete component whose spectrum spans
    [-1, 1] around an interior eigenvalue mu (0 in half the cases, for the
    SAP), and a component (a vertex or an edge) with the eigenvalue
    mu + factor * rank_tol * 2, so the gap sits at ``factor`` times
    rank_tol * (lambda_max - lambda_min).  The square one is S diag S^-1
    for a random S, with the same second component."""
    p = int(rng.integers(3, 6))
    lam = np.r_[-1.0, 1.0, rng.uniform(-0.8, 0.8, p - 2)]
    mu = lam[2] = 0.0 if rng.random() < 0.5 else lam[2]
    other = mu + factor * DEFAULT_TOL.rank_tol * 2.0
    if rng.random() < 0.5:
        second = np.array([[other]])
    else:
        second = np.diag(rng.uniform(-0.5, 0.5, 2)) + np.diag([rng.uniform(0.3, 1.0)], 1)
        second = second + second.T - np.diag(np.diag(second))
        second += (other - np.linalg.eigvalsh(second)[rng.integers(0, 2)]) * np.eye(2)
    s = rng.normal(size=(p, p))
    square = scipy.linalg.block_diag(s @ np.diag(lam) @ np.linalg.inv(s), second)
    perm = rng.permutation(p + len(second))
    sym = scipy.linalg.block_diag(_complete_block(rng, lam), second)
    return sym[np.ix_(perm, perm)], square[np.ix_(perm, perm)]


def test_interior_gap_sweep_at_the_resolution_matches_dense_oracle(nssp_route):
    rng = np.random.default_rng(40)
    verdicts = set()
    for factor in np.linspace(0.5, 2.0, 16):
        for _ in range(4):
            sym, square = _interior_gap_pairs(rng, factor)
            g = _support_graph(sym)
            reports = [(verifier(sym, g), oracle(sym, g)) for verifier, oracle in SYMMETRIC]
            reports.append((verify_nssp(square), dense_nssp(square)))
            for report, expected in reports:
                # a witness's residual is its singular value, which may reach
                # the cut rank_tol * sigma_max <= 2 rank_tol at this gap
                _assert_primal_matches(report, expected, 2.0 * DEFAULT_TOL.rank_tol)
                verdicts.add((report.property_name, report.holds))
    assert verdicts == {(name, held) for name in ("ssp", "smp", "sap", "nssp")
                        for held in (True, False)}


@pytest.fixture
def dual_route(monkeypatch):
    """Tries the Gram route on every whole dual of two rows or more (its
    work floor at 0), and records, per verification, [property, the dual
    routes that gave a decision in order, whether a small-space primal
    handed its decision to the Kronecker primal]; the last route listed
    decided."""
    monkeypatch.setattr(verifiers, "GRAM_MIN_WORK", 0)
    routes = []
    original = verifiers._check_and_build

    def deciding(dual_name, route):
        def traced(*args):
            decided = route(*args)
            if decided is not None:
                routes[-1][1].append(dual_name)
            return decided

        return traced

    monkeypatch.setattr(verifiers, "_gram_dual", deciding("Gram", verifiers._gram_dual))
    monkeypatch.setattr(verifiers, "_dense_dual", deciding("dense", verifiers._dense_dual))

    def recording(name, n, cells, symmetric, duals, tol, residual_of, primal, kronecker, **kwargs):
        record, offered = [name, [], False], [False]
        routes.append(record)

        def small(cut):
            route = primal(cut)
            offered[0] = route is not None
            return route

        def handed(q):
            record[2] = record[2] or offered[0]
            return kronecker(q)

        return original(name, n, cells, symmetric, duals, tol, residual_of, small, handed,
                        **kwargs)

    monkeypatch.setattr(verifiers, "_check_and_build", recording)
    return routes


def _assert_dense_decides_where_needed(reports, dual_route):
    """The dense dual alone decided every failing verification and every one
    a small-space primal handed to the Kronecker primal (the Gram route gave
    no decision there); the Gram route decided at least one."""
    assert len(reports) == len(dual_route)
    for report, (_, decided_by, handed) in zip(reports, dual_route):
        if handed or not report.holds:
            assert decided_by == ["dense"]
    assert any(decided_by == ["Gram"] for _, decided_by, _ in dual_route)


@pytest.mark.parametrize("verifier,oracle", SYMMETRIC, ids=["ssp", "smp", "sap"])
def test_gram_route_matches_dense_oracle_on_symmetric_corpora(verifier, oracle, dual_route):
    reports = []
    for a, g in _symmetric_corpus() + _repeated_eigenvalue_corpus():
        reports.append(verifier(a, g))
        _assert_matches(reports[-1], oracle(a, g))
    _assert_dense_decides_where_needed(reports, dual_route)


def test_gram_route_matches_dense_oracle_on_square_and_singular_corpora(dual_route):
    reports = []
    for a in _square_corpus():
        reports.append(verify_nssp(a))
        _assert_matches(reports[-1], dense_nssp(a))
    for a, g in _singular_corpus():
        reports.append(verify_sap(a, g))
        _assert_matches(reports[-1], dense_sap(a, g))
    assert {report.holds for report in reports} == {True, False}
    _assert_dense_decides_where_needed(reports, dual_route)


def test_gram_route_interior_gap_sweep_matches_dense_oracle(nssp_route, dual_route):
    rng = np.random.default_rng(40)
    reports = []
    for factor in np.linspace(0.5, 2.0, 16):
        for _ in range(4):
            sym, square = _interior_gap_pairs(rng, factor)
            g = _support_graph(sym)
            pairs = [(verifier(sym, g), oracle(sym, g)) for verifier, oracle in SYMMETRIC]
            pairs.append((verify_nssp(square), dense_nssp(square)))
            for report, expected in pairs:
                _assert_primal_matches(report, expected, 2.0 * DEFAULT_TOL.rank_tol)
                reports.append(report)
    _assert_dense_decides_where_needed(reports, dual_route)


def test_gram_route_gap_just_above_the_dual_resolution(dual_route):
    # the B (+) [1.5e-8] reproducer: its margin is about 1.5e-8, under the
    # Gram route's gate, so the dense dual decides
    b = _complete_block(np.random.default_rng(38), [-1.0, 0.0, 1.0])
    a = scipy.linalg.block_diag(b, [[1.5e-8]])
    g = _support_graph(a)
    for verifier, oracle in SYMMETRIC:
        report = verifier(a, g)
        _assert_primal_matches(report, oracle(a, g))
        assert report.holds
    assert [decided_by for _, decided_by, _ in dual_route] == [["dense"]] * 3

import json
import sys
import weakref
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from strongprops import verifiers
from strongprops.errors import InputError, InternalCheckError, NotInClass
from strongprops.numerics import DEFAULT_TOL, fro
from strongprops.patterns import Graph, SignPattern, edge_span_basis
from strongprops.verifiers import (
    verify_nssp,
    verify_property,
    verify_sap,
    verify_smp,
    verify_ssp,
)

from test_verifier_oracle import _assert_matches, _support_graph, dense_ssp

from conftest import (
    adjacency,
    random_graph,
    random_in_graph_class,
    random_square_with_zeros,
)

ALL_SYMMETRIC = (verify_ssp, verify_smp, verify_sap)


class TestSSP:
    def test_complete_graph_trivial(self):
        rng = np.random.default_rng(20)
        for n in (2, 3, 5):
            g = Graph.complete(n)
            report = verify_ssp(random_in_graph_class(rng, g), g)
            assert report.holds
            assert report.nullspace_dim == 0
            assert np.isinf(report.smallest_structural_singular_value)

    def test_zero_matrix_empty_graph_fails(self):
        g = Graph.empty(2)
        report = verify_ssp(np.zeros((2, 2)), g)
        assert not report.holds
        # the only constrained direction is the off-diagonal pair
        expected = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0)
        assert np.allclose(np.abs(report.witness), expected)
        assert abs(fro(report.witness) - 1.0) <= 1e-12

    def test_path3_brute_force_oracle(self):
        # constrained subspace of P3 is 1-dimensional: span{(e02+e20)/sqrt 2};
        # its commutator with the adjacency is nonzero, so X = O is forced
        g = Graph.path(3)
        a = adjacency(g)
        basis = edge_span_basis(g.complement())
        assert basis.dim == 1
        x = basis.matrices[0]
        assert fro(a @ x - x @ a) > 0.5
        report = verify_ssp(a, g)
        assert report.holds and report.nullspace_dim == 0

    def test_rejects_matrix_outside_class(self):
        with pytest.raises(InputError, match="^matrix is not in the class of the given graph$") as error:
            verify_ssp(np.eye(3), Graph.path(3))
        assert isinstance(error.value, NotInClass)

    def test_rejects_size_mismatch(self):
        with pytest.raises(InputError):
            verify_ssp(np.zeros((2, 2)), Graph.path(3))


class TestSMP:
    def test_ssp_implies_smp(self, twisted_c4, c4):
        assert verify_ssp(twisted_c4, c4).holds
        assert verify_smp(twisted_c4, c4).holds

    def test_c4_adjacency_routes_agree(self, c4):
        # the verifier hard-errors on primal/dual disagreement, so a clean
        # return already certifies agreement
        report = verify_smp(adjacency(c4), c4)
        assert report.holds == report.dual_verdict
        assert report.q_used == 3

    def test_zero_matrix_empty_graph_fails(self):
        report = verify_smp(np.zeros((2, 2)), Graph.empty(2))
        assert not report.holds
        assert report.q_used == 1
        assert report.witness is not None

    def test_ambiguous_clustering_reports_alternatives(self):
        # one gap lands between the clustering threshold and twice the
        # threshold: both q candidates' verdicts are reported
        g = Graph.empty(3)
        a = np.diag([0.0, 1.5e-6, 1.0])
        report = verify_smp(a, g)
        assert report.q_used == 3
        alt_qs = [q for q, _ in report.q_alternatives]
        assert 2 in alt_qs


class TestSAP:
    def test_invertible_holds(self):
        g = Graph.path(3)
        a = adjacency(g) + np.diag([3.0, -4.0, 5.0])
        assert abs(np.linalg.det(a)) > 1.0
        assert verify_sap(a, g).holds

    def test_zero_matrix_fails(self):
        assert not verify_sap(np.zeros((2, 2)), Graph.empty(2)).holds

    def test_example15_sign_pattern_irrelevant_here(self, twisted_c4, c4):
        # SSP implies SAP
        assert verify_sap(twisted_c4, c4).holds


class TestNSSP:
    def test_full_matrix_holds(self):
        rng = np.random.default_rng(21)
        a = rng.normal(size=(3, 3))
        a[np.abs(a) < 0.1] = 0.5
        report = verify_nssp(a)
        assert report.holds
        assert np.isinf(report.smallest_structural_singular_value)

    def test_example15_holds(self, example15, example15_pattern):
        assert verify_nssp(example15).holds
        assert verify_nssp(example15, pattern=example15_pattern).holds

    def test_zero_matrix_fails(self):
        report = verify_nssp(np.zeros((2, 2)))
        assert not report.holds and report.witness is not None

    def test_jordan_block_hand_solved(self):
        # X supported on the zero cells of J2(0) with [A, X^T] = O is the
        # two-parameter family [[x, 0], [y, x]]: dimension 2, nSSP fails
        report = verify_nssp(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert not report.holds
        assert report.nullspace_dim == 2

    def test_pattern_membership_checked(self):
        p = SignPattern.from_rows([[1, 1], [1, 1]])
        with pytest.raises(
            InputError, match="^matrix is not in the class of the given sign pattern$"
        ) as error:
            verify_nssp(np.array([[1.0, -1.0], [1.0, 1.0]]), pattern=p)
        assert isinstance(error.value, NotInClass)


class TestCrossProperties:
    def _sym_corpus(self, count=40, max_n=5, seed=22):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(count):
            n = int(rng.integers(2, max_n + 1))
            g = random_graph(rng, n)
            out.append((random_in_graph_class(rng, g), g))
        return out

    def test_duality_and_implications(self):
        for a, g in self._sym_corpus():
            ssp = verify_ssp(a, g)
            smp = verify_smp(a, g)
            sap = verify_sap(a, g)
            for report in (ssp, smp, sap):
                assert report.holds == report.dual_verdict
                # nullspace and dual span measure the same subspace sum
                assert report.ambient_dim - report.dual_span_dim == report.nullspace_dim
            if ssp.holds:
                assert smp.holds
            if smp.holds:
                assert sap.holds

    def test_nssp_duality(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            a = random_square_with_zeros(rng, n)
            report = verify_nssp(a)
            assert report.holds == report.dual_verdict
            assert report.ambient_dim - report.dual_span_dim == report.nullspace_dim

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(24)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            g = random_graph(rng, n)
            a = random_in_graph_class(rng, g)
            perm = list(rng.permutation(n))
            p = np.zeros((n, n))
            for v, image in enumerate(perm):
                p[image, v] = 1.0
            g2 = g.permuted(perm)
            a2 = p @ a @ p.T
            assert verify_ssp(a, g).holds == verify_ssp(a2, g2).holds
            assert verify_smp(a, g).holds == verify_smp(a2, g2).holds
            assert verify_sap(a, g).holds == verify_sap(a2, g2).holds

    def test_scaling_invariance(self):
        rng = np.random.default_rng(25)
        for _ in range(8):
            n = int(rng.integers(2, 5))
            g = random_graph(rng, n)
            a = random_in_graph_class(rng, g)
            base = (
                verify_ssp(a, g).holds,
                verify_smp(a, g).holds,
                verify_sap(a, g).holds,
            )
            for c in (2.0, -3.0, 1e-6, 1e6):
                assert (
                    verify_ssp(c * a, g).holds,
                    verify_smp(c * a, g).holds,
                    verify_sap(c * a, g).holds,
                ) == base
        b = random_square_with_zeros(rng, 4)
        base = verify_nssp(b).holds
        for c in (2.0, -3.0, 1e-6, 1e6):
            assert verify_nssp(c * b).holds == base

    def test_witness_validity(self):
        # deliberately degenerate fixtures (failures are non-generic):
        # repeated diagonal on the empty graph kills the SSP; a doubled path
        # component with identical spectrum kills it with a cross-component
        # witness; a singular all-ones block plus an isolated vertex kills
        # the SAP.
        doubled_p2 = np.zeros((4, 4))
        doubled_p2[0, 1] = doubled_p2[1, 0] = 1.0
        doubled_p2[2, 3] = doubled_p2[3, 2] = 1.0
        union_p2 = Graph.from_edges(4, [(0, 1), (2, 3)])
        ones_block = np.zeros((3, 3))
        ones_block[:2, :2] = 1.0
        k2_plus_k1 = Graph.from_edges(3, [(0, 1)])
        fixtures = [
            (verify_ssp, np.zeros((2, 2)), Graph.empty(2)),
            (verify_sap, np.zeros((2, 2)), Graph.empty(2)),
            (verify_ssp, np.diag([1.0, 1.0]), Graph.empty(2)),
            (verify_smp, np.diag([2.0, 2.0, 5.0]), Graph.empty(3)),
            (verify_ssp, doubled_p2, union_p2),
            (verify_sap, ones_block, k2_plus_k1),
        ]
        equations = {
            "ssp": lambda m, x: m @ x - x @ m,
            "smp": lambda m, x: m @ x - x @ m,
            "sap": lambda m, x: m @ x,
        }
        for verifier, a, g in fixtures:
            report = verifier(a, g)
            assert not report.holds
            x = report.witness
            assert x is not None
            assert abs(fro(x) - 1.0) <= 1e-10
            # witness lives in the constrained subspace exactly
            assert np.max(np.abs(np.diag(x))) <= 1e-12
            for i, j in g.edges:
                assert abs(x[i, j]) <= 1e-12
            residual = fro(equations[report.property_name](a, x))
            assert residual <= 1e-8 * max(fro(a), 1.0) * fro(x)

    def test_dispatch(self, c4, twisted_c4):
        assert verify_property("ssp", twisted_c4, graph=c4).holds
        assert verify_property("nssp", np.eye(2) + 1.0).holds
        with pytest.raises(InputError):
            verify_property("xyz", twisted_c4, graph=c4)
        with pytest.raises(InputError):
            verify_property("ssp", twisted_c4)


@st.composite
def _integer_instances(draw):
    """Small integer matrices (exact failures are common), a symmetric one
    whose nonzero off-diagonal entries define its graph and a square one,
    plus a vertex permutation and a positive scale."""
    n = draw(st.integers(2, 7))
    entries = st.integers(-2, 2)
    sym = np.diag(draw(st.lists(entries, min_size=n, max_size=n))).astype(float)
    rows, cols = np.triu_indices(n, 1)
    sym[rows, cols] = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    sym[cols, rows] = sym[rows, cols]
    square = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n)), float)
    perm = draw(st.permutations(range(n)))
    scale = draw(st.sampled_from([1e-5, 0.3, 7.0, 1e5]))
    return sym, square.reshape(n, n), perm, scale


@settings(max_examples=40)
@given(_integer_instances())
def test_verdicts_invariant_under_permutation_and_scaling(instance):
    sym, square, perm, scale = instance
    n = sym.shape[0]
    p = np.zeros((n, n))
    p[perm, np.arange(n)] = 1.0
    g = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if sym[i, j]])
    moved_sym = scale * (p @ sym @ p.T)
    for verifier in ALL_SYMMETRIC:
        base = verifier(sym, g)
        moved = verifier(moved_sym, g.permuted(perm))
        assert (moved.holds, moved.nullspace_dim) == (base.holds, base.nullspace_dim)
    base = verify_nssp(square)
    moved = verify_nssp(scale * (p @ square @ p.T))
    assert (moved.holds, moved.nullspace_dim) == (base.holds, base.nullspace_dim)


@settings(max_examples=40)
@given(_integer_instances())
def test_nssp_verdict_invariant_under_transpose(instance):
    # X solves the nSSP system of A exactly when X^T solves that of A^T
    _, square, _, scale = instance
    base = verify_nssp(scale * square)
    moved = verify_nssp(scale * square.T)
    assert (moved.holds, moved.nullspace_dim) == (base.holds, base.nullspace_dim)


@pytest.fixture
def svd_calls(monkeypatch):
    """Shape and compute_uv of every np.linalg.svd call."""
    calls = []
    original = np.linalg.svd

    def recording(a, *args, **kwargs):
        calls.append((np.shape(a), kwargs.get("compute_uv", True)))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return calls


class TestDirectSum:
    def test_connected_holding_ssp_takes_two_values_only_svds(self, svd_calls):
        g = Graph.path(10)
        report = verify_ssp(random_in_graph_class(np.random.default_rng(40), g), g)
        assert report.holds
        # one per route, each on the whole system
        assert [uv for _, uv in svd_calls] == [False, False]
        assert all(len(shape) == 2 for shape, _ in svd_calls)

    def test_diagonal_nssp_factors_only_tiny_blocks(self, svd_calls):
        a = np.diag([1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0])
        report = verify_nssp(a)
        assert not report.holds and report.nullspace_dim == 2
        assert svd_calls
        # the diagonal cells form one block with no rows: nothing to factor
        assert all(min(shape[-2:]) == 0 or max(shape[-2:]) <= 2 for shape, _ in svd_calls)

    def test_tiny_non_edge_entry_keeps_components_joined(self, svd_calls, monkeypatch):
        # the class check accepts a 1e-13 entry on a non-edge, and the exact
        # support joins the two paths through it: splitting would drop it
        monkeypatch.setattr(verifiers, "SPLIT_MIN_WORK", 1)
        g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        a = adjacency(g) + np.diag([0.5, -1.0, 2.0, 0.5, -1.0, 2.0])
        verify_ssp(a, g)
        assert any(len(shape) == 3 for shape, _ in svd_calls)
        svd_calls.clear()
        a[0, 5] = a[5, 0] = 1e-13
        report = verify_ssp(a, g)
        assert all(len(shape) == 2 for shape, _ in svd_calls)
        _assert_matches(report, dense_ssp(a, g))

    def test_entry_moved_across_blocks_is_an_internal_error(self, monkeypatch):
        a = np.diag(np.arange(16.0))
        g = Graph.empty(16)
        assert verify_ssp(a, g).holds
        original = verifiers._kronecker_entries

        def corrupted(w, rows, prop):
            # each block of this dual is one skew pair: the next is another block
            k, col, value = original(w, rows, prop)
            col = col.copy()
            col[0] = (col[0] + 1) % (16 * 15 // 2)
            return k, col, value

        monkeypatch.setattr(verifiers, "_kronecker_entries", corrupted)
        with pytest.raises(InternalCheckError, match="outside the direct-sum blocks"):
            verify_ssp(a, g)

    @pytest.mark.parametrize("lower, row", [(0.0, 2), (1.0, 18)])
    def test_row_moved_across_blocks_of_a_kronecker_primal_is_an_internal_error(
            self, monkeypatch, lower, row):
        # W is derogatory, so the Kronecker primal decides.  On the diagonal
        # W, row (0, 2) holds W[0, 0] - W[2, 2] != 0 at the column of the
        # zero cell (2, 0), where [a = i]; on W = I + E_10, row (1, 2) holds
        # only W[1, 0] at that column, where [b = j] alone.  Moving the row's
        # label to the next row's puts that value outside its block.
        a = np.diag(np.r_[1.0, np.arange(1.0, 16.0)]) if not lower else np.eye(16)
        a[1, 0] = lower
        assert not verify_nssp(a).holds
        original = verifiers._transposed

        def moved(blocks):
            rows, cols = original(blocks)
            rows = rows.copy()
            rows[row] = rows[row + 1]
            return rows, cols

        monkeypatch.setattr(verifiers, "_transposed", moved)
        with pytest.raises(InternalCheckError, match="outside the direct-sum blocks"):
            verify_nssp(a)

    def test_failing_whole_kronecker_primal_is_factored_once(self, svd_calls):
        # the dual has found the null directions first, so the Kronecker
        # primal (16 x 12) takes one SVD, with vectors, and reads its rank
        # from that SVD's values
        report = verify_nssp(np.diag([1.0, 1.0, 2.0, 3.0]))
        assert not report.holds and report.nullspace_dim == 2
        assert [uv for shape, uv in svd_calls if shape == (16, 12)] == [True]

    def test_split_verification_builds_no_whole_system(self):
        # the largest array that a package frame holds, as a local or as a
        # return value, while a split diagonal verify_nssp at n = 24 runs:
        # its dual is 552 x 576 and its Kronecker primal 576 x 552
        n, largest = 24, [0]

        def tracer(frame, event, arg):
            if not frame.f_globals.get("__name__", "").startswith("strongprops."):
                return None
            held = [*frame.f_locals.values(), arg]
            largest[0] = max([largest[0]] + [x.size for x in held if isinstance(x, np.ndarray)])
            return tracer

        a = np.diag(np.r_[1.0, np.arange(1.0, n)])
        sys.settrace(tracer)
        try:
            report = verify_nssp(a)
        finally:
            sys.settrace(None)
        assert not report.holds and report.nullspace_dim == 2
        assert 0 < largest[0] < (n * n - n) * n * n // 10


@st.composite
def _integer_spectrum_blocks(draw):
    """c I + s L(K_{p,q}), a shifted multiple of a complete bipartite
    Laplacian in S(K_{p,q}), with its exact spectrum."""
    p, q = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    c, s = draw(st.integers(-4, 4)), draw(st.sampled_from([-2, -1, 1, 2]))
    n = p + q
    adj = np.zeros((n, n))
    adj[:p, p:] = adj[p:, :p] = 1.0
    block = c * np.eye(n) + s * (np.diag(adj.sum(axis=1)) - adj)
    # L(K_{p,q}) has eigenvalues 0, q (p-1 times), p (q-1 times) and p+q
    if q == 0:
        spectrum = {0}
    else:
        spectrum = {0, p + q} | ({q} if p > 1 else set()) | ({p} if q > 1 else set())
    return block, {c + s * v for v in spectrum}


@settings(max_examples=40)
@given(_integer_spectrum_blocks(), _integer_spectrum_blocks())
def test_direct_sum_has_ssp_iff_spectra_are_disjoint(first, second):
    # Barrett et al. (2017): for A in S(G) and B in S(H) with the SSP,
    # A (+) B has the SSP exactly when sigma(A) and sigma(B) are disjoint
    (a, spec_a), (b, spec_b) = first, second
    assume(verify_ssp(a, _support_graph(a)).holds and verify_ssp(b, _support_graph(b)).holds)
    n = len(a) + len(b)
    total = np.zeros((n, n))
    total[:len(a), :len(a)], total[len(a):, len(a):] = a, b
    for floor in (verifiers.SPLIT_MIN_WORK, 1):
        with patch.object(verifiers, "SPLIT_MIN_WORK", floor):
            holds = verify_ssp(total, _support_graph(total)).holds
        assert holds == spec_a.isdisjoint(spec_b)


def _elementwise_blocks(w, rows, cols):
    """Reference slices of D = W (x) I and C = W (x) I - I (x) W^T, one
    product per entry."""
    a, b = rows[0][:, None], rows[1][:, None]
    i, j = cols[0][None, :], cols[1][None, :]
    left = w[a, i] * (b == j)
    return left, left - (a == i) * w[j, b]


def test_kronecker_blocks_keep_the_signed_zeros_of_their_products():
    # the blocks assemble only the Kronecker primals, whose SVDs give the
    # witnesses of failing verifications; their Householder steps read the
    # sign of a zero pivot, so the bits must not move
    rng = np.random.default_rng(41)
    for n in (1, 2, 5, 7):
        w = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.6)
        w[rng.random((n, n)) < 0.2] = -0.0
        zero, upper = np.nonzero(w == 0), np.triu_indices(n, 1)
        every = np.divmod(np.arange(n * n), n)
        for rows, cols in ((zero, every), (every, zero[::-1]), (zero, upper), (upper, upper[::-1])):
            left, commutator = _elementwise_blocks(w, rows, cols)
            assert verifiers._left_block(w, rows, cols).tobytes() == left.tobytes()
            assert verifiers._commutator_block(w, rows, cols).tobytes() == commutator.tobytes()
            # the batched form, as a split primal's stacks evaluate it
            stacked = [r[None, :, None] for r in rows], [c[None, None, :] for c in cols]
            assert verifiers._left_block(w, *stacked)[0].tobytes() == left.tobytes()
            assert verifiers._commutator_block(w, *stacked)[0].tobytes() == commutator.tobytes()


def test_split_stacks_are_the_blocks_of_the_dense_systems(monkeypatch):
    # with every system split (SPLIT_MIN_WORK = 1) and the Kronecker primal
    # deciding (each small primal has a zero column too many, the nSSP's is
    # skipped), each stack read from the dual's entries or from a Kronecker
    # primal's formula is, bit for bit, the stack gathered from the dense
    # whole system that an unsplit run factors, -0.0 included
    from strongprops import numerics

    spectra, congruence = numerics._direct_sum_spectra, verifiers._congruence_system
    split, whole = [], {"rank": [], "nullspace": []}

    def recording(a, blocks):
        groups = spectra(a, blocks)
        split.append((blocks, [stack.tobytes() for stack, _, _ in groups]))
        return groups

    def dense(name, function):
        def recorded(a, tol, blocks=None, *args, **kwargs):
            if blocks is None:
                whole[name].append(a)
            return function(a, tol, blocks, *args, **kwargs)
        return recorded

    def with_zero_column(*args):
        system, diagonal, to_matrix = congruence(*args)
        return np.hstack([system, np.zeros((len(system), 1))]), np.append(diagonal, -1), to_matrix

    monkeypatch.setattr(numerics, "_direct_sum_spectra", recording)
    monkeypatch.setattr(verifiers, "rank", dense("rank", verifiers.rank))
    monkeypatch.setattr(verifiers, "svd_nullspace", dense("nullspace", verifiers.svd_nullspace))
    monkeypatch.setattr(verifiers, "_congruence_system", with_zero_column)
    monkeypatch.setattr(verifiers, "_polynomial_basis", lambda *args: None)
    rng = np.random.default_rng(49)
    g = Graph.from_edges(7, [(0, 1), (1, 2), (3, 4), (5, 6)])
    sym = random_in_graph_class(rng, g)
    square = rng.normal(size=(7, 7)) * (sym != 0)
    sym[sym == 0], square[square == 0] = -0.0, -0.0
    calls = [lambda verify=verify: verify(sym, g) for verify in ALL_SYMMETRIC]
    calls.append(lambda: verify_nssp(square))
    negative = 0
    for call in calls:
        monkeypatch.setattr(verifiers, "SPLIT_MIN_WORK", 10**18)
        call()
        (dual,), primal = whole["rank"], whole["nullspace"][-1]
        monkeypatch.setattr(verifiers, "SPLIT_MIN_WORK", 1)
        split.clear()
        call()
        [(dual_blocks, dual_stacks), (primal_blocks, primal_stacks)] = split
        assert dual_stacks == [stack.tobytes() for stack, _, _ in spectra(dual, dual_blocks)]
        assert primal_stacks == [stack.tobytes() for stack, _, _ in spectra(primal, primal_blocks)]
        assert len(dual_stacks) > 1 and len(primal_stacks) > 1
        negative += _negative_zeros(primal)
        whole["rank"].clear()
        whole["nullspace"].clear()
    assert negative


def _negative_zeros(values) -> int:
    return int(np.count_nonzero((values == 0) & np.signbit(values)))


def _reference_dual(prop, w, cells):
    """The eliminated dual of ``prop`` on ``cells`` from the elementwise
    blocks; for the SAP without the dual's factor sqrt 2."""
    n = w.shape[0]
    if prop in ("ssp", "smp"):
        upper = np.triu_indices(n, 1)
        return (_elementwise_blocks(w, cells, upper)[1]
                - _elementwise_blocks(w, cells, upper[::-1])[1])
    every = np.divmod(np.arange(n * n), n)
    if prop == "sap":
        return (_elementwise_blocks(w, cells, every)[0]
                + _elementwise_blocks(w, cells[::-1], every)[0])
    return _elementwise_blocks(w, cells, every)[1]


def _signed_inputs(rng, n):
    """A matrix in S(G) and a square matrix in the class of a sign pattern,
    both with negative entries, -0.0 on their non-edges or zero cells, and
    1e-13, which the class checks accept, on one of them (mirrored for the
    symmetric one)."""
    g = random_graph(rng, n)
    sym, cells = random_in_graph_class(rng, g), g._non_edges
    assert len(cells[0]) >= 2
    for value, part in ((1e-13, slice(None, 1)), (-0.0, slice(1, None))):
        rows, cols = cells[0][part], cells[1][part]
        sym[rows, cols] = sym[cols, rows] = value
    square = random_square_with_zeros(rng, n)
    pattern = SignPattern.from_matrix(square)
    zero = np.nonzero(square == 0)
    square[zero] = -0.0
    square[zero[0][0], zero[1][0]] = 1e-13
    return g, sym, pattern, square


def test_dual_assembler_matches_the_elementwise_blocks(monkeypatch):
    # the dense and the CSR form of each dual the verifiers assemble, on
    # inputs whose elementwise blocks hold -0.0, and the charts' step
    # matrices, which are the same duals at -N or N, on the equation and
    # the free cells of all five kinds
    from strongprops import bifurcation

    recorded = []
    original = verifiers._dense_dual

    def recording(entries, shape, *args):
        recorded.append((entries, shape))
        return original(entries, shape, *args)

    monkeypatch.setattr(verifiers, "_dense_dual", recording)
    rng = np.random.default_rng(47)
    for n in (5, 6, 8):
        g, sym, pattern, square = _signed_inputs(rng, n)
        w = verifiers._prepare_symmetric(sym, g, DEFAULT_TOL)[1]
        cases = [(prop, lambda verifier=verifier: verifier(sym, g), w, g._non_edges)
                 for prop, verifier in zip(("ssp", "smp", "sap"), ALL_SYMMETRIC)]
        cases.append(("nssp", lambda: verify_nssp(square, pattern=pattern), square / fro(square),
                      np.nonzero(pattern.as_array() == 0)))
        for prop, verify, w, cells in cases:
            recorded.clear()
            verify()
            [(entries, shape)] = recorded
            reference = _reference_dual(prop, w, cells)
            assert _negative_zeros(reference)
            dense, sparse = verifiers._dense(entries, shape), verifiers._sparse(entries, shape)
            assert np.array_equal(dense, reference)
            assert np.array_equal(sparse.toarray(), reference)
            assert not _negative_zeros(dense) and not _negative_zeros(sparse.data)

        maps = [bifurcation.ssp_map(sym, g), bifurcation.smp_map(sym, g),
                bifurcation.sap_map(sym, g), bifurcation.similarity_map(square, pattern),
                bifurcation.superpattern_map(square, pattern, pattern)]
        for pmap in maps:
            # after a step N is nonzero on the residual cells
            chart = bifurcation.LocalChart(pmap, pmap.base)
            chart = chart.moved(0.05 * rng.normal(size=chart.step_matrix().shape[1]))
            assert chart.residual().all()
            prop = "nssp" if pmap.kind.startswith("nssp") else pmap.kind
            point = -chart.point if pmap.kind in ("ssp", "smp", "nssp_similar") else chart.point
            for cells in (chart.cells, chart.free):
                reference = _reference_dual(prop, point, cells)
                step = chart.step_matrix(cells)[:, :reference.shape[1]]
                assert np.array_equal(step, reference) and not _negative_zeros(step)


def test_no_dense_dual_is_alive_while_a_primal_is_factored(monkeypatch):
    # the dense dual is the largest matrix of a verification: it is dropped
    # before any primal is factored, on whole and split duals, with and
    # without the SMP's trace columns, on holding and failing inputs, and
    # where the Gram route hands over to it
    duals, alive = [], []
    dense, primal_nullspace = verifiers._dense, verifiers._primal_nullspace

    def recording(entries, shape):
        dual = dense(entries, shape)
        duals.append(weakref.ref(dual))
        return dual

    def checking(*args):
        alive.extend(ref for ref in duals if ref() is not None)
        return primal_nullspace(*args)

    monkeypatch.setattr(verifiers, "_dense", recording)
    monkeypatch.setattr(verifiers, "_primal_nullspace", checking)
    rng = np.random.default_rng(48)
    path = Graph.path(16)
    split = Graph.from_edges(16, [(i, i + 1) for i in range(15) if i != 7])
    inputs = [(random_in_graph_class(rng, g), g) for g in (path, split, Graph.cycle(8))]
    inputs.append((adjacency(Graph.cycle(8)), Graph.cycle(8)))  # fails the SSP
    square = random_square_with_zeros(rng, 8)
    for floor in (verifiers.GRAM_MIN_WORK, 0):
        monkeypatch.setattr(verifiers, "GRAM_MIN_WORK", floor)
        reports = [verifier(a, g) for a, g in inputs for verifier in ALL_SYMMETRIC]
        reports += [verify_nssp(square), verify_nssp(np.array([[0.0, 1.0], [0.0, 0.0]]))]
        assert {report.holds for report in reports} == {True, False}
    assert duals and alive == []


DECISION_FIELDS = ("holds", "nullspace_dim", "dual_span_dim", "dual_verdict", "q_used", "q_alternatives")


@st.composite
def _mixed_instances(draw):
    """A symmetric matrix, whose nonzero off-diagonal entries define its
    graph, and a square one, n <= 10, with entries from a few integers
    (exact failures are common) and reals away from zero, plus a vertex
    permutation and a scale 10^+-6."""
    n = draw(st.integers(2, 10))
    entries = st.one_of(st.integers(-2, 2).map(float), st.floats(0.25, 4.0), st.floats(-4.0, -0.25))
    sym = np.diag(draw(st.lists(entries, min_size=n, max_size=n)))
    rows, cols = np.triu_indices(n, 1)
    sym[rows, cols] = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    sym[cols, rows] = sym[rows, cols]
    square = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n)))
    perm = draw(st.permutations(range(n)))
    return sym, square.reshape(n, n), perm, draw(st.sampled_from([1e-6, 1e6]))


@settings(max_examples=12)
@given(_mixed_instances())
def test_gram_route_decisions_and_margins_invariant_under_permutation_and_scaling(instance):
    sym, square, perm, scale = instance
    n = sym.shape[0]
    p = np.zeros((n, n))
    p[perm, np.arange(n)] = 1.0
    g = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if sym[i, j]])
    moved_sym = scale * (p @ sym @ p.T)
    with patch.object(verifiers, "GRAM_MIN_WORK", 0):
        pairs = [(verifier(sym, g), verifier(moved_sym, g.permuted(perm)))
                 for verifier in ALL_SYMMETRIC]
        pairs.append((verify_nssp(square), verify_nssp(scale * (p @ square @ p.T))))
    for base, moved in pairs:
        decisions = [(getattr(base, f), getattr(moved, f)) for f in DECISION_FIELDS]
        assert all(before == after for before, after in decisions)
        if base.holds:
            margin = base.smallest_structural_singular_value
            assert moved.smallest_structural_singular_value == pytest.approx(margin, rel=1e-9)


class TestGramRoute:
    @pytest.fixture
    def gram_decisions(self, monkeypatch):
        """Whether each Gram route run decided."""
        decided = []
        original = verifiers._gram_dual

        def recording(sparse, trailing, scale):
            out = original(sparse, trailing, scale)
            decided.append(out is not None)
            return out

        monkeypatch.setattr(verifiers, "_gram_dual", recording)
        return decided

    def test_verifications_at_n32_are_deterministic(self, gram_decisions):
        rng = np.random.default_rng(44)
        path = Graph.path(32)
        a = random_in_graph_class(rng, path)
        square = rng.normal(size=(32, 32)) * (rng.random((32, 32)) < 0.5)
        np.fill_diagonal(square, 1.0 + rng.random(32))
        calls = [lambda: verify_ssp(a, path), lambda: verify_smp(a, path),
                 lambda: verify_sap(a, path), lambda: verify_nssp(square)]
        outputs = []
        for seed in (1, 2):
            np.random.seed(seed)  # the global generator must not reach the margins
            outputs.append([json.dumps(call().as_dict(), sort_keys=True) for call in calls])
        assert outputs[0] == outputs[1]
        assert gram_decisions == [True] * 8

    def test_lanczos_failure_leaves_the_decision_to_the_dense_route(self, gram_decisions,
                                                                     monkeypatch):
        import scipy.sparse.linalg

        def failing(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

        g = Graph.path(8)
        a = random_in_graph_class(np.random.default_rng(46), g)
        dense = verify_sap(a, g).as_dict()
        monkeypatch.setattr(verifiers, "GRAM_MIN_WORK", 0)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failing)
        assert verify_sap(a, g).as_dict() == dense
        assert gram_decisions == [False]

    def test_failing_input_is_rejected_before_lanczos(self, gram_decisions, monkeypatch):
        # the adjacency matrix of C8 fails the SSP; its Gram matrix factors,
        # with a smallest pivot squared near 1e-16 of its largest diagonal
        # entry, so the route gives no decision without running Lanczos
        import scipy.sparse.linalg

        def unexpected(*args, **kwargs):
            raise AssertionError("Lanczos ran")

        monkeypatch.setattr(verifiers, "GRAM_MIN_WORK", 0)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", unexpected)
        g = Graph.cycle(8)
        report = verify_ssp(adjacency(g), g)
        assert not report.holds and report.nullspace_dim == 3
        assert gram_decisions == [False]

    def test_margin_under_the_gate_is_rejected_after_one_lanczos_run(self, gram_decisions,
                                                                     monkeypatch):
        # C8 with one edge weight moved by 3e-6 has the SSP with a margin
        # near 4e-7, under the gate: the sigma_m run rejects it, without the
        # sigma_max run, and the dense route decides
        import scipy.sparse.linalg

        runs, eigsh = [], scipy.sparse.linalg.eigsh

        def counting(*args, **kwargs):
            runs.append(args[0])
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(verifiers, "GRAM_MIN_WORK", 0)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting)
        g = Graph.cycle(8)
        a = adjacency(g)
        a[0, 1] = a[1, 0] = 1.0 + 3e-6
        report = verify_ssp(a, g)
        assert report.holds and report.smallest_structural_singular_value < 1e-6
        assert len(runs) == 1 and gram_decisions == [False]

    def test_disagreement_names_the_primal_and_every_dual_route(self, gram_decisions, monkeypatch):
        # both primals assembled with a zero column have a null vector that
        # neither dual route sees: the Gram route hands over to the dense one
        monkeypatch.setattr(verifiers, "GRAM_MIN_WORK", 0)
        commutant, kronecker = verifiers._commutant_system, verifiers._commutator_primal

        def zero_column(system):
            system = system.copy()
            system[:, 0] = 0.0
            return system

        def broken_commutant(*args):
            system, diagonal, to_matrix = commutant(*args)
            return zero_column(system), diagonal, to_matrix

        monkeypatch.setattr(verifiers, "_commutant_system", broken_commutant)
        monkeypatch.setattr(verifiers, "_commutator_primal",
                            lambda *args: zero_column(kronecker(*args)))
        g = Graph.path(6)
        with pytest.raises(InternalCheckError) as error:
            verify_ssp(random_in_graph_class(np.random.default_rng(45), g), g)
        assert str(error.value) == (
            "ssp: Kronecker primal verdict False (nullspace 1) disagrees with Gram dual verdict "
            "True (span 21/21); Kronecker primal verdict False (nullspace 1) disagrees with dense "
            "dual verdict True (span 21/21)"
        )
        assert gram_decisions == [True]

    def test_disagreement_with_a_broken_dense_dual_names_it(self, gram_decisions, monkeypatch):
        original = verifiers._dense

        def zero_row(entries, shape):
            dual = original(entries, shape).copy()
            dual[0] = 0.0
            return dual

        monkeypatch.setattr(verifiers, "_dense", zero_row)
        g = Graph.path(6)
        with pytest.raises(InternalCheckError) as error:
            verify_ssp(random_in_graph_class(np.random.default_rng(45), g), g)
        assert str(error.value) == (
            "ssp: Kronecker primal verdict True (nullspace 0) disagrees with dense dual verdict "
            "False (span 20/21)"
        )
        assert gram_decisions == []


def _arnoldi_loop(w, cut):
    """_polynomial_basis without its shortcut for a diagonal W with a
    repeated value: the Arnoldi loop alone, the reference."""
    n = w.shape[0]
    basis = np.empty((n, n * n))
    basis[0] = np.eye(n).reshape(-1) / np.sqrt(n)
    for k in range(1, n):
        v = (w @ basis[k - 1].reshape(n, n)).reshape(-1)
        for _ in range(2):
            v -= basis[:k].T @ (basis[:k] @ v)
        height = float(np.sqrt(v @ v))
        if height <= cut:
            return None
        basis[k] = v / height
    return basis.reshape(n, n, n)


def test_polynomial_basis_shortcut_matches_the_arnoldi_loop():
    # seeded diagonals, with and without a repeated value (among them +0.0
    # and -0.0 together), and near-diagonal inputs the shortcut must leave
    # to the loop, at cuts around rank_tol * sigma_max
    rng = np.random.default_rng(57)
    outcomes = set()
    for n in (1, 2, 3, 4, 8, 16, 32):
        for trial in range(12):
            d = rng.normal(size=n)
            if trial % 3 == 0 and n > 1:
                i, j = rng.choice(n, size=2, replace=False)
                d[i] = d[j]
            elif trial % 3 == 1 and n > 1:
                d = rng.integers(-2, 3, size=n).astype(float)
                d[d == 0] = rng.choice([0.0, -0.0], size=int(np.count_nonzero(d == 0)))
            w = np.diag(d)
            if trial % 4 == 3 and n > 1:
                w[0, n - 1] = 1e-3
            w = w / fro(w) if fro(w) > 0 else w
            for cut in (1e-8, 2e-8, 1e-12):
                new, old = verifiers._polynomial_basis(w, cut), _arnoldi_loop(w, cut)
                assert (new is None) == (old is None)
                if new is not None:
                    assert new.tobytes() == old.tobytes()
                outcomes.add(new is None)
    assert outcomes == {True, False}

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from strongprops.errors import InputError, ParseError
from strongprops.patterns import (
    Graph,
    OrderedMultiplicityList,
    SignPattern,
    cycle_spectrum_admissible,
    edge_span_basis,
    entry_zero_threshold,
    format_matrix,
    full_basis,
    graph_closure_basis,
    inertia,
    is_superpattern,
    matrix_in_graph_class,
    matrix_in_sign_class,
    ordered_multiplicity_list,
    parse_graph_text,
    parse_matrix_text,
    parse_sign_pattern_text,
    pin,
    refinement_blocks,
    refines,
    rin,
    sign_tangent_basis,
    skew_basis,
    symmetric_basis,
    symmetrize,
)

from conftest import adjacency, random_graph


class TestGraph:
    def test_constructors(self):
        g = Graph.path(4)
        assert g.num_edges == 3 and g.has_edge(2, 3)
        assert Graph.cycle(5).num_edges == 5
        assert Graph.complete(4).num_edges == 6
        assert Graph.empty(3).num_edges == 0

    def test_validation(self):
        with pytest.raises(InputError):
            Graph.from_edges(3, [(0, 0)])
        with pytest.raises(InputError):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(InputError):
            Graph.cycle(2)

    def test_complement(self):
        g = Graph.path(3)
        comp = g.complement()
        assert comp.edges == ((0, 2),)
        assert g.complement().complement().edges == g.edges

    def test_permuted(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert g.permuted([2, 0, 1]).edges == ((0, 2),)


class TestSignPattern:
    def test_from_text(self):
        p = SignPattern.from_text_lines([(1, "+0"), (2, "0-")])
        assert p.sign_at(0, 0) == 1 and p.sign_at(1, 1) == -1
        assert p.zero_cells() == [(0, 1), (1, 0)]
        assert p.to_lines() == ["+0", "0-"]

    def test_from_matrix(self, example15, example15_pattern):
        assert SignPattern.from_matrix(example15).cells == example15_pattern.cells
        assert example15_pattern.is_full

    def test_bad_character(self):
        with pytest.raises(ParseError):
            SignPattern.from_text_lines([(1, "+x")])

    def test_not_square(self):
        with pytest.raises(ParseError):
            SignPattern.from_text_lines([(1, "+0"), (2, "0-"), (3, "++")])


class TestMembership:
    def test_graph_class_examples(self):
        p2 = Graph.from_edges(2, [(0, 1)])
        assert matrix_in_graph_class(np.array([[5.0, 1.0], [1.0, -2.0]]), p2)
        assert not matrix_in_graph_class(np.array([[5.0, 0.0], [0.0, -2.0]]), p2)
        c4 = Graph.cycle(4)
        assert matrix_in_graph_class(adjacency(c4), c4)

    def test_graph_class_permutation_equivariance(self):
        # relabeling the matrix and the graph together preserves membership
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            g = random_graph(rng, n)
            a = np.diag(rng.normal(size=n))
            for i, j in g.edges:
                a[i, j] = a[j, i] = rng.normal() + 2.0
            perm = list(rng.permutation(n))
            p = np.zeros((n, n))
            for v, image in enumerate(perm):
                p[image, v] = 1.0
            assert matrix_in_graph_class(a, g)
            assert matrix_in_graph_class(p @ a @ p.T, g.permuted(perm))

    def test_sign_class_examples(self, example15, example15_pattern):
        assert matrix_in_sign_class(example15, example15_pattern)
        plus = SignPattern.from_rows([[1, 0], [0, 1]])
        assert not matrix_in_sign_class(np.zeros((2, 2)), plus)
        assert matrix_in_sign_class(np.eye(2), plus)

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            matrix_in_graph_class(np.zeros((2, 2)), Graph.path(3))


class TestSuperpattern:
    def test_self(self):
        p = SignPattern.from_rows([[1, 0], [0, -1]])
        assert is_superpattern(p, p)

    def test_examples(self):
        p1 = SignPattern.from_rows([[1, 0], [0, -1]])
        p2 = SignPattern.from_rows([[1, 1], [0, -1]])
        p3 = SignPattern.from_rows([[-1, 1], [0, -1]])
        assert is_superpattern(p2, p1)
        assert not is_superpattern(p3, p1)
        assert not is_superpattern(p1, p2)


class TestSubspaceBases:
    def test_dimension_formulas(self):
        rng = np.random.default_rng(6)
        for n in range(1, 9):
            g = random_graph(rng, n)
            assert graph_closure_basis(g).dim == n + g.num_edges
            assert symmetric_basis(n).dim == n * (n + 1) // 2
            assert skew_basis(n).dim == n * (n - 1) // 2
            assert full_basis(n).dim == n * n
            assert edge_span_basis(g).dim == g.num_edges
            cells = [
                [int(rng.random() < 0.5) * (1 if rng.random() < 0.5 else -1) for _ in range(n)]
                for _ in range(n)
            ]
            p = SignPattern.from_rows(cells)
            assert sign_tangent_basis(p).dim == len(p.nonzero_cells())

    def test_examples(self):
        assert graph_closure_basis(Graph.from_edges(2, [(0, 1)])).dim == 3
        assert skew_basis(3).dim == 3
        p = SignPattern.from_rows([[-1, 1, -1], [-1, 1, -1], [-1, 1, -1]])
        assert sign_tangent_basis(p).dim == 9

    def test_orthonormality(self):
        rng = np.random.default_rng(7)
        for n in (2, 4, 6):
            g = random_graph(rng, n)
            for basis in (
                graph_closure_basis(g),
                symmetric_basis(n),
                skew_basis(n),
                full_basis(n),
            ):
                mats = basis.matrices
                gram = np.array(
                    [[float(np.sum(x * y)) for y in mats] for x in mats]
                )
                assert np.max(np.abs(gram - np.eye(len(mats)))) <= 1e-12

    def test_graph_closure_structural_zeros(self):
        rng = np.random.default_rng(8)
        g = random_graph(rng, 6)
        comp = set(g.complement().edges)
        for b in graph_closure_basis(g).matrices:
            for i, j in comp:
                assert b[i, j] == 0.0 and b[j, i] == 0.0

    def test_edge_span_is_hollow(self):
        g = Graph.path(4)
        for b in edge_span_basis(g.complement()).matrices:
            assert np.all(np.diag(b) == 0.0)
            assert np.allclose(b, b.T)


class TestMultiplicityLists:
    def test_examples(self):
        assert tuple(ordered_multiplicity_list([1.0, 1.0, 2.0])) == (2, 1)
        assert tuple(ordered_multiplicity_list([-2.0, 0.0, 0.0, 2.0])) == (1, 2, 1)
        assert tuple(ordered_multiplicity_list([0.0, 0.0, 0.0])) == (3,)

    def test_sum_invariant(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            vals = np.sort(rng.normal(size=rng.integers(1, 9)))
            assert ordered_multiplicity_list(vals).total == len(vals)

    def test_scaling_stability(self):
        vals = np.array([-2.0, 0.0, 0.0, 2.0])
        for c in (1.0, 10.0, 1e3):
            assert tuple(ordered_multiplicity_list(c * vals)) == (1, 2, 1)

    def test_requires_sorted(self):
        with pytest.raises(InputError):
            ordered_multiplicity_list([1.0, 0.0])

    def test_refinement_blocks(self):
        coarse = OrderedMultiplicityList((2, 2))
        assert refinement_blocks(OrderedMultiplicityList((1, 1, 2)), coarse) == [
            (1, 1),
            (2,),
        ]
        assert refinement_blocks(OrderedMultiplicityList((2, 1, 1)), coarse) == [
            (2,),
            (1, 1),
        ]
        # (1,2,1) does not refine (2,2): the blocks would have to split 1+2
        assert refinement_blocks(OrderedMultiplicityList((1, 2, 1)), coarse) is None
        assert refines(coarse, coarse)

    def test_refinement_enumeration_oracle(self):
        # brute force: all compositions of each entry, concatenated
        def compositions(m):
            if m == 0:
                return [()]
            return [
                (first,) + rest
                for first in range(1, m + 1)
                for rest in compositions(m - first)
            ]

        coarse = OrderedMultiplicityList((3, 2))
        fine_true = {
            tuple(x for block in combo for x in block)
            for combo in [
                (c3, c2) for c3 in compositions(3) for c2 in compositions(2)
            ]
        }
        from itertools import product

        everything = set()
        for length in range(1, 6):
            everything.update(product(range(1, 6), repeat=length))
        for candidate in everything:
            if sum(candidate) != 5:
                continue
            got = refines(OrderedMultiplicityList(candidate), coarse)
            assert got == (candidate in fine_true), candidate


class TestCycleAdmissible:
    def test_examples(self):
        assert cycle_spectrum_admissible([-2.0, 0.0, 0.0, 2.0])
        assert not cycle_spectrum_admissible([0.0, 0.0, 0.0])
        assert cycle_spectrum_admissible([1.0, 1.0, 2.0, 2.0])

    def test_too_short(self):
        with pytest.raises(InputError):
            cycle_spectrum_admissible([0.0, 1.0])

    def test_affine_invariance(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            n = int(rng.integers(3, 9))
            vals = np.sort(rng.normal(size=n))
            # plant some exact ties
            for idx in rng.integers(0, n - 1, size=rng.integers(0, 3)):
                vals[idx + 1] = vals[idx]
            vals = np.sort(vals)
            base = cycle_spectrum_admissible(vals)
            a, c = float(rng.uniform(0.1, 10.0)), float(rng.normal())
            assert cycle_spectrum_admissible(a * vals + c) == base

    def test_matches_refinement_characterization(self):
        # realizable lists are exactly the refinements of the two maximal
        # lists for each parity
        def maximal_lists(n):
            if n % 2 == 0:
                return [
                    OrderedMultiplicityList((2,) * (n // 2)),
                    OrderedMultiplicityList((1,) + (2,) * (n // 2 - 1) + (1,)),
                ]
            return [
                OrderedMultiplicityList((2,) * (n // 2) + (1,)),
                OrderedMultiplicityList((1,) + (2,) * (n // 2)),
            ]

        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(3, 9))
            # random multiplicity list summing to n
            entries = []
            left = n
            while left:
                m = int(rng.integers(1, min(left, 3) + 1))
                entries.append(m)
                left -= m
            mlist = OrderedMultiplicityList(tuple(entries))
            centers = np.cumsum(rng.uniform(0.5, 1.5, size=len(entries)))
            vals = np.concatenate(
                [np.full(m, c) for m, c in zip(entries, centers)]
            )
            expected = any(refines(mlist, mx) for mx in maximal_lists(n))
            assert cycle_spectrum_admissible(vals) == expected, (mlist, vals)


class TestInertias:
    def test_examples(self, example15):
        d = np.diag([1.0, -1.0, 0.0])
        assert pin(d) == (1, 1)
        assert inertia(d) == (1, 1, 1)
        assert rin(d) == (1, 1, 1, 0)
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert rin(rot) == (0, 0, 0, 2)
        assert rin(example15) == (0, 0, 3, 0)

    def test_components_sum(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            a = rng.normal(size=(n, n))
            assert sum(inertia(a)) == n
            r = rin(a)
            assert sum(r) == n
            assert r[3] % 2 == 0

    def test_pin_requires_symmetric(self):
        with pytest.raises(InputError):
            pin(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestFileFormats:
    def test_graph_roundtrip(self):
        g = parse_graph_text("4 3\n0 1\n1 2\n2 3\n")
        assert g.edges == Graph.path(4).edges

    def test_graph_isolated_vertices(self):
        g = parse_graph_text("3 0\n")
        assert g.n == 3 and g.num_edges == 0

    def test_graph_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="g.txt:1"):
            parse_graph_text("nonsense\n", source="g.txt")
        with pytest.raises(ParseError, match="g.txt:2"):
            parse_graph_text("2 1\n0 two\n", source="g.txt")
        with pytest.raises(ParseError, match="g.txt:2"):
            parse_graph_text("2 1\n0 5\n", source="g.txt")
        with pytest.raises(ParseError):
            parse_graph_text("2 2\n0 1\n", source="g.txt")

    def test_pattern_parse(self):
        p = parse_sign_pattern_text("+0-\n0+0\n-0+\n")
        assert p.sign_at(0, 2) == -1
        with pytest.raises(ParseError, match="p.txt:2"):
            parse_sign_pattern_text("+0\n0x\n", source="p.txt")

    def test_matrix_parse_errors(self):
        with pytest.raises(ParseError, match="m.txt:2"):
            parse_matrix_text("1 2\n3\n", source="m.txt")
        with pytest.raises(ParseError, match="m.txt:1"):
            parse_matrix_text("one two\n", source="m.txt")

    def test_matrix_roundtrip_exact(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(4, 5)) * np.exp(rng.uniform(-8, 8, size=(4, 5)))
        again = parse_matrix_text(format_matrix(a))
        assert np.array_equal(a, again)


# every finite double, with the edge cases drawn often: signed zeros,
# subnormals, the smallest normal and magnitudes near the top of the range
_DOUBLES = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=60)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_matrix_text_round_trips_bitwise(rows, cols, data):
    values = data.draw(st.lists(_DOUBLES, min_size=rows * cols, max_size=rows * cols))
    a = np.array(values).reshape(rows, cols)
    again = parse_matrix_text(format_matrix(a))
    assert again.shape == a.shape and again.tobytes() == a.tobytes()


@settings(max_examples=50)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.text("+-0", min_size=n, max_size=n), min_size=n, max_size=n)
))
def test_sign_pattern_text_round_trips(lines):
    p = SignPattern.from_text_lines(list(enumerate(lines, start=1)))
    assert p.to_lines() == lines
    assert SignPattern.from_text_lines(list(enumerate(p.to_lines(), start=1))) == p


@settings(max_examples=50)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    # (i, i + d mod n) with 0 < d < n is never a loop
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, max(n - 1, 1))).map(
        lambda e: (e[0], (e[0] + e[1]) % n)), max_size=12 if n > 1 else 0),
)))
def test_graph_text_round_trips(instance):
    n, edges = instance
    g = Graph.from_edges(n, edges)

    def text(pairs):
        return f"{n} {len(pairs)}\n" + "".join(f"{i} {j}\n" for i, j in pairs)

    # the graph's own text, and the drawn edges with repeats and either orientation
    assert parse_graph_text(text(g.edges)) == g
    assert parse_graph_text(text(edges)) == g


def _graph_class_loop(a, g) -> bool:
    """Entry-by-entry reference for matrix_in_graph_class."""
    a = symmetrize(a)
    thr, edges = entry_zero_threshold(a), set(g.edges)
    return all((abs(a[i, j]) > thr) == ((i, j) in edges)
               for i in range(g.n) for j in range(i + 1, g.n))


def _sign_class_loop(a, p) -> bool:
    """Entry-by-entry reference for matrix_in_sign_class."""
    thr = entry_zero_threshold(a)
    return all((0 if abs(a[i, j]) <= thr else (1 if a[i, j] > 0 else -1)) == p.cells[i][j]
               for i in range(p.n) for j in range(p.n))


@st.composite
def _entries_at_the_threshold(draw):
    """A square matrix with some entries placed exactly at the zero
    threshold, one ulp on either side of it, or at its negative, and a
    cell mask that flips some cells of the class the loop reference reads."""
    n = draw(st.integers(1, 6))
    values = st.sampled_from([-3.0, -1.0, 0.0, 0.5, 2.0])
    a = np.array(draw(st.lists(values, min_size=n * n, max_size=n * n))).reshape(n, n)
    symmetric = draw(st.booleans())
    kinds = draw(st.lists(st.sampled_from(["at", "-at", "below", "above", "keep"]),
                          min_size=n * n, max_size=n * n))
    kinds = np.array(kinds).reshape(n, n)
    if symmetric:
        a, kinds = np.triu(a) + np.triu(a, 1).T, np.where(np.tri(n, dtype=bool), kinds.T, kinds)
    a[kinds != "keep"] = 0.0
    thr = entry_zero_threshold(a)
    offsets = {"at": thr, "-at": -thr, "below": np.nextafter(thr, 0.0),
               "above": np.nextafter(thr, np.inf)}
    for kind, value in offsets.items():
        a[kinds == kind] = value
    # the placed entries are far below the norm, so the threshold stays put
    assume(entry_zero_threshold(a) == thr)
    flips = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)
    return a, flips


@settings(max_examples=200)
@given(_entries_at_the_threshold())
def test_class_checks_match_entry_loops_at_the_threshold(instance):
    a, flips = instance
    n = len(a)
    p = SignPattern.from_matrix(a)
    flipped = SignPattern.from_rows(
        [[(v + 1) if f and v < 1 else v for v, f in zip(row, frow)] for row, frow in zip(p.cells, flips)])
    for pattern in (p, flipped):
        assert matrix_in_sign_class(a, pattern) == _sign_class_loop(a, pattern)
    if np.array_equal(a, a.T):
        thr = entry_zero_threshold(a)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if (abs(a[i, j]) > thr) != bool(flips[i, j])]
        for g in (Graph.from_edges(n, edges), Graph.empty(n)):
            assert matrix_in_graph_class(a, g) == _graph_class_loop(a, g)


def _sign_pattern_loop(a, threshold=None):
    """Entry-by-entry reference for SignPattern.from_matrix."""
    thr = entry_zero_threshold(a) if threshold is None else threshold
    return tuple(tuple(0 if abs(a[i, j]) <= thr else (1 if a[i, j] > 0 else -1)
                       for j in range(len(a))) for i in range(len(a)))


def test_from_matrix_matches_the_entry_loop():
    # off-diagonal entries at exactly +-thr, one ulp either side of it, +0.0
    # and -0.0, with the default threshold and with explicit ones
    rng = np.random.default_rng(55)
    for n in (1, 2, 3, 6, 12, 32):
        for _ in range(10):
            a = rng.normal(size=(n, n))
            placed = rng.choice(7, size=(n, n), p=[0.4, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1])
            np.fill_diagonal(placed, 0)  # the diagonal keeps a nonzero norm
            a[placed > 0] = 0.0
            thr = entry_zero_threshold(a)
            for k, value in enumerate((thr, -thr, np.nextafter(thr, 0.0),
                                       -np.nextafter(thr, np.inf), 0.0, -0.0), start=1):
                a[placed == k] = value
            assert entry_zero_threshold(a) == thr
            for threshold in (None, thr, 0.0, 0.5):
                cells = SignPattern.from_matrix(a, threshold).cells
                assert cells == _sign_pattern_loop(a, threshold)
                assert all(type(v) is int for row in cells for v in row)


def test_sign_pattern_rejects_what_it_did():
    for n, cells in ((2, ((1, 0), (0,))), (2, ((1, 0), (0, 2))), (2, ((1, 0), (0, [1]))),
                     (1, (("+",),)), (0, ()), (2, ((1, 0),))):
        with pytest.raises(InputError):
            SignPattern(n=n, cells=cells)
    assert SignPattern(n=2, cells=((1.0, 0), (True, -1))).n == 2


def test_cached_structure_is_read_only():
    g = Graph.cycle(5)
    p = SignPattern.from_rows([[1, 0, -1], [0, 1, 0], [-1, 0, 1]])
    for array in (g._adjacency, *g._non_edges, p._signs):
        with pytest.raises(ValueError):
            array[...] = 0
    assert g._adjacency is g._adjacency and p._signs is p._signs
    # as_array is a fresh, writable copy
    fresh = p.as_array()
    fresh[0, 0] = 0
    assert p.as_array()[0, 0] == 1 and p._signs[0, 0] == 1
    assert np.array_equal(g._adjacency, adjacency(g) != 0)
    assert np.array_equal(Graph.from_edges(5, g.edges)._adjacency, g._adjacency)

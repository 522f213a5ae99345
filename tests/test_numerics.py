import numpy as np
import pytest
import scipy.linalg

from strongprops.errors import InputError, InternalCheckError
from strongprops.numerics import (
    DEFAULT_TOL,
    Tolerances,
    char_poly,
    char_poly_faddeev,
    fro,
    lstsq_min_norm,
    nullspace,
    poly_from_spectrum,
    rank,
    real_schur,
    svd_nullspace,
    sym_eig,
)

from conftest import adjacency
from strongprops.patterns import Graph


def test_tolerances_validation():
    with pytest.raises(InputError):
        Tolerances(rank_tol=0.0)
    with pytest.raises(InputError):
        Tolerances(max_iter=0)
    for bad in (np.inf, np.nan):
        with pytest.raises(InputError):
            Tolerances(rank_tol=bad)


@pytest.mark.parametrize("bad", [np.nan, 2.5, 3.0, True])
def test_max_iter_must_be_an_integer(bad):
    # the Gauss-Newton loop's range() would fail on a float cap with a bare
    # TypeError, and a bool is no iteration count
    with pytest.raises(InputError, match="max_iter must be an integer"):
        Tolerances(max_iter=bad)


def test_max_iter_takes_a_numpy_integer():
    assert Tolerances(max_iter=np.int64(3)).max_iter == 3


class TestSymEig:
    def test_identity(self):
        dec = sym_eig(np.eye(3))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])
        assert np.allclose(dec.eigenvectors @ dec.eigenvectors.T, np.eye(3), atol=1e-14)

    def test_two_by_two_swap(self):
        dec = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])

    def test_c4_adjacency(self):
        # oracle: det(xI - A) = x^4 - 4x^2 by hand expansion, roots 0, 0, +-2
        dec = sym_eig(adjacency(Graph.cycle(4)))
        assert np.allclose(dec.eigenvalues, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        for n in (5, 20, 50):
            a = rng.normal(size=(n, n))
            a = (a + a.T) / 2.0
            dec = sym_eig(a)
            assert fro(a - dec.reconstruct()) <= 1e-12 * fro(a)
            assert np.all(np.diff(dec.eigenvalues) >= 0)

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            sym_eig(np.ones((2, 3)))
        with pytest.raises(InputError):
            sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(InputError):
            sym_eig(np.array([[0.0, 1.0], [0.5, 0.0]]))


class TestRealSchur:
    def test_diagonal(self):
        d = np.diag([3.0, -1.0, 2.0])
        schur = real_schur(d)
        assert fro(schur.reconstruct() - d) <= 1e-12
        assert sorted(np.diag(schur.quasi_triangular)) == pytest.approx([-1.0, 2.0, 3.0])

    def test_rotation_block(self):
        schur = real_schur(np.array([[0.0, -1.0], [1.0, 0.0]]))
        eigs = schur.eigenvalues()
        assert sorted(eigs, key=lambda z: z.imag) == pytest.approx([-1j, 1j])
        assert schur.diagonal_blocks() == [(0, 2)]

    def test_example15_strictly_upper(self, example15):
        schur = real_schur(example15)
        t = schur.quasi_triangular
        assert np.max(np.abs(np.diag(t))) <= 1e-12
        assert np.max(np.abs(np.tril(t, -1))) <= 1e-12
        assert fro(schur.reconstruct() - example15) <= 1e-12 * fro(example15)

    def test_char_poly_preserved(self):
        # independent oracle: Faddeev-LeVerrier on A vs Schur-block product on T
        rng = np.random.default_rng(1)
        for n in (2, 4, 7, 10):
            a = rng.normal(size=(n, n))
            reference, _ = char_poly_faddeev(a)
            coeffs = char_poly(a)
            scale = np.maximum(np.abs(reference), 1.0)
            assert np.max(np.abs(coeffs - reference) / scale) <= 1e-10


class TestNullspace:
    def test_identity(self):
        dim, basis = nullspace(np.eye(2))
        assert dim == 0 and basis.shape == (2, 0)

    def test_zero_matrix(self):
        dim, basis = nullspace(np.zeros((2, 3)))
        assert dim == 3
        assert np.allclose(basis.T @ basis, np.eye(3))

    def test_rank_one(self):
        dim, basis = nullspace(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert dim == 1
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert abs(abs(float(basis[:, 0] @ expected)) - 1.0) <= 1e-12

    def test_wide_matrix_counts_implicit_directions(self):
        # 1 x 3 of rank 1: two nullspace directions, one implicit in the SVD
        dim, basis = nullspace(np.array([[1.0, 2.0, 2.0]]))
        assert dim == 2
        assert np.max(np.abs(np.array([[1.0, 2.0, 2.0]]) @ basis)) <= 1e-12

    def test_rank_plus_nullity(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            m, n = rng.integers(1, 8, size=2)
            r = int(rng.integers(0, min(m, n) + 1))
            a = rng.normal(size=(m, r)) @ rng.normal(size=(r, n)) if r else np.zeros((m, n))
            dim, basis = nullspace(a)
            assert rank(a) + dim == n
            if dim:
                assert np.max(np.abs(a @ basis)) <= 1e-8 * max(1.0, fro(a))


class TestDirectSum:
    """``rank`` and ``svd_nullspace`` on a permuted direct sum, against the
    whole matrix."""

    @staticmethod
    def _direct_sum(rng, shapes, scales):
        """Random blocks of the given shapes, ranks and scales, rows and
        columns permuted, with their labels."""
        m, n = sum(s[0] for s in shapes), sum(s[1] for s in shapes)
        a, rows, cols = np.zeros((m, n)), np.zeros(m, int), np.zeros(n, int)
        r0 = c0 = 0
        for label, ((h, w, r), scale) in enumerate(zip(shapes, scales)):
            a[r0:r0 + h, c0:c0 + w] = scale * rng.normal(size=(h, r)) @ rng.normal(size=(r, w))
            rows[r0:r0 + h], cols[c0:c0 + w] = label, label
            r0, c0 = r0 + h, c0 + w
        pr, pc = rng.permutation(m), rng.permutation(n)
        return a[np.ix_(pr, pc)], (rows[pr], cols[pc])

    def test_matches_whole_matrix(self):
        rng = np.random.default_rng(5)
        # (rows, cols, rank): tall, square, repeated shapes, a wide block and
        # columns that no row touches
        shapes = [(5, 3, 3), (4, 4, 4), (4, 4, 2), (2, 3, 2), (0, 2, 0), (3, 2, 2)]
        cases = [
            shapes,
            [s for s in shapes if s[0] >= s[1]],
            [(3, 2, 2), (3, 2, 2), (6, 4, 4)],
            [(4, 3, 2), (1, 1, 1)],
            [(2, 3, 2), (1, 2, 1)],
        ]
        # 1e-10 puts a full-rank block under the whole matrix's threshold
        for case in cases:
            for scales in ([1.0] * len(case), [1e-10] + [1.0] * (len(case) - 1)):
                a, blocks = self._direct_sum(rng, case, scales)
                dim, basis = svd_nullspace(a, DEFAULT_TOL, blocks)
                whole_dim, _ = svd_nullspace(a)
                assert dim == whole_dim == a.shape[1] - rank(a, DEFAULT_TOL, blocks)
                assert rank(a, DEFAULT_TOL, blocks) == rank(a)
                assert basis.shape[1] >= (dim > 0)
                assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]))
                assert np.max(np.abs(a @ basis), initial=0.0) <= 1e-8 * fro(a)
                # the blocks' spectra together are the whole matrix's nonzero ones
                r, values = rank(a, DEFAULT_TOL, blocks, values=True)
                whole_r, whole = rank(a, DEFAULT_TOL, values=True)
                assert r == whole_r and np.all(values[:-1] >= values[1:])
                k = min(values.size, whole.size)
                assert np.allclose(values[:k], whole[:k], rtol=1e-12, atol=1e-12 * whole[0])
                assert np.all(np.abs(values[k:]) <= 1e-12 * whole[0])
                assert np.all(np.abs(whole[k:]) <= 1e-12 * whole[0])

    def test_entry_outside_blocks_raises(self):
        a = np.eye(3)
        a[0, 2] = 1e-300
        with pytest.raises(InternalCheckError):
            rank(a, DEFAULT_TOL, (np.arange(3), np.arange(3)))


class TestLstsq:
    def test_identity(self):
        b = np.array([2.0, -3.0])
        assert np.allclose(lstsq_min_norm(np.eye(2), b), b)

    def test_rank_deficient(self):
        x = lstsq_min_norm(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([1.0, 1.0]))
        assert np.allclose(x, [1.0, 0.0])

    def test_overdetermined(self):
        x = lstsq_min_norm(np.array([[1.0], [1.0]]), np.array([2.0, 0.0]))
        assert np.allclose(x, [1.0])

    def test_min_norm_property(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            m, n = rng.integers(1, 7, size=2)
            a = rng.normal(size=(m, n))
            x0 = rng.normal(size=n)
            x = lstsq_min_norm(a, a @ x0)
            assert np.linalg.norm(a @ x - a @ x0) <= 1e-9 * max(1.0, fro(a))
            assert np.linalg.norm(x) <= np.linalg.norm(x0) + 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            lstsq_min_norm(np.eye(2), np.ones(3))


def _duplicated_rows(rng, n: int, cols: int) -> np.ndarray:
    """n^2 x cols system whose rows (i, j) and (j, i) coincide, like the
    symmetric maps' Jacobians: rank n(n+1)/2 when cols allows it."""
    upper = rng.normal(size=(n * (n + 1) // 2, cols))
    index = np.zeros((n, n), dtype=int)
    index[np.triu_indices(n)] = np.arange(n * (n + 1) // 2)
    index = np.triu(index) + np.triu(index, 1).T
    return upper[index.reshape(-1)]


def _lstsq_corpus():
    """Seeded systems shaped like the Gauss-Newton steps, with a generic
    right-hand side (not in the range of A)."""
    rng = np.random.default_rng(8)
    cases = []
    for n in (3, 5, 8, 10):
        # wide, full row rank: nSSP maps, n^2 x (|nz| + n^2)
        cases.append((f"wide-n{n}", rng.normal(size=(n * n, n * n + n + 3 * n // 2))))
        # tall, duplicated rows: ssp/sap maps, rank n(n+1)/2
        cases.append((f"dup-rows-n{n}", _duplicated_rows(rng, n, n * (n + 1) // 2 + n)))
        # rank-deficient columns: a repeated column and a product of rank r
        a = rng.normal(size=(n * n, 2 * n))
        a[:, -1] = a[:, 0]
        cases.append((f"dup-col-n{n}", a))
        r = n + 1
        cases.append((
            f"rank{r}-n{n}",
            rng.normal(size=(n * n, r)) @ rng.normal(size=(r, 3 * n)),
        ))
    return [pytest.param(a, rng.normal(size=a.shape[0]), id=name) for name, a in cases]


def _wide_systems():
    """Wide systems by id, with whether xGELSY must solve them: random
    ones from 1 x 1 to the chart's shapes, which the QR of A^T solves, and
    three at or past its condition cutoff (exactly rank-deficient,
    kappa = 1e10 and kappa ~ 1e5)."""
    rng = np.random.default_rng(9)
    cases = {f"wide-{m}x{n}": (rng.normal(size=(m, n)), False)
             for m, n in ((1, 1), (1, 4), (6, 6), (13, 28), (54, 144))}
    m, n = 20, 36
    repeated = rng.normal(size=(m, n))
    repeated[-1] = repeated[0]
    # rows graded from 1 to 1e-3 plus a direction at 1e-10 * sigma_max; it is
    # decoupled from the rest, so xGELSY's pivoted cut drops exactly the
    # direction the SVD's cut drops (a coupled one moves the two cuts' answers
    # apart by sigma_{r+1} / sigma_r, with any solver)
    graded = np.zeros((m, n))
    graded[:-1, :-2] = rng.normal(size=(m - 1, n - 2)) * np.logspace(0, -3, m - 1)[:, None]
    tail = rng.normal(size=2)
    graded[-1, -2:] = 1e-10 * np.linalg.norm(graded, 2) * tail / np.linalg.norm(tail)
    graded = graded[rng.permutation(m)][:, rng.permutation(n)]
    # rows graded from 1 to 1e-5: the QR of A^T is accurate whatever the grading
    kappa5 = rng.normal(size=(m, n)) * np.logspace(0, -5, m)[:, None]
    cases.update({
        "wide-repeated-row": (repeated, True),
        "wide-graded-k1e10": (graded, True),
        "wide-k1e5": (kappa5, False),
    })
    return {name: (a, rng.normal(size=a.shape[0]), gelsy) for name, (a, gelsy) in cases.items()}


_WIDE = _wide_systems()


@pytest.mark.parametrize(
    "a,b", _lstsq_corpus() + [pytest.param(a, b, id=name) for name, (a, b, _) in _WIDE.items()]
)
def test_lstsq_matches_pseudo_inverse(a, b):
    x = lstsq_min_norm(a, b)
    want = np.linalg.pinv(a, rcond=1e-8) @ b
    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
    # minimum norm: no component along the nullspace of A
    _, null = nullspace(a)
    assert np.linalg.norm(null.T @ x) <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("name", sorted(_WIDE))
def test_lstsq_calls_gelsy_only_past_the_condition_cutoff(monkeypatch, name):
    a, b, gelsy_expected = _WIDE[name]
    calls = []
    gelsy = scipy.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(kwargs.get("lapack_driver"))
        return gelsy(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lstsq", counted)
    lstsq_min_norm(a, b)
    assert calls == (["gelsy"] if gelsy_expected else [])


class TestCharPoly:
    def test_companion_example(self):
        # x^3 - 2x - 5 via its companion matrix
        c = np.array([[0.0, 0.0, 5.0], [1.0, 0.0, 2.0], [0.0, 1.0, 0.0]])
        coeffs = char_poly(c)
        assert np.allclose(coeffs, [-5.0, -2.0, 0.0, 1.0], atol=1e-12)

    def test_matches_numpy_poly(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 5):
            a = rng.normal(size=(n, n))
            ref = np.poly(np.linalg.eigvals(a)).real[::-1]
            assert np.max(np.abs(char_poly(a) - ref)) <= 1e-9 * max(
                1.0, np.max(np.abs(ref))
            )

    def test_poly_from_spectrum(self):
        coeffs = poly_from_spectrum([2.0], [(1.0, 3.0)])
        ref = np.poly([2.0, 1.0 + 3.0j, 1.0 - 3.0j]).real[::-1]
        assert np.allclose(coeffs, ref)

    def test_faddeev_cayley_hamilton(self, example15):
        coeffs, adj = char_poly_faddeev(example15)
        assert np.allclose(coeffs, [0.0, 0.0, 0.0, 1.0])  # nilpotent: x^3
        assert len(adj) == 3


def test_fro_is_numpys_norm_bitwise():
    rng = np.random.default_rng(12)
    arrays = [rng.normal(size=(n, m)) * 10.0 ** rng.integers(-150, 150)
              for n, m in ((1, 1), (3, 5), (8, 8), (40, 33))]
    arrays += [a.T for a in arrays] + [a[::2, 1:] for a in arrays] + [a.reshape(-1) for a in arrays]
    arrays += [np.zeros((0, 3)), np.array([[-0.0, 0.0]]), np.arange(12).reshape(3, 4)]
    for a in arrays:
        assert fro(a) == float(np.linalg.norm(a)) and type(fro(a)) is float

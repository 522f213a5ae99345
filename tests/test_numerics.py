import numpy as np
import pytest

from strongprops.errors import InputError
from strongprops.numerics import (
    Tolerances,
    char_poly,
    char_poly_faddeev,
    fro,
    lstsq_min_norm,
    nullspace,
    poly_from_spectrum,
    rank,
    real_schur,
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


@pytest.mark.parametrize("a,b", _lstsq_corpus())
def test_lstsq_matches_pseudo_inverse(a, b):
    x = lstsq_min_norm(a, b)
    want = np.linalg.pinv(a, rcond=1e-8) @ b
    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
    # minimum norm: no component along the nullspace of A
    _, null = nullspace(a)
    assert np.linalg.norm(null.T @ x) <= 1e-12 * np.linalg.norm(x)


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

"""The batched Jacobian against the per-direction Frechet-derivative oracle.

``reference_jacobian`` is the direct transcription of each map's
derivative: one column per basis direction, with the matrix-exponential
directions differentiated by two ``scipy.linalg.expm_frechet`` calls (Al-Mohy
and Higham, 2009).  ``PerturbationMap.jacobian`` builds all columns at once
and differentiates e^K through the divided-difference formula in K's
eigenbasis.  On a seeded corpus of all five map kinds (n = 2-12, ||K||_2 up
to 3, skew parameters with repeated eigenvalues) the two must agree:

* J(0) bitwise for every kind;
* J(p) bitwise for sap and both nSSP maps, whose basis entries are 0 and 1;
* J(p) to 1e-13 relative for ssp and smp.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from strongprops.bifurcation import PerturbationMap
from strongprops.patterns import Graph, SignPattern

RTOL_EXP = 1e-13


def reference_jacobian(f: PerturbationMap, params) -> np.ndarray:
    """Column-by-column Jacobian of ``f``, one basis direction at a time."""
    b, s, c = f._unpack(params)
    bm = f._combine(f._b_basis, b)
    sm = f._combine(f._second_basis, s)
    cols: list[np.ndarray] = []
    if f.kind in ("ssp", "smp"):
        m = f.base + bm
        powers = [np.eye(f.n)]
        for _ in range(max(f._c_dim - 1, 0)):
            powers.append(powers[-1] @ m)
        mid = f._poly_apply(m, c) if f.kind == "smp" else m
        e_pos = scipy.linalg.expm(sm)
        e_neg = scipy.linalg.expm(-sm)
        for direction in f._b_basis.matrices:
            inner = direction
            if f.kind == "smp":
                inner = direction.copy()
                for k in range(1, f._c_dim):
                    if c[k] == 0.0:
                        continue
                    term = sum(
                        powers[j] @ direction @ powers[k - 1 - j] for j in range(k)
                    )
                    inner = inner + c[k] * term
            cols.append(e_neg @ inner @ e_pos)
        for direction in f._second_basis.matrices:
            _, d_pos = scipy.linalg.expm_frechet(sm, direction)
            _, d_neg = scipy.linalg.expm_frechet(-sm, -direction)
            cols.append(d_neg @ mid @ e_pos + e_neg @ mid @ d_pos)
        for k in range(f._c_dim):
            cols.append(e_neg @ powers[k] @ e_pos)
    elif f.kind == "sap":
        m = f.base + bm
        s_mat = np.eye(f.n) + sm
        for direction in f._b_basis.matrices:
            cols.append(s_mat.T @ direction @ s_mat)
        for direction in f._second_basis.matrices:
            cols.append(direction.T @ m @ s_mat + s_mat.T @ m @ direction)
    else:
        s_mat = np.eye(f.n) + sm
        s_inv = np.linalg.inv(s_mat)
        m = f.base + bm if f.kind == "nssp_similar" else f.base
        f0 = s_inv @ m @ s_mat
        for direction in f._b_basis.matrices:
            cols.append(
                s_inv @ direction @ s_mat if f.kind == "nssp_similar" else direction
            )
        for direction in f._second_basis.matrices:
            cols.append(-s_inv @ direction @ f0 + s_inv @ m @ direction)
    if not cols:
        return np.zeros((f.n * f.n, 0))
    return np.column_stack([col.reshape(-1) for col in cols])


# ---------------------------------------------------------------------------
# Seeded corpus


def _random_graph(rng, n: int) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    return Graph.from_edges(n, edges)


def _symmetric_in(rng, g: Graph) -> np.ndarray:
    a = np.diag(rng.normal(size=g.n))
    for i, j in g.edges:
        a[i, j] = a[j, i] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    return a


def _random_pattern_matrix(rng, n: int, density: float) -> tuple[SignPattern, np.ndarray]:
    mask = rng.random((n, n)) < density
    a = np.where(mask, rng.choice([-1.0, 1.0], size=(n, n)) * rng.uniform(0.5, 2.0, (n, n)), 0.0)
    return SignPattern.from_matrix(a), a


def _skew_with_repeated_eigenvalues(rng, n: int, style: str) -> np.ndarray:
    """Skew K whose eigenvalues repeat: zero on a block, or a repeated
    rotation generator."""
    k = np.zeros((n, n))
    if style == "block_zero":
        half = (n + 1) // 2
        x = rng.normal(size=(half, half))
        k[:half, :half] = x - x.T
        if k.any():
            k *= rng.uniform(1.0, 3.0) / np.linalg.norm(k, 2)
    else:  # equal 2x2 rotation blocks: +-i t, each with multiplicity >= 1
        t = rng.uniform(0.3, 1.5)
        for start in range(0, n - 1, 2):
            k[start, start + 1], k[start + 1, start] = t, -t
    return k


def _maps(seed: int):
    """(label, map, list of parameter vectors) over every kind and n = 2-12."""
    rng = np.random.default_rng(seed)
    out = []
    for n in range(2, 13):
        g = _random_graph(rng, n)
        a = _symmetric_in(rng, g)
        q = int(rng.integers(1, n + 1))
        pattern, b = _random_pattern_matrix(rng, n, 0.5)
        for f in (
            PerturbationMap(kind="ssp", base=a, graph=g),
            PerturbationMap(kind="smp", base=a, graph=g, q=q),
            PerturbationMap(kind="sap", base=a, graph=g),
            PerturbationMap(kind="nssp_similar", base=b, pattern=pattern),
            PerturbationMap(
                kind="nssp_superpattern", base=b, pattern=pattern, super_pattern=pattern
            ),
        ):
            out.append((f"{f.kind}-n{n}", f, _params_for(rng, f)))
    # all-zero sign pattern: the pattern basis is empty
    zero = SignPattern.from_rows([[0] * 3] * 3)
    for kind in ("nssp_similar", "nssp_superpattern"):
        f = PerturbationMap(kind=kind, base=np.zeros((3, 3)), pattern=zero, super_pattern=zero)
        out.append((f"{kind}-empty", f, _params_for(rng, f)))
    return out


def _params_for(rng, f: PerturbationMap) -> list[np.ndarray]:
    nb, ns = f._b_basis.dim, f._second_basis.dim
    nc = f.param_dim - nb - ns
    params = []
    if f.kind in ("ssp", "smp"):
        # ||K||_F = ||s|| for an orthonormal basis; ||K||_2 stays below 3
        for norm in (1e-9, 0.3, 1.0, 3.0):
            s = rng.normal(size=ns)
            params.append(_pack(rng, nb, s * norm / np.linalg.norm(s), nc))
        for style in ("block_zero", "rotations"):
            s = f._second_basis.coefficients_of(_skew_with_repeated_eigenvalues(rng, f.n, style))
            params.append(_pack(rng, nb, s, nc))
        params.append(_pack(rng, nb, np.zeros(ns), nc))
    else:
        cap = 0.45 if f.kind != "sap" else 2.0
        for norm in (0.05, cap):
            s = rng.normal(size=ns)
            params.append(_pack(rng, nb, s * norm / np.linalg.norm(s), nc))
    return params


def _pack(rng, nb: int, s: np.ndarray, nc: int) -> np.ndarray:
    return np.concatenate([0.3 * rng.normal(size=nb), s, 0.1 * rng.normal(size=nc)])


CORPUS = _maps(20240)


@pytest.mark.parametrize("label,f,params", CORPUS, ids=[c[0] for c in CORPUS])
def test_jacobian_matches_frechet_oracle(label, f, params):
    zero = f.zero_params()
    assert np.array_equal(f.jacobian(zero), reference_jacobian(f, zero)), label
    for p in params:
        got, want = f.jacobian(p), reference_jacobian(f, p)
        assert got.shape == want.shape == (f.n * f.n, f.param_dim)
        if f.kind in ("ssp", "smp"):
            scale = max(float(np.max(np.abs(want))), 1.0)
            assert float(np.max(np.abs(got - want))) <= RTOL_EXP * scale, label
        else:
            assert np.array_equal(got, want), label


def test_corpus_covers_repeated_skew_eigenvalues():
    """The corpus really holds skew parameters with repeated eigenvalues and
    spectral norms up to about 3: the phi = 1 branch of the formula and its
    accuracy at large K depend on them."""
    repeated, largest = 0, 0.0
    for _label, f, params in CORPUS:
        if f.kind != "ssp":
            continue
        for p in params:
            k = f.second_matrix(p)
            largest = max(largest, float(np.linalg.norm(k, 2)))
            mu = np.sort(np.linalg.eigvalsh(1j * k))
            if k.any() and np.any(np.diff(mu) < 1e-12 * max(1.0, abs(mu).max())):
                repeated += 1
    assert repeated >= 15
    assert 2.5 <= largest <= 3.0

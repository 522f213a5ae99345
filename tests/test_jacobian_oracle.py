"""The specification's Jacobian against central differences of the map.

``PerturbationMap.jacobian`` is the direct transcription of each map's
derivative: one column per basis direction, with the matrix-exponential
directions differentiated by ``scipy.linalg.expm_frechet`` (Al-Mohy and
Higham, 2009).  On a seeded corpus of all five map kinds (n = 2-12,
||K||_2 up to 3, skew parameters with repeated eigenvalues):

* J(0) equals its exact columns bitwise: the pattern directions E, then
  A E - E A (ssp, smp and both nSSP maps) or E^T A + A E (sap) along the
  second basis, then the powers of A (smp);
* at every parameter vector, 8 sampled columns of J(p) match central
  differences of ``evaluate`` to 1e-6 relative.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from strongprops.bifurcation import PerturbationMap
from strongprops.patterns import Graph, SignPattern

FD_STEP = 1e-5
FD_RTOL = 1e-6
SAMPLED_COLUMNS = 8


def exact_jacobian_at_zero(f: PerturbationMap) -> np.ndarray:
    """The columns of J(0), written out for the base A."""
    a = f.base
    cols = list(f._b_basis.matrices)
    for e in f._second_basis.matrices:
        cols.append(e.T @ a + a @ e if f.kind == "sap" else a @ e - e @ a)
    power = np.eye(f.n)
    for _ in range(f._c_dim):
        cols.append(power)
        power = power @ a
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
    """J(0) is exact, and sampled columns of J(p) are central differences."""
    assert np.array_equal(f.jacobian(f.zero_params()), exact_jacobian_at_zero(f)), label
    rng = np.random.default_rng(zlib.crc32(label.encode()))
    for p in params:
        jac = f.jacobian(p)
        assert jac.shape == (f.n * f.n, f.param_dim)
        columns = rng.choice(f.param_dim, size=min(SAMPLED_COLUMNS, f.param_dim), replace=False)
        for t in columns:
            e = np.zeros(f.param_dim)
            e[t] = FD_STEP
            fd = ((f.evaluate(p + e) - f.evaluate(p - e)) / (2.0 * FD_STEP)).reshape(-1)
            err = float(np.linalg.norm(jac[:, t] - fd)) / max(1.0, float(np.linalg.norm(fd)))
            assert err <= FD_RTOL, (label, int(t), err)


def test_corpus_covers_repeated_skew_eigenvalues():
    """The corpus really holds skew parameters with repeated eigenvalues and
    spectral norms up to about 3, where a faster form of the exponential's
    derivative (divided differences in K's eigenbasis, say) is least
    accurate, so the specification is checked there."""
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

"""The local chart of the Gauss-Newton solve against the specification.

Its step matrix must be the derivative of its residual, and at the base it
must have full row rank exactly when the map's strong property holds, which
is what test_03 asserts of the paper's maps.
"""

import numpy as np
import pytest

from strongprops.bifurcation import L_NORM_CAP, LocalChart
from strongprops.numerics import fro, rank

from test_acceptance import _map_instances

KINDS = ("ssp", "smp", "sap", "nssp_similar", "nssp_superpattern")


def _target_near(rng, pmap, radius=0.1):
    e = rng.normal(size=(pmap.n, pmap.n))
    if pmap.kind in ("ssp", "smp", "sap"):
        e = e + e.T
    return pmap.base + radius * e / fro(e)


def test_step_matrix_matches_central_differences():
    rng = np.random.default_rng(27182)
    h = 1e-6
    worst = 0.0
    for kind in KINDS:
        for pmap, _report in _map_instances(rng, kind, 10):
            chart = LocalChart(pmap, _target_near(rng, pmap))
            # away from the identity, so that the group element enters
            width = chart.step_matrix().shape[1]
            chart = chart.moved(0.05 * rng.normal(size=width))
            jac = chart.step_matrix()
            for t in range(width):
                e = np.zeros(width)
                e[t] = h
                fd = (chart.moved(e).residual() - chart.moved(-e).residual()) / (2.0 * h)
                err = np.linalg.norm(jac[:, t] - fd)
                worst = max(worst, err / max(1.0, float(np.linalg.norm(fd))))
    assert worst <= 1e-6


def test_step_matrix_full_row_rank_iff_property():
    # the instances of test_03
    rng = np.random.default_rng(31415)
    violations = 0
    for kind in KINDS:
        for pmap, report in _map_instances(rng, kind, 100):
            jac = LocalChart(pmap, pmap.base).step_matrix()
            if (rank(jac) == jac.shape[0]) != report.holds:
                violations += 1
    assert violations == 0


def test_realized_matrix_clears_the_equation_cells():
    rng = np.random.default_rng(5)
    for kind in KINDS:
        for pmap, _report in _map_instances(rng, kind, 5):
            m = _target_near(rng, pmap)
            chart = LocalChart(pmap, m)
            out = chart.realized()
            assert fro(out - chart.point) == pytest.approx(chart.residual_norm(), rel=1e-14)
            if kind == "nssp_superpattern":
                assert np.array_equal(out[chart.cells], m[chart.cells])
            else:
                assert not out[chart.cells].any()
            if kind in ("ssp", "smp", "sap"):
                assert np.array_equal(out, out.T)


def test_retractions_keep_the_invariant():
    # N stays exactly similar (congruent for the SAP) to the target, even
    # for a step at the cap
    rng = np.random.default_rng(6)
    for kind in ("ssp", "sap", "nssp_similar", "nssp_superpattern"):
        for pmap, _report in _map_instances(rng, kind, 5):
            m = _target_near(rng, pmap)
            chart = LocalChart(pmap, m)
            step = rng.normal(size=chart.step_matrix().shape[1])
            step *= L_NORM_CAP / fro(chart.lie_step(step))
            moved = chart.moved(step)
            if kind == "ssp":
                assert np.allclose(np.linalg.eigvalsh(moved.point), np.linalg.eigvalsh(m))
            elif kind == "sap":
                assert np.array_equal(
                    np.sign(np.round(np.linalg.eigvalsh(moved.point), 8)),
                    np.sign(np.round(np.linalg.eigvalsh(m), 8)),
                )
            else:
                ref = pmap.base if kind == "nssp_superpattern" else m
                assert np.allclose(np.poly(moved.point), np.poly(ref), atol=1e-10)

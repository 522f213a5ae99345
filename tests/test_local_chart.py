"""The local chart of the Gauss-Newton solve against the specification.

Its step matrix must be the derivative of its residual, and at the base it
must have full row rank exactly when the map's strong property holds, which
is what test_03 asserts of the paper's maps.
"""

import numpy as np
import pytest

from strongprops.bifurcation import L_NORM_CAP, LocalChart
from strongprops.numerics import fro, rank
from strongprops.verifiers import _dense, _kronecker_entries

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


def _signed_point(rng, pmap):
    """A point N with exact +0.0 and -0.0 entries among normal ones,
    mirrored exactly for the symmetric kinds."""
    n = pmap.n
    point = rng.normal(size=(n, n))
    draw = rng.random((n, n))
    point[draw < 0.3] = 0.0
    point[draw > 0.7] = -0.0
    point[0, 0], point[0, n - 1] = -0.0, 0.0
    if pmap.kind in ("ssp", "smp", "sap"):
        point = np.where(np.tri(n, k=-1, dtype=bool), point.T, point)
    return point


def test_gathered_step_matrix_is_the_assemblers_bitwise():
    # the chart plan gathers N's values into the step matrix; it must be the
    # dual assembler's at -N or N, bit for bit, on the equation cells, on the
    # free cells and on other cells (a plan built on the fly), at points
    # whose +0.0 and -0.0 entries the assembler skips and the plan reads
    rng = np.random.default_rng(28)
    for kind in KINDS:
        prop = "nssp" if kind.startswith("nssp") else kind
        sign = 1.0 if kind in ("sap", "nssp_superpattern") else -1.0
        for pmap, _report in _map_instances(rng, kind, 10):
            chart = LocalChart(pmap, _target_near(rng, pmap))
            chart.point = _signed_point(rng, pmap)
            other = np.nonzero(rng.random((pmap.n, pmap.n)) < 0.5)
            for cells in (chart.cells, chart.free, other):
                shape = (len(cells[0]), len(chart._columns[0]))
                reference = _dense(_kronecker_entries(sign * chart.point, cells, prop), shape)
                step = chart.step_matrix(cells)[:, : shape[1]]
                assert step.tobytes() == reference.tobytes()
            assert chart.step_matrix().tobytes() == chart.step_matrix(chart.cells).tobytes()


def test_charts_and_rebased_maps_share_one_plan():
    rng = np.random.default_rng(29)
    for kind in KINDS:
        (pmap, _), (other, _) = _map_instances(rng, kind, 2)
        chart = LocalChart(pmap, _target_near(rng, pmap))
        plan = pmap._chart_plan
        moved = chart.moved(0.01 * rng.normal(size=chart.step_matrix().shape[1]))
        rebased = pmap.rebased(moved.realized())
        assert rebased._chart_plan is plan
        for c in (chart, moved, LocalChart(rebased, rebased.base)):
            mine = (c.cells, c._columns, c.free, *c._plans)
            assert all(part is shared for part, shared in zip(mine, plan, strict=True))
        assert other._chart_plan is not plan


def test_chart_plan_is_read_only():
    rng = np.random.default_rng(30)
    for kind in KINDS:
        [(pmap, _)] = _map_instances(rng, kind, 1)
        cells, columns, free, *plans = pmap._chart_plan
        for array in (*cells, *columns, *free, *plans[0], *plans[1]):
            with pytest.raises(ValueError):
                array[...] = 0

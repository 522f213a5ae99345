"""Every realizer and certificate retry runs through one bounded loop: the
continuation driver ``bifurcation._homotopy``, or the spectral
certificate's scale-back over k.  These tests pin the bounds by making
every solve fail."""

import numpy as np
import pytest

from strongprops import arbitrary, bifurcation
from strongprops.arbitrary import (
    certify_inertially_arbitrary,
    certify_spectrally_arbitrary,
    raise_nilpotent_index,
)
from strongprops.bifurcation import (
    MAX_TRUST_HALVINGS,
    realize_inertia,
    realize_multiplicity_list,
    realize_q,
    realize_rank,
    realize_similar,
    realize_spectrum,
    realize_superpattern,
    solve_to_target,
    ssp_map,
)
from strongprops.errors import InputError, NoConvergence, PatternViolation, SurjectivityFailure
from strongprops.numerics import DEFAULT_TOL, fro, real_schur
from strongprops.patterns import Graph, SignPattern


def _failing(monkeypatch, module, name):
    """Replace ``module.name`` by a function that records its calls and
    always raises NoConvergence."""
    calls = []

    def fail(*args, **kwargs):
        calls.append(args)
        raise NoConvergence("always fails")

    monkeypatch.setattr(module, name, fail)
    return calls


def _realizer_calls(twisted_c4, c4):
    nssp_base = np.array([[1.0, 1.0], [1.0, 0.0]])
    return {
        "spectrum": lambda: realize_spectrum(twisted_c4, c4, [-3.0, -1.0, 1.0, 3.0]),
        "multiplicity_list": lambda: realize_multiplicity_list(twisted_c4, c4, [1, 1, 2]),
        "inertia": lambda: realize_inertia(np.ones((2, 2)), Graph.complete(2), (1, 1)),
        "rank": lambda: realize_rank(np.ones((2, 2)), Graph.complete(2), 2),
        "q": lambda: realize_q(twisted_c4, c4, 4),
        "similar": lambda: realize_similar(
            nssp_base, SignPattern.from_matrix(nssp_base), 1.5 * nssp_base
        ),
        "superpattern": lambda: realize_superpattern(
            nssp_base,
            SignPattern.from_matrix(nssp_base),
            SignPattern.from_rows([[1, 1], [1, -1]]),
        ),
    }


@pytest.mark.parametrize(
    "kind",
    ["spectrum", "multiplicity_list", "inertia", "rank", "q", "similar", "superpattern"],
)
def test_each_realizer_gives_up_after_the_halvings(
    monkeypatch, kind, twisted_c4, c4
):
    run = _realizer_calls(twisted_c4, c4)[kind]
    calls = _failing(monkeypatch, bifurcation, "solve_to_target")
    with pytest.raises(NoConvergence, match="trust-radius halvings"):
        run()
    assert len(calls) == MAX_TRUST_HALVINGS + 1


def test_a_failed_target_is_not_solved_again(monkeypatch, twisted_c4, c4):
    # the plan returns one target whatever the radius, as realize_spectrum's
    # does at or above the remaining distance
    calls = _failing(monkeypatch, bifurcation, "solve_to_target")
    target = 1.01 * twisted_c4
    with pytest.raises(NoConvergence, match="trust-radius halvings"):
        bifurcation._homotopy(
            ssp_map(twisted_c4, c4), None, 1.0, lambda cur, trust: (target.copy(), True),
            DEFAULT_TOL, "test walk",
        )
    assert len(calls) == 1


def test_refused_progress_is_bounded(twisted_c4, c4):
    refusals = []

    def progress(new, trust):
        refusals.append(trust)
        return False

    # every hop re-targets the current matrix, so every solve succeeds
    with pytest.raises(NoConvergence, match="stalled"):
        bifurcation._homotopy(
            ssp_map(twisted_c4, c4), None, 1.0, lambda cur, trust: (cur, False),
            DEFAULT_TOL, "test walk", progress=progress,
        )
    assert len(refusals) == MAX_TRUST_HALVINGS + 1
    assert refusals == [2.0**-h for h in range(MAX_TRUST_HALVINGS + 1)]


def test_unfinished_plan_is_bounded_by_the_hops(twisted_c4, c4):
    plans = []

    def plan(cur, trust):
        plans.append(trust)
        return cur, False

    with pytest.raises(NoConvergence, match="did not terminate"):
        bifurcation._homotopy(
            ssp_map(twisted_c4, c4), None, 1.0, plan, DEFAULT_TOL, "test walk", hops=3
        )
    assert len(plans) == 3 + MAX_TRUST_HALVINGS


def test_driver_solves_each_hop_once_and_rebases(twisted_c4, c4):
    f = ssp_map(twisted_c4, c4)
    # off the graph, so that each hop takes Gauss-Newton iterations
    e = np.zeros((4, 4))
    e[0, 2] = e[2, 0] = 1.0
    targets = [twisted_c4 + 0.01 * e, twisted_c4 + 0.02 * e]
    seen = []

    def plan(cur, trust):
        seen.append(cur)
        return targets[len(seen) - 1], len(seen) == len(targets)

    res = bifurcation._homotopy(f, None, 1.0, plan, DEFAULT_TOL, "test walk")
    assert np.array_equal(seen[0], twisted_c4)
    hops = [solve_to_target(f, targets[0]), solve_to_target(f.rebased(seen[1]), targets[1])]
    assert np.array_equal(seen[1], hops[0].matrix)
    assert np.array_equal(res.matrix, hops[1].matrix) and res.property_report.holds
    # the last hop's result, with iterations and residuals over both hops
    assert res.iterations == hops[0].iterations + hops[1].iterations > 0
    assert res.residual_trace == hops[0].residual_trace + hops[1].residual_trace
    assert res.final_residual == hops[1].final_residual == res.residual_trace[-1]


def test_driver_returns_the_base_when_the_plan_ends_at_once(twisted_c4, c4):
    f = ssp_map(twisted_c4, c4)
    report = f.verify_base(DEFAULT_TOL)
    res = bifurcation._homotopy(
        f, report, 1.0, lambda cur, trust: None, DEFAULT_TOL, "test walk"
    )
    assert res.matrix is f.base and res.property_report is report
    assert (res.iterations, res.final_residual, res.residual_trace) == (0, 0.0, (0.0,))


def test_spectral_certificate_tries_each_scale(monkeypatch, example15, example15_pattern):
    scaled = []
    nearby = arbitrary.nilpotent_nearby

    def recording(a, spectrum, **kwargs):
        scaled.append(spectrum.sum_squares())
        return nearby(a, spectrum, **kwargs)

    monkeypatch.setattr(arbitrary, "nilpotent_nearby", recording)
    solves = _failing(monkeypatch, arbitrary, "realize_similar")
    cert = certify_spectrally_arbitrary(example15_pattern, example15, [[1.0, 2.0, 3.0]])
    assert not cert.complete and cert.evidence[0].detail == "always fails"
    assert len(scaled) == arbitrary._CERT_SCALE_ATTEMPTS
    # k doubles per attempt, so the squared moduli shrink by 4
    assert np.allclose(np.array(scaled[:-1]) / np.array(scaled[1:]), 4.0)
    assert len(solves) == arbitrary._CERT_SCALE_ATTEMPTS


def test_inertial_certificate_tries_each_shift(monkeypatch):
    w = np.array([[1.0, -1.0], [1.0, -1.0]])
    solves = _failing(monkeypatch, bifurcation, "solve_to_target")
    cert = certify_inertially_arbitrary(SignPattern.from_matrix(w), w)
    assert len(cert.evidence) == 6
    assert all(
        not e.ok and e.detail == f"inertia shift failed after {MAX_TRUST_HALVINGS} trust-radius halvings"
        for e in cert.evidence
    )
    # each halving halves the shift, so each target is a new solve, except
    # (0, 0, 2): it shifts nothing, so its plan returns one target at every
    # radius and the driver solves it once
    assert len(solves) == 5 * (MAX_TRUST_HALVINGS + 1) + 1


@pytest.mark.parametrize("error", [PatternViolation, SurjectivityFailure])
def test_certificate_records_each_failure_with_its_message(monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("left the class")

    monkeypatch.setattr(bifurcation, "solve_to_target", fail)
    w = np.array([[1.0, -1.0], [1.0, -1.0]])
    cert = certify_inertially_arbitrary(SignPattern.from_matrix(w), w)
    assert not cert.complete and len(cert.evidence) == 6
    # the driver halves on a PatternViolation and gives up with its own
    # NoConvergence; a SurjectivityFailure passes through
    detail = (
        f"inertia shift failed after {MAX_TRUST_HALVINGS} trust-radius halvings"
        if error is PatternViolation else "left the class"
    )
    for e in cert.evidence:
        assert (e.ok, e.detail, e.matrix, e.residual) == (False, detail, None, None)


def test_raise_nilpotent_index_gives_up_with_no_convergence(
    monkeypatch, example15, example15_pattern
):
    solves = _failing(monkeypatch, bifurcation, "solve_to_target")
    with pytest.raises(NoConvergence, match="index raise failed after"):
        raise_nilpotent_index(example15, example15_pattern)
    assert len(solves) == MAX_TRUST_HALVINGS + 1


def _recording_solves(monkeypatch, fail_first=None):
    """Record the target of every ``solve_to_target`` call; the first call
    whose target equals ``fail_first`` raises NoConvergence instead."""
    targets, failed = [], []
    solve = bifurcation.solve_to_target

    def recording(f, m, *args, **kwargs):
        targets.append(m)
        if fail_first is not None and not failed and np.array_equal(m, fail_first):
            failed.append(m)
            raise NoConvergence("first hop fails")
        return solve(f, m, *args, **kwargs)

    monkeypatch.setattr(bifurcation, "solve_to_target", recording)
    return targets


def _shifted(w, delta):
    # the (1, 1, 0) target of a 2 x 2 witness whose zeros are its two
    # Schur slots: the first slot moves to +delta, the second to -delta
    schur = real_schur(w)
    shift = np.diag([delta, -delta])
    return schur.orthogonal @ (schur.quasi_triangular + shift) @ schur.orthogonal.T


def test_first_hops_solve_the_planned_targets_bitwise(
    monkeypatch, example15, example15_pattern
):
    w = np.array([[1.0, -1.0], [1.0, -1.0]])
    delta0 = 0.5 * bifurcation.default_trust_radius(w) / np.sqrt(2)
    targets = _recording_solves(monkeypatch)
    cert = certify_inertially_arbitrary(SignPattern.from_matrix(w), w)
    assert cert.complete and len(targets) == 6
    # evidence order: (0,0,2), (0,1,1), (0,2,0), (1,0,1), (1,1,0), (2,0,0)
    assert np.array_equal(targets[4], _shifted(w, delta0))

    targets.clear()
    a_prime = raise_nilpotent_index(example15, example15_pattern)
    schur = real_schur(example15)
    t = np.triu(schur.quasi_triangular, 1)
    delta = 0.01 * (1.0 + fro(example15))
    for i in range(2):
        if abs(t[i, i + 1]) <= delta:
            t[i, i + 1] = delta
    assert len(targets) == 1
    assert np.array_equal(targets[0], schur.orthogonal @ t @ schur.orthogonal.T)
    assert fro(np.linalg.matrix_power(a_prime, 2)) > 1e-4


def test_failed_inertial_hop_is_solved_again_at_half_the_shift(monkeypatch):
    w = np.array([[1.0, -1.0], [1.0, -1.0]])
    delta0 = 0.5 * bifurcation.default_trust_radius(w) / np.sqrt(2)
    targets = _recording_solves(monkeypatch, fail_first=_shifted(w, delta0))
    walks = _failing(monkeypatch, bifurcation, "_spectral_walk")
    cert = certify_inertially_arbitrary(SignPattern.from_matrix(w), w)
    assert cert.complete and len(targets) == 7 and not walks
    assert np.array_equal(targets[4], _shifted(w, delta0))
    assert np.array_equal(targets[5], _shifted(w, delta0 / 2.0))


@pytest.mark.parametrize("delta", [float("nan"), float("inf"), 0.0, -1.0])
def test_raise_nilpotent_index_refuses_a_bad_delta(monkeypatch, example15, example15_pattern, delta):
    solves = _failing(monkeypatch, bifurcation, "solve_to_target")
    with pytest.raises(InputError, match="delta must be finite and positive") as info:
        raise_nilpotent_index(example15, example15_pattern, delta=delta)
    assert info.value.exit_code == 2 and not solves

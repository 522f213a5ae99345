import dataclasses
import math
import signal

import numpy as np
import pytest

from strongprops import bifurcation, numerics, patterns, verifiers
from strongprops.bifurcation import (
    realize_inertia,
    realize_multiplicity_list,
    realize_q,
    realize_rank,
    realize_similar,
    realize_spectrum,
    realize_superpattern,
    sap_map,
    similarity_map,
    smp_map,
    solve_to_target,
    ssp_map,
    superpattern_map,
)
from strongprops.errors import (
    InputError,
    NoConvergence,
    NotARefinement,
    NotASuperpattern,
    NotInClass,
    PatternViolation,
    PropertyNotPreserved,
    SurjectivityFailure,
    TargetError,
    UnreachableInertia,
)
from strongprops.numerics import (
    DEFAULT_TOL,
    RealSchurForm,
    Tolerances,
    char_poly,
    fro,
    rank,
    sym_eig,
)
from strongprops.patterns import (
    Graph,
    SignPattern,
    cycle_spectrum_admissible,
    inertia,
    matrix_in_graph_class,
    matrix_in_sign_class,
    ordered_multiplicity_list,
    pin,
)
from strongprops.verifiers import verify_nssp, verify_sap, verify_ssp

from conftest import adjacency, random_graph, random_in_graph_class


def all_maps_for(rng):
    """One instance of each map kind on small fixtures."""
    c4 = Graph.cycle(4)
    twisted = adjacency(c4)
    twisted[0, 3] = twisted[3, 0] = -1.0
    a15 = np.array([[-1.0, 1.0, -1.0], [-2.0, 2.0, -2.0], [-1.0, 1.0, -1.0]])
    p15 = SignPattern.from_matrix(a15)
    b = np.array([[1.0, 1.0], [1.0, 0.0]])
    pb = SignPattern.from_matrix(b)
    pb_super = SignPattern.from_rows([[1, 1], [1, -1]])
    return [
        ssp_map(twisted, c4),
        smp_map(twisted, c4),
        sap_map(twisted, c4),
        similarity_map(a15, p15),
        superpattern_map(b, pb, pb_super),
    ]


class TestMapEvaluation:
    def test_zero_parameters_return_base_exactly(self):
        rng = np.random.default_rng(30)
        for pmap in all_maps_for(rng):
            assert np.array_equal(pmap.evaluate(pmap.zero_params()), pmap.base)

    def test_orthogonal_conjugation_preserves_spectrum(self, twisted_c4, c4):
        rng = np.random.default_rng(31)
        pmap = ssp_map(twisted_c4, c4)
        params = pmap.zero_params()
        params[pmap._b_basis.dim :] = rng.normal(size=pmap._second_basis.dim) * 0.3
        out = pmap.evaluate(params)
        assert np.max(np.abs(
            np.linalg.eigvalsh(out) - np.linalg.eigvalsh(twisted_c4)
        )) <= 1e-10

    def test_congruence_by_scaled_identity(self, twisted_c4, c4):
        # L = 0.1 * I: congruence by 1.1 * I scales the matrix by 1.21
        pmap = sap_map(twisted_c4, c4)
        params = pmap.zero_params()
        params[pmap._b_basis.dim :] = pmap._second_basis.coefficients_of(0.1 * np.eye(4))
        out = pmap.evaluate(params)
        assert np.allclose(out, 1.21 * twisted_c4, atol=1e-12)

    def test_map_identities(self):
        # spectra / characteristic polynomials / inertias tie the output to
        # the perturbed base exactly, per map kind
        rng = np.random.default_rng(32)
        for pmap in all_maps_for(rng):
            params = rng.normal(size=pmap.param_dim) * 0.05
            b = pmap.b_matrix(params)
            out = pmap.evaluate(params)
            if pmap.kind in ("ssp",):
                ref = np.linalg.eigvalsh(pmap.base + b)
                assert np.max(np.abs(np.linalg.eigvalsh(out) - ref)) <= 1e-10
            elif pmap.kind == "sap":
                assert inertia(out) == inertia(pmap.base + b)
            elif pmap.kind == "nssp_similar":
                diff = char_poly(out) - char_poly(pmap.base + b)
                assert np.max(np.abs(diff)) <= 1e-9
            elif pmap.kind == "nssp_superpattern":
                diff = char_poly(out - b) - char_poly(pmap.base)
                assert np.max(np.abs(diff)) <= 1e-9

    def test_l_norm_guard(self):
        a15 = np.array([[-1.0, 1.0, -1.0], [-2.0, 2.0, -2.0], [-1.0, 1.0, -1.0]])
        pmap = similarity_map(a15, SignPattern.from_matrix(a15))
        params = pmap.zero_params()
        params[pmap._b_basis.dim] = 0.9  # one L-coefficient past the cap
        with pytest.raises(InputError):
            pmap.evaluate(params)


class TestDerivatives:
    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(33)
        h = 1e-5
        for pmap in all_maps_for(rng):
            params = rng.normal(size=pmap.param_dim) * 0.05
            jac = pmap.jacobian(params)
            for t in rng.choice(pmap.param_dim, size=min(6, pmap.param_dim), replace=False):
                e = np.zeros(pmap.param_dim)
                e[t] = 1.0
                fd = (
                    pmap.evaluate(params + h * e)
                    - pmap.evaluate(params - h * e)
                ) / (2.0 * h)
                denom = max(1.0, float(np.linalg.norm(fd)))
                assert (
                    np.linalg.norm(jac[:, t] - fd.reshape(-1)) / denom <= 1e-6
                ), pmap.kind

    def test_complete_graph_full_row_rank(self):
        rng = np.random.default_rng(34)
        g = Graph.complete(3)
        pmap = ssp_map(random_in_graph_class(rng, g), g)
        jac = pmap.jacobian(pmap.zero_params())
        assert rank(jac) == 6  # n(n+1)/2

    def test_example15_similarity_rank(self, example15, example15_pattern):
        pmap = similarity_map(example15, example15_pattern)
        jac = pmap.jacobian(pmap.zero_params())
        assert rank(jac) == 9  # the 9 pattern directions already span M_3

    def test_surjectivity_matches_verifier(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            g = random_graph(rng, n)
            a = random_in_graph_class(rng, g)
            pmap = ssp_map(a, g)
            surjective = rank(pmap.jacobian(pmap.zero_params())) == pmap.ambient_dim
            assert surjective == verify_ssp(a, g).holds


class TestSolveToTarget:
    def test_identity_target(self, twisted_c4, c4):
        res = solve_to_target(ssp_map(twisted_c4, c4), twisted_c4)
        assert res.iterations == 0
        assert np.array_equal(res.matrix, twisted_c4)
        assert res.property_report.holds

    def test_target_within_tolerance_returns_the_base(self):
        # a solve would return a matrix similar to M rather than A itself,
        # which at a defective eigenvalue is not the same answer
        rng = np.random.default_rng(36)
        maps = all_maps_for(rng)[:4]
        b = np.array([[1.0, 1.0], [1.0, 0.0]])
        pb = SignPattern.from_matrix(b)
        maps.append(superpattern_map(b, pb, pb))
        for f in maps:
            e = rng.normal(size=f.base.shape)
            if f.kind in ("ssp", "smp", "sap"):
                e = e + e.T
            res = solve_to_target(f, f.base + 1e-15 * e / fro(e))
            assert np.array_equal(res.matrix, f.base), f.kind
            assert res.iterations == 0 and res.property_report.holds

    def test_p2_closed_form(self):
        g = Graph.path(2)
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        dec = sym_eig(a)
        m = dec.eigenvectors @ np.diag([-1.1, 0.9]) @ dec.eigenvectors.T
        res = solve_to_target(ssp_map(a, g), m)
        # closed form: trace and determinant pin the realized matrix
        assert np.allclose(np.linalg.eigvalsh(res.matrix), [-1.1, 0.9], atol=1e-10)
        assert np.trace(res.matrix) == pytest.approx(-0.2, abs=1e-10)
        assert np.linalg.det(res.matrix) == pytest.approx(-0.99, abs=1e-10)
        assert res.final_residual <= DEFAULT_TOL.newton_tol

    def test_example15_triple_eigenvalue(self, example15, example15_pattern):
        m = example15 + 0.01 * np.eye(3)
        res = solve_to_target(similarity_map(example15, example15_pattern), m)
        # A' is similar to a matrix with the triple eigenvalue 0.01; the
        # characteristic polynomial is the robust check (the eigenvalue
        # itself is defective, so Schur values only agree to ~cube root)
        want = np.array([-1e-6, 3e-4, -3e-2, 1.0])
        assert np.max(np.abs(char_poly(res.matrix) - want)) <= 1e-8
        eigs = np.sort_complex(np.linalg.eigvals(res.matrix))
        assert np.max(np.abs(eigs - 0.01)) <= 5e-3
        assert matrix_in_sign_class(res.matrix, example15_pattern)

    def test_surjectivity_failure(self, c4):
        # the plain C4 adjacency lacks the SSP
        with pytest.raises(SurjectivityFailure):
            solve_to_target(ssp_map(adjacency(c4), c4), adjacency(c4) * 1.01)

    def test_failing_base_report_raises(self, c4, twisted_c4):
        a = adjacency(c4)
        with pytest.raises(SurjectivityFailure):
            solve_to_target(ssp_map(a, c4), a * 1.01, base_report=verify_ssp(a, c4))
        # the report decides: a failing one is refused even where J(0) is onto
        failing = dataclasses.replace(verify_ssp(twisted_c4, c4), holds=False)
        with pytest.raises(SurjectivityFailure):
            solve_to_target(ssp_map(twisted_c4, c4), twisted_c4 * 1.01, base_report=failing)

    def test_base_report_for_another_property_is_refused(self, twisted_c4, c4):
        sap = verify_sap(twisted_c4, c4)
        with pytest.raises(InputError, match="SAP"):
            solve_to_target(ssp_map(twisted_c4, c4), twisted_c4 * 1.01, base_report=sap)
        with pytest.raises(InputError, match="SAP"):
            realize_spectrum(twisted_c4, c4, [-2.0, -0.1, 0.1, 2.0], base_report=sap)
        with pytest.raises(InputError, match="SAP"):
            realize_multiplicity_list(twisted_c4, c4, [1, 1, 2], base_report=sap)

    def test_rebased_map_shares_bases_and_skips_the_class_check(
        self, monkeypatch, twisted_c4, c4, example15, example15_pattern
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the solver built a specification basis")

        with monkeypatch.context() as patch:
            # building, solving and re-basing never build a basis
            for module in (bifurcation, patterns):
                for name in dir(module):
                    if name.endswith("_basis") and callable(getattr(module, name)):
                        patch.setattr(module, name, refuse)
            f = ssp_map(twisted_c4, c4)
            res = solve_to_target(f, twisted_c4 * 1.01)
            with monkeypatch.context() as no_check:
                no_check.setattr(bifurcation, "matrix_in_graph_class", None)
                moved = f.rebased(res.matrix)
            solve_to_target(moved, res.matrix * 1.01)
            g = similarity_map(example15, example15_pattern)
            solve_to_target(g.rebased(example15 * 1.01), example15 * 1.02)
        built = ssp_map(res.matrix, c4)
        assert np.array_equal(moved.base, built.base)
        params = 0.01 * np.arange(moved.param_dim)
        assert np.array_equal(moved.jacobian(params), built.jacobian(params))
        assert np.array_equal(f.base, twisted_c4)
        # bases built before a re-basing are shared with the moved map
        assert f.param_dim == moved.param_dim
        shared = f.rebased(res.matrix)
        assert shared._b_basis is f._b_basis and shared._second_basis is f._second_basis

    def test_no_convergence_reports_best(self, twisted_c4, c4):
        tight = Tolerances(newton_tol=1e-16, max_iter=2)
        dec = sym_eig(twisted_c4)
        m = dec.eigenvectors @ np.diag([-1.5, -1.4, 1.4, 1.5]) @ dec.eigenvectors.T
        with pytest.raises(NoConvergence) as exc_info:
            solve_to_target(smp_map(twisted_c4, c4), m, tight)
        assert exc_info.value.best_residual is not None
        assert len(exc_info.value.trace) >= 1


def lanczos_tridiagonal(values, weights):
    """Independent oracle: Jacobi matrix with the given spectrum and
    leading weight vector, by the three-term Lanczos recursion on the
    diagonal matrix of values."""
    d = np.diag(np.asarray(values, dtype=float))
    v = np.asarray(weights, dtype=float)
    v = v / np.linalg.norm(v)
    n = d.shape[0]
    alphas, betas = [], []
    v_prev = np.zeros(n)
    beta = 0.0
    for step in range(n):
        w = d @ v
        alpha = float(v @ w)
        alphas.append(alpha)
        w = w - alpha * v - beta * v_prev
        if step < n - 1:
            beta = float(np.linalg.norm(w))
            betas.append(beta)
            v_prev, v = v, w / beta
    t = np.diag(alphas)
    for i, b in enumerate(betas):
        t[i, i + 1] = t[i + 1, i] = b
    return t


class TestRealizeSpectrum:
    def test_identity(self, twisted_c4, c4):
        lam = np.linalg.eigvalsh(twisted_c4)
        res = realize_spectrum(twisted_c4, c4, lam)
        assert res.iterations == 0
        assert np.allclose(res.matrix, twisted_c4)

    def test_path3_matches_tridiagonal_oracle(self):
        g = Graph.path(3)
        a = adjacency(g)
        res = realize_spectrum(a, g, [-1.0, 0.0, 1.0])
        assert res.final_residual <= 1e-9
        assert np.allclose(np.linalg.eigvalsh(res.matrix), [-1.0, 0.0, 1.0], atol=1e-9)
        # oracle: Jacobi reconstruction from the target spectrum and the
        # analytic leading weights (1/2, 1/sqrt 2, 1/2) of the path base
        oracle = lanczos_tridiagonal([-1.0, 0.0, 1.0], [0.5, 1.0 / np.sqrt(2.0), 0.5])
        assert np.max(np.abs(np.abs(res.matrix) - np.abs(oracle))) <= 1e-6
        assert res.property_report.holds

    def test_homotopy_matches_single_solve(self, twisted_c4, c4):
        target = np.linalg.eigvalsh(twisted_c4) + np.array([-0.31, -0.17, 0.11, 0.23])
        direct = realize_spectrum(twisted_c4, c4, target, trust_radius=10.0)
        walked = realize_spectrum(twisted_c4, c4, target, trust_radius=0.05)
        assert np.max(np.abs(
            np.linalg.eigvalsh(direct.matrix) - np.linalg.eigvalsh(walked.matrix)
        )) <= 1e-8

    def test_cycle_target_admissible(self, twisted_c4, c4):
        res = realize_spectrum(twisted_c4, c4, [-2.0, -0.1, 0.1, 2.0])
        assert cycle_spectrum_admissible(np.linalg.eigvalsh(res.matrix))

    def test_base_without_ssp_rejected(self, c4):
        with pytest.raises(SurjectivityFailure):
            realize_spectrum(adjacency(c4), c4, [-2.0, -0.1, 0.1, 2.0])


class TestRealizeMultiplicityList:
    def test_identity(self, twisted_c4, c4):
        res = realize_multiplicity_list(twisted_c4, c4, [2, 2])
        assert res.iterations == 0
        assert tuple(res.achieved) == (2, 2)

    def test_not_a_refinement(self, twisted_c4, c4):
        with pytest.raises(NotARefinement):
            realize_multiplicity_list(twisted_c4, c4, [1, 2, 1])

    @pytest.mark.parametrize("target", [(1, 1, 2), (2, 1, 1), (1, 1, 1, 1)])
    def test_refinements_of_twisted_c4(self, twisted_c4, c4, target):
        res = realize_multiplicity_list(twisted_c4, c4, target)
        assert tuple(res.achieved) == target
        assert matrix_in_graph_class(res.matrix, c4)
        assert res.property_report.holds  # SMP re-verified

    def test_refinement_preorder_chain(self, twisted_c4, c4):
        first = realize_multiplicity_list(twisted_c4, c4, [1, 1, 2])
        second = realize_multiplicity_list(first.matrix, c4, [1, 1, 1, 1])
        assert tuple(second.achieved) == (1, 1, 1, 1)

    @pytest.mark.parametrize("s", [0.5, 100.0])
    def test_trust_radius_is_in_the_units_of_a(self, twisted_c4, c4, s):
        # the base is rescaled to unit norm for the solve, and the trust
        # radius with it: (s A, s r) realizes s times what (A, r) does
        one = realize_multiplicity_list(twisted_c4, c4, [1, 1, 2], trust_radius=0.05)
        res = realize_multiplicity_list(s * twisted_c4, c4, [1, 1, 2], trust_radius=0.05 * s)
        assert np.allclose(res.matrix / s, one.matrix, rtol=0.0, atol=1e-12)

    def test_wrong_total(self, twisted_c4, c4):
        with pytest.raises(InputError):
            realize_multiplicity_list(twisted_c4, c4, [2, 2, 1])

    @pytest.mark.parametrize("s", [1e-4, 1e-2, 1.0, 1e2, 1e4])
    def test_scaled_cycles(self, s):
        # the SMP chart's cluster-value columns are O(1) and its group
        # columns scale with the base, so a base of any norm is solved at
        # unit norm
        c6, c8 = Graph.cycle(6), Graph.cycle(8)
        res = realize_multiplicity_list(s * adjacency(c8), c8, (1, 1, 1, 2, 2, 1))
        assert tuple(res.achieved) == (1, 1, 1, 2, 2, 1)
        assert matrix_in_graph_class(res.matrix, c8)
        res = realize_multiplicity_list(s * adjacency(c6), c6, (1,) * 6)
        assert tuple(res.achieved) == (1,) * 6
        assert realize_q(s * adjacency(c6), c6, 6).achieved == 6

    @pytest.mark.parametrize("s", [1e-8, 1e-6])
    @pytest.mark.parametrize("n, target", [(8, (1, 1, 1, 2, 2, 1)), (6, (1,) * 6)])
    def test_tiny_cycles_read_the_achieved_list_at_unit_norm(self, s, n, target):
        # below spread 1 the clustering threshold is absolute, so the
        # achieved list is read where the base's is, on the unit-norm matrix
        g = Graph.cycle(n)
        res = realize_multiplicity_list(s * adjacency(g), g, target)
        assert tuple(res.achieved) == target
        assert matrix_in_graph_class(res.matrix, g) and res.property_report.holds
        # realize_q reads q(A), its split and the achieved q there too
        assert realize_q(s * adjacency(g), g, n).achieved == n


class TestRealizeInertia:
    def test_identity(self):
        g = Graph.complete(2)
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        res = realize_inertia(a, g, (1, 0))
        assert res.iterations == 0

    def test_one_by_one(self):
        g = Graph.empty(1)
        res = realize_inertia(np.zeros((1, 1)), g, (1, 0))
        assert res.matrix[0, 0] > 1e-3
        assert pin(res.matrix) == (1, 0)

    @pytest.mark.parametrize("target", [(1, 1), (2, 0)])
    def test_p2_northeast(self, target):
        g = Graph.complete(2)
        a = np.array([[1.0, 1.0], [1.0, 1.0]])  # eigenvalues 0, 2
        res = realize_inertia(a, g, target)
        assert pin(res.matrix) == target
        # determinant sign is the 2x2 closed-form check
        det = float(np.linalg.det(res.matrix))
        assert (det < 0) == (target == (1, 1))
        assert res.property_report.holds

    def test_unreachable(self):
        g = Graph.complete(2)
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(UnreachableInertia):
            realize_inertia(a, g, (0, 1))
        with pytest.raises(UnreachableInertia):
            realize_inertia(a, g, (2, 1))


class TestRealizeRank:
    def test_identity_and_walk(self):
        g = Graph.complete(2)
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        res = realize_rank(a, g, 2)
        assert sum(pin(res.matrix)) == 2
        assert res.target_kind == "rank"
        with pytest.raises(TargetError):
            realize_rank(a, g, 0)
        with pytest.raises(TargetError):
            realize_rank(a, g, 3)


class TestRealizeQ:
    def test_identity(self, twisted_c4, c4):
        res = realize_q(twisted_c4, c4, 2)
        assert res.achieved == 2

    def test_k3_increment(self):
        g = Graph.complete(3)
        a = adjacency(g)  # spectrum (-1, -1, 2), q = 2, SSP trivially
        res = realize_q(a, g, 3)
        lam = np.linalg.eigvalsh(res.matrix)
        assert tuple(ordered_multiplicity_list(lam)) == (1, 1, 1)
        assert matrix_in_graph_class(res.matrix, g)

    def test_q_steps_from_c4(self, twisted_c4, c4):
        for target_q in (3, 4):
            res = realize_q(twisted_c4, c4, target_q)
            assert res.achieved == target_q
            assert res.property_report.holds

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
    def test_split_below_cluster_threshold_raises(self):
        # a split of width 1e-8 merges back into one cluster (cluster_tol
        # 1e-6), so q cannot grow; this used to loop forever
        def timed_out(signum, frame):
            raise TimeoutError("realize_q did not return within 20 s")

        g = Graph.complete(3)
        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(20)
        try:
            with pytest.raises(TargetError, match="clustering threshold"):
                realize_q(adjacency(g), g, 3, trust_radius=1e-8)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_all_splits_of_a_signed_c12_at_once(self):
        # five splits in one move: each split's width comes from A's gaps,
        # not from the gaps that an earlier split made
        g = Graph.cycle(12)
        d = np.array([(-1.0) ** (i // 2) for i in range(12)])
        a = d[:, None] * adjacency(g) * d[None, :]
        res = realize_q(a, g, 12)
        lam = np.linalg.eigvalsh(res.matrix)
        assert res.achieved == 12 and len(ordered_multiplicity_list(lam)) == 12
        assert matrix_in_graph_class(res.matrix, g) and res.property_report.holds

    def test_out_of_range(self, twisted_c4, c4):
        with pytest.raises(TargetError):
            realize_q(twisted_c4, c4, 1)
        with pytest.raises(TargetError):
            realize_q(twisted_c4, c4, 5)


class TestRealizeSimilar:
    def test_identity(self, example15, example15_pattern):
        res = realize_similar(example15, example15_pattern, example15)
        assert res.iterations == 0

    def test_triple_spectrum_via_homotopy(self, example15, example15_pattern):
        m = example15 + 0.01 * np.eye(3)
        res = realize_similar(example15, example15_pattern, m, trust_radius=0.02)
        assert np.max(np.abs(char_poly(res.matrix) - char_poly(m))) <= 1e-8
        assert res.property_report.holds

    def test_schur_planted_spectrum(self, example15, example15_pattern):
        # target built by planting {0.01, +-0.01i} on the Schur form of the
        # nilpotent base, then realized inside the full pattern
        from strongprops.arbitrary import ConjInvariantSpectrum, nilpotent_nearby

        spec = ConjInvariantSpectrum(reals=(0.01,), pairs=((0.0, 0.01),))
        m = nilpotent_nearby(example15, spec)
        res = realize_similar(example15, example15_pattern, m)
        assert np.max(np.abs(char_poly(res.matrix) - spec.char_poly())) <= 1e-8
        assert matrix_in_sign_class(res.matrix, example15_pattern)

    def test_scaling_commutes(self, example15, example15_pattern):
        m = example15 + 0.01 * np.eye(3)
        res = realize_similar(example15, example15_pattern, m)
        k = 8.0
        scaled = k * res.matrix
        # spec(k A') = k spec(A'): compare monic coefficients, which scale
        # as k^(n - degree)
        coeffs = char_poly(res.matrix)
        scaled_coeffs = char_poly(scaled)
        n = 3
        for j in range(n + 1):
            assert scaled_coeffs[j] == pytest.approx(
                coeffs[j] * k ** (n - j), rel=1e-8, abs=1e-12
            )
        assert matrix_in_sign_class(scaled, example15_pattern)

    def test_base_report_for_another_property_is_refused(
        self, twisted_c4, c4, example15, example15_pattern
    ):
        sap = verify_sap(twisted_c4, c4)
        with pytest.raises(InputError, match="SAP"):
            realize_similar(example15, example15_pattern, example15, base_report=sap)

    def test_requires_nssp(self):
        j2 = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(SurjectivityFailure):
            realize_similar(j2, SignPattern.from_matrix(j2), j2 + 0.01 * np.eye(2))

    def test_far_targets_walk_through_the_spectrum(self, monkeypatch):
        def timed_out(signum, frame):
            raise TimeoutError("far targets not realized within 20 s")

        hops = []
        solve = bifurcation.solve_to_target

        def counted(*args, **kwargs):
            hops.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(bifurcation, "solve_to_target", counted)
        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(20)
        changes = set()
        try:
            for a, p, m in _far_similar_targets():
                hops.clear()
                res = realize_similar(a, p, m, trust_radius=0.2)
                assert len(hops) >= 2  # none is reached in one hop
                assert matrix_in_sign_class(res.matrix, p)
                assert res.property_report.holds
                assert verify_nssp(res.matrix, pattern=p).holds
                assert np.max(np.abs(char_poly(res.matrix) - char_poly(m))) <= 1e-8
                changes.add(np.sign(_real_count(m) - _real_count(a)))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        # reals became conjugate pairs, and conjugate pairs reals
        assert changes == {-1, 0, 1}

    def test_far_target_with_repeated_eigenvalue_raises(self, monkeypatch, example15, example15_pattern):
        # a matched spectrum would not fix the similarity class of
        # diag(1, 1, -2), so no hop is tried
        def no_solve(*args, **kwargs):
            raise AssertionError("solved toward a derogatory spectrum")

        monkeypatch.setattr(bifurcation, "solve_to_target", no_solve)
        s = np.eye(3) + 0.1 * np.arange(9.0).reshape(3, 3) / 8.0
        m = s @ np.diag([1.0, 1.0, -2.0]) @ np.linalg.inv(s)
        with pytest.raises(NoConvergence, match="repeated eigenvalue"):
            realize_similar(example15, example15_pattern, m)


def _real_count(m) -> int:
    return int(np.sum(np.abs(np.linalg.eigvals(m).imag) < 1e-9))


def _far_similar_targets():
    """Ten seeded targets S B S^-1 at n = 4-6, five trust radii of 0.2 from
    a base A with the nSSP: B is in A's sign class at distance 1 from it
    and S = I + 0.1 G.  Their spectra differ from A's; some have more real
    eigenvalues than A, some fewer."""
    rng = np.random.default_rng(4)
    cases = []
    for k in range(10):
        n = 4 + k % 3
        while True:
            a = rng.choice([-1.0, 1.0], size=(n, n)) * (0.5 + rng.random((n, n)))
            a[rng.random((n, n)) < 0.4] = 0.0
            p = SignPattern.from_matrix(a)
            if verify_nssp(a, pattern=p).holds:
                break
        while True:
            e = rng.normal(size=(n, n)) * (a != 0)
            b = a + e / np.linalg.norm(e)
            if matrix_in_sign_class(b, p):
                break
        s = np.eye(n) + 0.1 * rng.normal(size=(n, n))
        cases.append((a, p, s @ b @ np.linalg.inv(s)))
    return cases


def _sorted_spectrum(values) -> np.ndarray:
    values = np.asarray(values, dtype=complex)
    return values[np.lexsort((values.imag, np.round(values.real, 8)))]


def test_spectral_waypoint_interpolates_eigenvalues():
    # T in real Schur form: 3.0 | 2 +- i | 3.1 | 1.0 | -1 +- 0.5i, with
    # coupling above the diagonal blocks; the reals 3.0 and 3.1 are apart
    rng = np.random.default_rng(0)
    t = np.triu(0.3 * rng.normal(size=(7, 7)), 1)
    t[np.diag_indices(7)] = (3.0, 2.0, 2.0, 3.1, 1.0, -1.0, -1.0)
    t[1, 2], t[2, 1] = 1.0, -1.0
    t[5, 6], t[6, 5] = 0.5, -0.5
    q, _ = np.linalg.qr(rng.normal(size=(7, 7)))
    cur = q @ t @ q.T
    # the pair -1 +- 0.5i meets the reals -1.2, -0.9, and the reals 3.0,
    # 3.1 the pair 3.05 +- 0.2i: both slots cross the real axis
    walk = bifurcation._spectral_walk(
        RealSchurForm(orthogonal=q, quasi_triangular=t),
        [-1.2, -0.9, 1.3],
        [(2.2, -0.64), (3.05, -0.04)],
    )
    assert fro(walk.schur.reconstruct() - cur) <= 1e-12
    # xTREXC brought the reals 3.0 and 3.1 next to each other
    diag = list(np.diag(walk.schur.quasi_triangular))
    assert abs(diag.index(3.0) - diag.index(3.1)) == 1
    # 1 -> 1.3; (2, -1) -> (2.2, -0.8); (3.05, 0.05) -> (3.05, -0.2);
    # (-1, -0.5) -> (-1.05, 0.15), in (mean, root) with weight 2
    assert walk.distance == pytest.approx(math.sqrt(1.225), rel=1e-12)

    def expected(frac):
        out = [1.0 + 0.3 * frac]
        for mean, root in ((2.0 + 0.2 * frac, -1.0 + 0.2 * frac),
                           (3.05, 0.05 - 0.25 * frac),
                           (-1.0 - 0.05 * frac, -0.5 + 0.65 * frac)):
            offset = root if root >= 0 else 1j * root
            out += [mean + offset, mean - offset]
        return _sorted_spectrum(out)

    for frac in (0.3, 0.7, 1.0, 2.0):
        trust = frac * walk.distance
        w = walk.waypoint(trust)
        assert fro(w - cur) <= min(trust, walk.distance) + 1e-12
        eigs = _sorted_spectrum(np.linalg.eigvals(w))
        assert np.max(np.abs(eigs - expected(min(frac, 1.0)))) <= 1e-8
    # at 0.3 the reals 3.0, 3.1 have become a conjugate pair, at 1.0 the
    # pair -1 +- 0.5i two reals
    assert _real_count(walk.waypoint(0.3 * walk.distance)) == 1
    assert _real_count(walk.waypoint(walk.distance)) == 3


class TestRealizeSuperpattern:
    def test_pattern_is_its_own_superpattern(self, example15, example15_pattern):
        res = realize_superpattern(example15, example15_pattern, example15_pattern)
        assert res.iterations == 0
        assert np.array_equal(res.matrix, example15)

    def test_jordan_block_lacks_nssp(self):
        j2 = np.array([[0.0, 1.0], [0.0, 0.0]])
        p = SignPattern.from_matrix(j2)
        p_super = SignPattern.from_rows([[1, 1], [0, 0]])
        with pytest.raises(SurjectivityFailure):
            realize_superpattern(j2, p, p_super)

    def test_fills_new_cell(self):
        a = np.array([[1.0, 1.0], [1.0, 0.0]])  # has the nSSP
        p = SignPattern.from_matrix(a)
        p_super = SignPattern.from_rows([[1, 1], [1, -1]])
        res = realize_superpattern(a, p, p_super)
        assert matrix_in_sign_class(res.matrix, p_super)
        assert res.matrix[1, 1] < 0.0
        # similar to the base: characteristic polynomials agree
        assert np.max(np.abs(char_poly(res.matrix) - char_poly(a))) <= 1e-8
        assert res.property_report.holds

    def test_not_a_superpattern(self):
        a = np.array([[1.0, 1.0], [1.0, 0.0]])
        p = SignPattern.from_matrix(a)
        bad = SignPattern.from_rows([[-1, 1], [1, 0]])
        with pytest.raises(NotASuperpattern):
            realize_superpattern(a, p, bad)


def _with_trust_radius(name, radius):
    """Call the realizer ``name`` on a small instance that it can realize,
    with trust radius ``radius`` (for the superpattern, its step, which is
    the hop's trust radius)."""
    c4, k2 = Graph.cycle(4), Graph.complete(2)
    twisted = adjacency(c4)
    twisted[0, 3] = twisted[3, 0] = -1.0
    ones = np.ones((2, 2))
    b = np.array([[1.0, 1.0], [1.0, 0.0]])
    pb = SignPattern.from_matrix(b)
    calls = {
        "spectrum": lambda: realize_spectrum(twisted, c4, [-2.0, -0.1, 0.1, 2.0],
                                             trust_radius=radius),
        "multiplicity_list": lambda: realize_multiplicity_list(twisted, c4, [1, 1, 2],
                                                               trust_radius=radius),
        "inertia": lambda: realize_inertia(ones, k2, (1, 1), trust_radius=radius),
        "rank": lambda: realize_rank(ones, k2, 2, trust_radius=radius),
        "q": lambda: realize_q(twisted, c4, 3, trust_radius=radius),
        "similar": lambda: realize_similar(b, pb, np.array([[1.5, 1.0], [0.5, 0.0]]),
                                           trust_radius=radius),
        "superpattern": lambda: realize_superpattern(
            b, pb, SignPattern.from_rows([[1, 1], [1, -1]]), step=radius),
    }
    return calls[name]()


@pytest.mark.parametrize("radius", [-0.1, 0.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "name", ["spectrum", "multiplicity_list", "inertia", "rank", "q", "similar", "superpattern"])
def test_trust_radius_must_be_finite_and_positive(name, radius):
    with pytest.raises(InputError, match="trust radius"):
        _with_trust_radius(name, radius)


class TestSurjectivityFromReports:
    """The verifier decides surjectivity: no solve computes the rank of
    J(0), and each realizer hands the solve the report of the hop's base."""

    @pytest.fixture(autouse=True)
    def rank_forbidden(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("rank of J(0) computed for a verified base")

        monkeypatch.setattr(bifurcation, "rank", forbidden)

    def test_bare_solve_verifies_its_base(self, monkeypatch, twisted_c4, c4):
        calls = []
        verify = bifurcation.verify_ssp

        def counted(*args, **kwargs):
            calls.append(args[0])
            return verify(*args, **kwargs)

        monkeypatch.setattr(bifurcation, "verify_ssp", counted)
        res = solve_to_target(ssp_map(twisted_c4, c4), twisted_c4 * 1.01)
        # the base, then the realized matrix
        assert len(calls) == 2
        assert np.array_equal(calls[0], twisted_c4)
        assert np.array_equal(calls[1], res.matrix)

    def test_bare_superpattern_solve(self):
        # J(0) is onto exactly when A has the nSSP for its own pattern
        a = np.array([[1.0, 1.0], [1.0, 0.0]])
        p_super = SignPattern.from_rows([[1, 1], [1, -1]])
        m = a + np.array([[0.0, 0.0], [0.0, -0.05]])
        res = solve_to_target(superpattern_map(a, SignPattern.from_matrix(a), p_super), m)
        assert res.property_report.holds and res.matrix[1, 1] < 0

    def test_spectrum_homotopy(self, twisted_c4, c4):
        res = realize_spectrum(twisted_c4, c4, [-2.0, -0.1, 0.1, 2.0], trust_radius=0.5)
        assert res.iterations > 0 and res.property_report.holds

    def test_multiplicity_list(self, twisted_c4, c4):
        res = realize_multiplicity_list(twisted_c4, c4, [1, 1, 2])
        assert tuple(res.achieved) == (1, 1, 2) and res.property_report.holds

    def test_inertia_and_rank(self):
        g = Graph.complete(2)
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert pin(realize_inertia(a, g, (1, 1)).matrix) == (1, 1)
        assert sum(pin(realize_rank(a, g, 2).matrix)) == 2

    def test_q(self, twisted_c4, c4):
        assert realize_q(twisted_c4, c4, 4).achieved == 4

    def test_similar_homotopy(self):
        # a pattern with a zero cell, so that each hop has an equation left
        a = np.array([[1.0, 1.0], [1.0, 0.0]])
        m = a + 0.01 * np.eye(2)
        res = realize_similar(a, SignPattern.from_matrix(a), m, trust_radius=0.01)
        assert res.iterations > 0 and res.property_report.holds

    def test_superpattern(self):
        a = np.array([[1.0, 1.0], [1.0, 0.0]])
        p_super = SignPattern.from_rows([[1, 1], [1, -1]])
        res = realize_superpattern(a, SignPattern.from_matrix(a), p_super)
        assert res.iterations > 0 and res.property_report.holds


_SIMILAR_BASE = np.array([[1.0, 1.0], [1.0, 0.0]])
_REALIZE_EVERY_KIND = {
    "spectrum": lambda t, g: realize_spectrum(t, g, [-2.0, -0.1, 0.1, 2.0], trust_radius=0.5),
    "multiplicity_list": lambda t, g: realize_multiplicity_list(t, g, [1, 1, 2]),
    "q": lambda t, g: realize_q(t, g, 4),
    # C4's adjacency has the SAP and a double zero, and C4 has non-edges
    "inertia": lambda t, g: realize_inertia(adjacency(g), g, (2, 1)),
    "rank": lambda t, g: realize_rank(adjacency(g), g, 4),
    "similar": lambda t, g: realize_similar(
        _SIMILAR_BASE, SignPattern.from_matrix(_SIMILAR_BASE),
        _SIMILAR_BASE + 0.01 * np.eye(2), trust_radius=0.01,
    ),
    "superpattern": lambda t, g: realize_superpattern(
        _SIMILAR_BASE, SignPattern.from_matrix(_SIMILAR_BASE),
        SignPattern.from_rows([[1, 1], [1, -1]]),
    ),
}


@pytest.mark.parametrize("kind", sorted(_REALIZE_EVERY_KIND))
def test_every_step_is_taken_from_a_qr(monkeypatch, twisted_c4, c4, kind):
    """The step matrices have full row rank, so every Gauss-Newton step of
    every realizer comes from the QR of the step matrix's transpose, and
    none reaches the xGELSY fallback."""

    def forbidden(*args, **kwargs):
        raise AssertionError("Gauss-Newton step fell back to xGELSY")

    monkeypatch.setattr(numerics.scipy.linalg, "lstsq", forbidden)
    steps = _counted(monkeypatch, "lstsq_min_norm")
    res = _REALIZE_EVERY_KIND[kind](twisted_c4, c4)
    assert steps and res.iterations > 0 and res.property_report.holds


def _counted(monkeypatch, name):
    """Record the matrix of every call of ``bifurcation.name``."""
    calls = []
    verify = getattr(bifurcation, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return verify(*args, **kwargs)

    monkeypatch.setattr(bifurcation, name, counted)
    return calls


def test_q_verifies_the_base_and_the_result_once(monkeypatch, twisted_c4, c4):
    calls = _counted(monkeypatch, "verify_ssp")
    res = realize_q(twisted_c4, c4, 4)
    # the base, then the matrix that realizes both splits at once
    assert len(calls) == 2
    assert np.array_equal(calls[-1], res.matrix)


def test_inertia_moves_every_zero_in_one_hop(monkeypatch):
    calls = _counted(monkeypatch, "verify_sap")
    g = Graph.complete(3)
    res = realize_inertia(np.ones((3, 3)), g, (2, 1))  # eigenvalues 0, 0, 3
    assert pin(res.matrix) == (2, 1) and res.property_report.holds
    # the base, then the one hop that moves both zero eigenvalues
    assert len(calls) == 2
    assert np.array_equal(calls[-1], res.matrix)


def test_multiplicity_list_verifies_the_smp_once(monkeypatch, twisted_c4, c4):
    calls = _counted(monkeypatch, "verify_smp")
    res = realize_multiplicity_list(twisted_c4, c4, [1, 1, 2])
    # the base, then the hop's realized matrix at unit norm, which scaled
    # back is the result: the SMP is not verified again at full scale
    assert len(calls) == 2
    assert np.array_equal(calls[0], twisted_c4)
    assert np.array_equal(fro(twisted_c4) * calls[1], res.matrix)


def _class_checks(monkeypatch):
    """Record the matrix of every graph or sign class check, whichever
    module makes it."""
    calls = []
    for name in ("matrix_in_graph_class", "matrix_in_sign_class"):
        check = getattr(patterns, name)

        def counted(a, *args, check=check, **kwargs):
            calls.append(a)
            return check(a, *args, **kwargs)

        for module in (patterns, verifiers, bifurcation):
            monkeypatch.setattr(module, name, counted)
    return calls


def test_accepted_solves_check_their_class_once(monkeypatch, twisted_c4, c4):
    # the re-verification of the realized matrix makes the solve's only check
    dec, pattern = sym_eig(twisted_c4), SignPattern.from_matrix(_SIMILAR_BASE)
    moved = dec.eigenvectors @ np.diag([-1.5, -1.4, 1.4, 1.5]) @ dec.eigenvectors.T
    solves = [(ssp_map(twisted_c4, c4), verify_ssp(twisted_c4, c4), moved),
              (similarity_map(_SIMILAR_BASE, pattern),
               verify_nssp(_SIMILAR_BASE, pattern=pattern), _SIMILAR_BASE + 0.01 * np.eye(2))]
    for f, report, target in solves:
        with monkeypatch.context() as patch:
            calls = _class_checks(patch)
            res = solve_to_target(f, target, base_report=report)
        assert res.iterations > 0 and res.property_report.holds
        assert len(calls) == 1 and np.array_equal(calls[0], res.matrix)


def test_realized_matrix_outside_its_class_is_a_pattern_violation(monkeypatch, twisted_c4, c4):
    realized = bifurcation.LocalChart.realized

    def zero_edge(chart):
        out = realized(chart)
        out[0, 1] = out[1, 0] = 0.0
        return out

    monkeypatch.setattr(bifurcation.LocalChart, "realized", zero_edge)
    with pytest.raises(PatternViolation, match="left the pattern class") as error:
        solve_to_target(ssp_map(twisted_c4, c4), twisted_c4 * 1.01 + 0.01 * np.eye(4))
    assert type(error.value) is PatternViolation
    assert isinstance(error.value.__cause__, NotInClass)


def test_multiplicity_split_that_loses_the_smp_halves(monkeypatch, twisted_c4, c4):
    # the first split's re-verification fails: the hop halves its width, as
    # for any other failed hop, and the second split is accepted
    calls, verify = [], bifurcation.verify_smp

    def failing_once(a, *args, **kwargs):
        calls.append(a)
        report = verify(a, *args, **kwargs)
        return dataclasses.replace(report, holds=False) if len(calls) == 2 else report

    monkeypatch.setattr(bifurcation, "verify_smp", failing_once)
    res = realize_multiplicity_list(twisted_c4, c4, [1, 1, 2])
    assert tuple(res.achieved) == (1, 1, 2) and res.property_report.holds
    # the base, the split that lost the SMP, then one of about half its
    # width (the SMP map moves the split values a little)
    assert len(calls) == 3
    widths = [np.diff(np.linalg.eigvalsh(m)[:2])[0] for m in calls[1:]]
    assert widths[1] == pytest.approx(widths[0] / 2.0, rel=0.01)

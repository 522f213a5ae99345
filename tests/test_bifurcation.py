import signal

import numpy as np
import pytest

from strongprops.bifurcation import (
    derivative_at,
    evaluate_map,
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
    SurjectivityFailure,
    TargetError,
    UnreachableInertia,
)
from strongprops.numerics import DEFAULT_TOL, Tolerances, char_poly, fro, rank, sym_eig
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
from strongprops.verifiers import verify_ssp

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
            assert np.array_equal(evaluate_map(pmap, pmap.zero_params()), pmap.base)

    def test_orthogonal_conjugation_preserves_spectrum(self, twisted_c4, c4):
        rng = np.random.default_rng(31)
        pmap = ssp_map(twisted_c4, c4)
        params = pmap.zero_params()
        params[pmap._b_basis.dim :] = rng.normal(size=pmap._second_basis.dim) * 0.3
        out = evaluate_map(pmap, params)
        assert np.max(np.abs(
            np.linalg.eigvalsh(out) - np.linalg.eigvalsh(twisted_c4)
        )) <= 1e-10

    def test_congruence_by_scaled_identity(self, twisted_c4, c4):
        # L = 0.1 * I: congruence by 1.1 * I scales the matrix by 1.21
        pmap = sap_map(twisted_c4, c4)
        params = pmap.zero_params()
        params[pmap._b_basis.dim :] = pmap._second_basis.coefficients_of(0.1 * np.eye(4))
        out = evaluate_map(pmap, params)
        assert np.allclose(out, 1.21 * twisted_c4, atol=1e-12)

    def test_map_identities(self):
        # spectra / characteristic polynomials / inertias tie the output to
        # the perturbed base exactly, per map kind
        rng = np.random.default_rng(32)
        for pmap in all_maps_for(rng):
            params = rng.normal(size=pmap.param_dim) * 0.05
            b = pmap.b_matrix(params)
            out = evaluate_map(pmap, params)
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
            evaluate_map(pmap, params)


class TestDerivatives:
    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(33)
        h = 1e-5
        for pmap in all_maps_for(rng):
            params = rng.normal(size=pmap.param_dim) * 0.05
            jac = derivative_at(pmap, params)
            for t in rng.choice(pmap.param_dim, size=min(6, pmap.param_dim), replace=False):
                e = np.zeros(pmap.param_dim)
                e[t] = 1.0
                fd = (
                    evaluate_map(pmap, params + h * e)
                    - evaluate_map(pmap, params - h * e)
                ) / (2.0 * h)
                denom = max(1.0, float(np.linalg.norm(fd)))
                assert (
                    np.linalg.norm(jac[:, t] - fd.reshape(-1)) / denom <= 1e-6
                ), pmap.kind

    def test_complete_graph_full_row_rank(self):
        rng = np.random.default_rng(34)
        g = Graph.complete(3)
        pmap = ssp_map(random_in_graph_class(rng, g), g)
        jac = derivative_at(pmap, pmap.zero_params())
        assert rank(jac) == 6  # n(n+1)/2

    def test_example15_similarity_rank(self, example15, example15_pattern):
        pmap = similarity_map(example15, example15_pattern)
        jac = derivative_at(pmap, pmap.zero_params())
        assert rank(jac) == 9  # the 9 pattern directions already span M_3

    def test_surjectivity_matches_verifier(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            g = random_graph(rng, n)
            a = random_in_graph_class(rng, g)
            pmap = ssp_map(a, g)
            surjective = rank(derivative_at(pmap, pmap.zero_params())) == pmap.ambient_dim
            assert surjective == verify_ssp(a, g).holds


class TestSolveToTarget:
    def test_identity_target(self, twisted_c4, c4):
        res = solve_to_target(ssp_map(twisted_c4, c4), twisted_c4)
        assert res.iterations == 0
        assert np.array_equal(res.matrix, twisted_c4)
        assert res.property_report.holds

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

    def test_wrong_total(self, twisted_c4, c4):
        with pytest.raises(InputError):
            realize_multiplicity_list(twisted_c4, c4, [2, 2, 1])


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

    def test_requires_nssp(self):
        j2 = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(SurjectivityFailure):
            realize_similar(j2, SignPattern.from_matrix(j2), j2 + 0.01 * np.eye(2))


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

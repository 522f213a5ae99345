import numpy as np
import pytest
from itertools import combinations

from strongprops.arbitrary import (
    CHAR_POLY_RESIDUAL_TOL,
    ConjInvariantSpectrum,
    _allocate_perturbations,
    certify_inertially_arbitrary,
    certify_spectrally_arbitrary,
    is_nilpotent,
    nilpotency_norms,
    nilpotent_nearby,
    nj_jacobian_diagnostic,
    raise_nilpotent_index,
)
from strongprops.errors import HypothesisFailure, InputError, InternalCheckError
from strongprops.numerics import char_poly, fro
from strongprops.patterns import SignPattern, matrix_in_sign_class


def random_nilpotent(rng, n: int) -> np.ndarray:
    """Exactly nilpotent random matrix: integer strictly upper triangular
    conjugated by a signed permutation.

    Exact representability matters: the computed eigenvalues of a generic
    float nilpotent of index k scatter like roundoff^(1/k), which would
    drown the tight distance bounds checked below.
    """
    t = np.triu(rng.integers(-3, 4, size=(n, n)).astype(float), k=1)
    if n > 1 and np.all(np.diag(t, 1) == 0.0):
        t[0, 1] = 1.0
    perm = rng.permutation(n)
    signs = rng.choice([-1.0, 1.0], size=n)
    q = np.zeros((n, n))
    for v, image in enumerate(perm):
        q[image, v] = signs[v]
    return q @ t @ q.T


class TestConjInvariantSpectrum:
    def test_from_values_groups_pairs(self):
        spec = ConjInvariantSpectrum.from_values([1.0, 2.0 + 1.0j, 2.0 - 1.0j])
        assert spec.reals == (1.0,)
        assert spec.pairs == ((2.0, 1.0),)
        assert spec.size == 3

    def test_rejects_unpaired(self):
        with pytest.raises(InputError):
            ConjInvariantSpectrum.from_values([1.0j, 1.0])
        with pytest.raises(InputError):
            ConjInvariantSpectrum(pairs=((0.0, -1.0),))

    def test_sum_squares(self):
        spec = ConjInvariantSpectrum(reals=(3.0,), pairs=((1.0, 2.0),))
        assert spec.sum_squares() == pytest.approx(9.0 + 2.0 * 5.0)

    def test_char_poly_oracle(self):
        spec = ConjInvariantSpectrum(reals=(0.5, -2.0), pairs=((0.3, 0.7),))
        ref = np.poly(spec.as_complex()).real[::-1]
        assert np.allclose(spec.char_poly(), ref)

    def test_scaled(self):
        spec = ConjInvariantSpectrum(reals=(2.0,), pairs=((1.0, 1.0),))
        half = spec.scaled(0.5)
        assert half.reals == (1.0,) and half.pairs == ((0.5, 0.5),)


class TestNilpotencyCheck:
    def test_example15(self, example15):
        norms = nilpotency_norms(example15)
        assert norms["is_nilpotent"]
        assert norms["power_norm"] <= 1e-12

    def test_rejects_identity(self):
        assert not is_nilpotent(np.eye(3))


class TestNilpotentNearby:
    def test_zero_spectrum_returns_base(self, example15):
        m = nilpotent_nearby(example15, ConjInvariantSpectrum(reals=(0.0, 0.0, 0.0)))
        assert np.array_equal(m, example15)

    def test_paper_case_table_large_x(self):
        # existing superdiagonal x = 1 > b = 0.1 keeps x and adds -b^2/x
        j2 = np.array([[0.0, 1.0], [0.0, 0.0]])
        m = nilpotent_nearby(j2, ConjInvariantSpectrum(pairs=((0.0, 0.1),)))
        assert np.allclose(m, [[0.0, 1.0], [-0.01, 0.0]], atol=1e-15)
        assert np.allclose(sorted(np.linalg.eigvals(m), key=lambda z: z.imag),
                           [-0.1j, 0.1j])

    def test_paper_case_table_small_positive_x(self):
        a = np.array([[0.0, 0.05], [0.0, 0.0]])
        m = nilpotent_nearby(a, ConjInvariantSpectrum(pairs=((0.2, 0.1),)))
        assert np.allclose(m, [[0.2, 0.1], [-0.1, 0.2]], atol=1e-15)

    def test_paper_case_table_negative_x(self):
        a = np.array([[0.0, -0.05], [0.0, 0.0]])
        m = nilpotent_nearby(a, ConjInvariantSpectrum(pairs=((0.2, 0.1),)))
        assert np.allclose(m, [[0.2, -0.1], [0.1, 0.2]], atol=1e-15)

    def test_reals_on_zero_matrix(self):
        m = nilpotent_nearby(np.zeros((2, 2)), ConjInvariantSpectrum(reals=(0.1, -0.1)))
        assert np.allclose(m, np.diag([0.1, -0.1]))
        assert fro(m) ** 2 == pytest.approx(0.02)

    def test_distance_bound_and_spectrum(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a = random_nilpotent(rng, n)
            n_pairs = int(rng.integers(0, n // 2 + 1))
            spec = ConjInvariantSpectrum(
                reals=tuple(rng.normal(size=n - 2 * n_pairs) * 0.1),
                pairs=tuple(
                    (rng.normal() * 0.1, abs(rng.normal()) * 0.1 + 1e-3)
                    for _ in range(n_pairs)
                ),
            )
            m = nilpotent_nearby(a, spec)
            assert fro(m - a) ** 2 <= spec.sum_squares() + 1e-9
            assert np.max(np.abs(char_poly(m) - spec.char_poly())) <= 1e-9

    def test_error_paths(self, example15):
        with pytest.raises(InputError):
            nilpotent_nearby(np.eye(2), ConjInvariantSpectrum(reals=(0.0, 0.0)))
        with pytest.raises(InputError):
            nilpotent_nearby(np.zeros((2, 2)), ConjInvariantSpectrum(reals=(0.0,)))
        with pytest.raises(InputError):  # two pairs need n >= 4
            nilpotent_nearby(
                example15,
                ConjInvariantSpectrum(reals=(0.0,), pairs=((0.0, 0.1), (0.0, 0.2))),
            )
        with pytest.raises(InputError):  # eps bound enforced when supplied
            nilpotent_nearby(
                np.zeros((2, 2)), ConjInvariantSpectrum(reals=(1.0, -1.0)), eps=0.5
            )


class TestSpectrallyArbitrary:
    def test_example15_certificate(self, example15, example15_pattern):
        targets = [
            ConjInvariantSpectrum(reals=(1.0, 2.0, 3.0)),
            ConjInvariantSpectrum(reals=(0.0,), pairs=((0.0, 0.5),)),
            ConjInvariantSpectrum(reals=(0.0, 0.0, 0.0)),
        ]
        cert = certify_spectrally_arbitrary(example15_pattern, example15, targets)
        assert cert.complete
        assert len(cert.evidence) == 3
        for e in cert.evidence:
            assert e.ok and e.residual <= 1e-7
            assert matrix_in_sign_class(e.matrix, example15_pattern)
        assert cert.hypothesis["nilpotency"]["is_nilpotent"]
        assert cert.nssp_report.holds

    def test_zero_target_realizes_nilpotent(self, example15, example15_pattern):
        cert = certify_spectrally_arbitrary(
            example15_pattern, example15,
            [ConjInvariantSpectrum(reals=(0.0, 0.0, 0.0))],
        )
        e = cert.evidence[0]
        assert e.ok
        assert np.max(np.abs(char_poly(e.matrix)[:-1])) <= 1e-7

    def test_no_targets_rejected(self, example15, example15_pattern):
        # a certificate without evidence would read complete
        with pytest.raises(InputError):
            certify_spectrally_arbitrary(example15_pattern, example15, [])

    def test_non_nilpotent_witness_rejected(self, example15_pattern):
        a = np.array([[-1.0, 1.0, -1.0], [-2.0, 2.0, -2.0], [-1.0, 1.0, -2.0]])
        with pytest.raises(HypothesisFailure) as info:
            certify_spectrally_arbitrary(example15_pattern, a, [[0.0] * 3])
        assert "power_norm" in info.value.details

    def test_witness_outside_class_rejected(self, example15, example15_pattern):
        with pytest.raises(HypothesisFailure):
            certify_spectrally_arbitrary(example15_pattern, -example15, [[0.0] * 3])

    def test_witness_without_nssp_rejected(self):
        j2 = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(HypothesisFailure):
            certify_spectrally_arbitrary(SignPattern.from_matrix(j2), j2, [[0.0] * 2])

    @pytest.mark.parametrize("witness,target", [
        # the pipelines deck's certify_spectral/n6 ops, seed/op: 66/73, 49/90
        # and 67/90 failed with the target scaled to half the trust radius,
        # 70/2 and 81/54 with that and the QR step
        pytest.param(
            [[-1, 4, -1, 2, 0, 1], [1, -2, -1, -2, 0, -1], [1, -2, -1, -2, 0, -1],
             [-2, 5, 1, 4, 2, 2], [-2, 0, -2, 0, 0, 0], [4, 0, 0, -2, 0, 0]],
            ((-0.768, 0.154, 0.209, 1.751), ((-0.912, 3.094),)), id="seed66-op73",
        ),
        pytest.param(
            [[0, 2, 0, 0, 2, 0], [0, -2, 1, 0, -1, 1], [0, -2, 1, 0, -1, 1],
             [0, 0, -2, 0, -2, 0], [2, 2, -1, 2, 1, -1], [2, -2, 1, 0, -1, 0]],
            ((), ((-1.492, 0.796), (-0.622, 1.595), (1.071, 1.852))), id="seed49-op90",
        ),
        pytest.param(
            [[0, -1, 1, 0, 1, 0], [0, -2, 2, 0, 2, -2], [1, 0, 0, 1, 0, -2],
             [-2, 0, 0, 0, 0, 0], [-1, -2, 2, -1, 2, 0], [-2, -2, 2, -3, 4, 0]],
            ((-0.774, -0.477, -0.165, 0.805), ((-0.11, 3.16),)), id="seed67-op90",
        ),
        pytest.param(
            [[0, 0, 1, -2, -1, -2], [-2, 0, -1, 0, -1, -1], [0, -2, 1, 0, -1, 0],
             [1, 1, -1, 1, 2, 1], [1, -1, 1, 1, 0, 2], [2, 0, 2, 0, 0, -2]],
            ((), ((-0.274, 0.26), (1.668, 1.028), (1.716, 0.178))), id="seed70-op2",
        ),
        pytest.param(
            [[2, 1, 1, -1, 1, -1], [-1, 2, -1, 2, -1, -1], [-3, 2, -1, 2, -1, -1],
             [3, -1, 2, -3, 2, 0], [4, -2, 1, -2, 1, 0], [4, -1, 1, -3, 1, -1]],
            ((), ((-1.698, 2.872), (0.198, 1.767), (-1.582, 1.896))), id="seed81-op54",
        ),
    ])
    def test_float_floor_witnesses_complete(self, witness, target):
        w = np.array(witness, dtype=float)
        p = SignPattern.from_matrix(w)
        reals, pairs = target
        cert = certify_spectrally_arbitrary(p, w, [ConjInvariantSpectrum(reals, pairs)])
        (e,) = cert.evidence
        assert cert.complete and e.residual <= CHAR_POLY_RESIDUAL_TOL
        assert matrix_in_sign_class(e.matrix, p)


class TestRaiseNilpotentIndex:
    def test_example15(self, example15, example15_pattern):
        a_prime = raise_nilpotent_index(example15, example15_pattern)
        assert fro(np.linalg.matrix_power(a_prime, 2)) > 1e-4
        assert fro(np.linalg.matrix_power(a_prime, 3)) <= 1e-8
        assert matrix_in_sign_class(a_prime, example15_pattern)

    def test_already_full_index_short_circuits(self):
        # J2(0) has index 2 = n; it lacks the nSSP, but no realization is
        # needed so the call returns it unchanged
        j2 = np.array([[0.0, 1.0], [0.0, 0.0]])
        out = raise_nilpotent_index(j2, SignPattern.from_matrix(j2))
        assert np.array_equal(out, j2)

    def test_non_nilpotent_rejected(self, example15_pattern):
        with pytest.raises(HypothesisFailure):
            raise_nilpotent_index(np.eye(3) * -1.0, example15_pattern)


class TestInertiallyArbitrary:
    def test_two_by_two_full_pattern(self):
        w = np.array([[1.0, -1.0], [1.0, -1.0]])
        p = SignPattern.from_matrix(w)
        cert = certify_inertially_arbitrary(p, w)
        assert cert.complete
        assert len(cert.evidence) == 6  # (n+1)(n+2)/2
        for e in cert.evidence:
            assert e.ok
            # independent oracle: count eigenvalue real-part signs directly
            eigs = np.linalg.eigvals(e.matrix)
            thr = 1e-8 * fro(e.matrix)
            got = (
                int(np.sum(eigs.real > thr)),
                int(np.sum(eigs.real < -thr)),
                int(np.sum(np.abs(eigs.real) <= thr)),
            )
            assert list(got) == list(e.target)

    def test_lone_kept_zero_of_a_jordan_block_reads_zero(self):
        # a 2 x 2 Jordan block at zero whose Schur diagonal is about
        # +-5e-8, just under the witness's zero threshold: target (3, 0, 1)
        # shifts one of its slots, and the kept slot, left at +5e-8, read
        # positive against the smaller threshold of the realized matrix
        w = np.array([[0.0, 0, 1, 1], [2, 1, -1, -2], [-3, -1, -1, 0], [2, 1, 1, 0]])
        cert = certify_inertially_arbitrary(SignPattern.from_matrix(w), w)
        (e,) = [e for e in cert.evidence if e.target == [3, 0, 1]]
        assert e.ok and e.achieved == (3, 0, 1)
        assert cert.complete

    def test_witness_with_pure_imaginary_pair(self):
        rng = np.random.default_rng(41)
        b = np.zeros((4, 4))
        b[0, 1], b[1, 0] = -1.0, 1.0
        b[2, 3] = 1.0
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        w = q @ b @ q.T
        cert = certify_inertially_arbitrary(SignPattern.from_matrix(w), w)
        assert cert.complete
        assert len(cert.evidence) == 15

    def test_allocation_shifts_zeros_before_pairs(self):
        # (2, 0, 2) from two zeros and one imaginary pair: shifting both
        # zeros leaves the pair, which stays on the imaginary axis, rather
        # than a Jordan block at zero whose eigenvalues split by roundoff
        assert _allocate_perturbations(2, 0, 1, 2) == (0, 2, 0, 0)
        assert _allocate_perturbations(3, 0, 1, 2) == (1, 1, 0, 0)
        assert _allocate_perturbations(1, 1, 1, 2) == (0, 1, 0, 1)
        with pytest.raises(InternalCheckError):
            _allocate_perturbations(1, 0, 1, 0)

    @pytest.mark.parametrize("pairs,zeros", [(0, 2), (1, 2), (1, 3), (2, 2), (2, 3)])
    def test_allocation_is_exact_and_maximal(self, pairs, zeros):
        n = 2 * pairs + zeros
        for p_t in range(n + 1):
            for q_t in range(n + 1 - p_t):
                pp, zp, pq, zq = _allocate_perturbations(p_t, q_t, pairs, zeros)
                assert (2 * pp + zp, 2 * pq + zq) == (p_t, q_t)
                assert pp + pq <= pairs and zp + zq <= zeros
                # brute force: no feasible allocation shifts more zeros
                best = max(
                    a + b
                    for a in range(zeros + 1)
                    for b in range(zeros + 1 - a)
                    if a <= p_t and b <= q_t and (p_t - a) % 2 == 0
                    and (q_t - b) % 2 == 0 and (p_t - a + q_t - b) // 2 <= pairs
                )
                assert zp + zq == best

    def test_hypothesis_failures(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(HypothesisFailure):  # n_z = 0 < 2
            certify_inertially_arbitrary(SignPattern.from_matrix(rot), rot)
        inv = np.array([[1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(HypothesisFailure):  # nonzero real parts
            certify_inertially_arbitrary(SignPattern.from_matrix(inv), inv)


@pytest.mark.parametrize("entry", [
    lambda p, a: certify_spectrally_arbitrary(p, a, [[0.0, 0.0]]),
    lambda p, a: raise_nilpotent_index(a, p),
    lambda p, a: certify_inertially_arbitrary(p, a),
], ids=["spectral", "index", "inertial"])
def test_each_entry_point_refuses_a_witness_without_the_nssp(entry):
    # the 2 x 2 zero matrix passes every other hypothesis (nilpotent of
    # index 1 < n, rin (0, 0, 2, 0)), and every X of its zero pattern
    # is a nontrivial nSSP witness
    z = np.zeros((2, 2))
    with pytest.raises(HypothesisFailure, match="does not have the nSSP") as info:
        entry(SignPattern.from_matrix(z), z)
    assert info.value.details == {"nullspace_dim": 4}


def test_inertial_certificate_verifies_its_witness_once(monkeypatch):
    from strongprops import arbitrary, bifurcation

    w = np.array([[0.0, 1, 1, 1], [2, 0, 0, 2], [-2, 1, -1, -3], [0, -1, 1, 1]])
    calls = []
    for module in (arbitrary, bifurcation):
        verify = module.verify_nssp

        def counted(*args, _verify=verify, **kwargs):
            calls.append(np.array_equal(args[0], w))
            return _verify(*args, **kwargs)

        monkeypatch.setattr(module, "verify_nssp", counted)
    cert = certify_inertially_arbitrary(SignPattern.from_matrix(w), w)
    assert cert.complete and len(cert.evidence) == 15
    assert sum(calls) == 1


class TestNJDiagnostic:
    def test_example15_c0_row_exactly_zero(self, example15):
        cells = [(0, 0), (1, 1), (2, 2)]
        jac, surjective = nj_jacobian_diagnostic(example15, cells)
        assert np.all(jac[0] == 0.0)
        assert not surjective

    def test_example15_all_choices_sampled(self, example15):
        all_cells = [(i, j) for i in range(3) for j in range(3)]
        for cells in list(combinations(all_cells, 3))[:20]:
            jac, surjective = nj_jacobian_diagnostic(example15, cells)
            assert np.all(jac[0] == 0.0)
            assert not surjective

    def test_classic_2x2_fixture(self):
        # A = [[1, 1], [-1, -1]] is nilpotent of index 2 = n; with entries
        # (0,0) and (1,0): c_0 = det(A + B) = -(x00 + x10) and
        # c_1 = -tr(A + B) = -x00, so the Jacobian is [[-1, -1], [-1, 0]]
        a = np.array([[1.0, 1.0], [-1.0, -1.0]])
        jac, surjective = nj_jacobian_diagnostic(a, [(0, 0), (1, 0)])
        assert np.array_equal(jac, np.array([[-1.0, -1.0], [-1.0, 0.0]]))
        assert surjective

    def test_finite_difference_cross_check(self):
        a = np.array([[1.0, 1.0], [-1.0, -1.0]])
        cells = [(0, 0), (1, 0)]
        jac, _ = nj_jacobian_diagnostic(a, cells)
        h = 1e-6
        for t, (i, j) in enumerate(cells):
            ap = a.copy()
            ap[i, j] += h
            am = a.copy()
            am[i, j] -= h
            fd = (char_poly(ap)[:-1] - char_poly(am)[:-1]) / (2.0 * h)
            assert np.max(np.abs(jac[:, t] - fd)) <= 1e-6

    def test_surjective_implies_full_index(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            a = random_nilpotent(rng, n)
            support = [(i, j) for i in range(n) for j in range(n)
                       if abs(a[i, j]) > 1e-8]
            if len(support) < n:
                continue
            idx = rng.choice(len(support), size=n, replace=False)
            cells = [support[k] for k in idx]
            _, surjective = nj_jacobian_diagnostic(a, cells)
            if surjective:
                penult = np.linalg.matrix_power(a, n - 1)
                assert fro(penult) > 1e-8

    def test_equivalence_with_index_and_nssp(self, example15):
        # the entry-choice map is invertible for some choice exactly when
        # the witness has full index and the nSSP; check both directions on
        # the canonical fixtures
        from strongprops.verifiers import verify_nssp

        classic = np.array([[1.0, 1.0], [-1.0, -1.0]])
        assert fro(classic @ classic) == 0.0  # index 2 = n
        assert verify_nssp(classic).holds  # full pattern
        cells_all = [(i, j) for i in range(2) for j in range(2)]
        assert any(
            nj_jacobian_diagnostic(classic, cells)[1]
            for cells in combinations(cells_all, 2)
        )
        # example15 has the nSSP but index 2 < 3: no choice works
        assert verify_nssp(example15).holds
        assert fro(np.linalg.matrix_power(example15, 2)) == 0.0
        cells_all = [(i, j) for i in range(3) for j in range(3)]
        assert not any(
            nj_jacobian_diagnostic(example15, cells)[1]
            for cells in combinations(cells_all, 3)
        )

    def test_error_paths(self, example15):
        with pytest.raises(InputError):  # wrong count
            nj_jacobian_diagnostic(example15, [(0, 0)])
        with pytest.raises(InputError):  # outside support impossible here,
            nj_jacobian_diagnostic(  # so use an out-of-range cell
                example15, [(0, 0), (1, 1), (4, 4)]
            )
        with pytest.raises(InputError):  # not nilpotent
            nj_jacobian_diagnostic(np.eye(2), [(0, 0), (1, 1)])

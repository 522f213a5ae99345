"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints one PASS/FAIL line (visible with ``pytest -s`` or in captured
output).  Criteria 1 and 2 share a 400-instance random corpus built once
per module.
"""

import io
import json
import time
from contextlib import redirect_stdout
from itertools import combinations

import numpy as np
import pytest

from strongprops.arbitrary import (
    ConjInvariantSpectrum,
    certify_inertially_arbitrary,
    certify_spectrally_arbitrary,
    nj_jacobian_diagnostic,
    raise_nilpotent_index,
)
from strongprops.bifurcation import (
    realize_inertia,
    realize_multiplicity_list,
    realize_q,
    realize_rank,
    realize_spectrum,
    sap_map,
    similarity_map,
    smp_map,
    ssp_map,
    superpattern_map,
)
from strongprops.cli import main as cli_main
from strongprops.numerics import char_poly, fro, rank
from strongprops.patterns import (
    Graph,
    SignPattern,
    cycle_spectrum_admissible,
    matrix_in_sign_class,
    ordered_multiplicity_list,
    pin,
)
from strongprops.verifiers import verify_nssp, verify_sap, verify_smp, verify_ssp

from conftest import adjacency, random_graph, random_in_graph_class, random_square_with_zeros
from test_bifurcation import lanczos_tridiagonal
from test_arbitrary import random_nilpotent


def report_line(num: int, description: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {description}: {status}{extra}")


@pytest.fixture(scope="module")
def duality_corpus():
    """200 random symmetric instances (n <= 6) with all three symmetric
    verifiers, 200 random square instances (n <= 5) with the nSSP
    verifier, plus the wall time the verifications took."""
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    symmetric = []
    for _ in range(200):
        n = int(rng.integers(2, 7))
        g = random_graph(rng, n)
        a = random_in_graph_class(rng, g)
        symmetric.append(
            (a, g, verify_ssp(a, g), verify_smp(a, g), verify_sap(a, g))
        )
    square = []
    for _ in range(200):
        n = int(rng.integers(2, 6))
        a = random_square_with_zeros(rng, n)
        square.append((a, verify_nssp(a)))
    elapsed = time.monotonic() - start
    return symmetric, square, elapsed


def test_01_duality_suite(duality_corpus):
    symmetric, square, elapsed = duality_corpus
    violations = 0
    for _a, _g, ssp, smp, sap in symmetric:
        for report in (ssp, smp, sap):
            if report.holds != report.dual_verdict:
                violations += 1
    for _a, report in square:
        if report.holds != report.dual_verdict:
            violations += 1
    ok = violations == 0 and elapsed <= 30.0
    report_line(
        1,
        "duality: primal and dual verdicts agree on 400 random instances",
        ok,
        f" ({violations} violations, {elapsed:.1f}s)",
    )
    assert ok


def test_02_implication_suite(duality_corpus):
    symmetric, _square, _elapsed = duality_corpus
    violations = 0
    for _a, _g, ssp, smp, sap in symmetric:
        if ssp.holds and not smp.holds:
            violations += 1
        if smp.holds and not sap.holds:
            violations += 1
    ok = violations == 0
    report_line(2, "implications SSP => SMP => SAP hold on the corpus", ok,
                f" ({violations} violations)")
    assert ok


def _map_instances(rng, kind, count):
    """Random (map, matching verifier report) pairs of one kind."""
    out = []
    for _ in range(count):
        n = int(rng.integers(2, 6))
        if kind in ("ssp", "smp", "sap"):
            g = random_graph(rng, n)
            a = random_in_graph_class(rng, g)
            pmap = {"ssp": ssp_map, "sap": sap_map}.get(kind, None)
            pmap = pmap(a, g) if pmap else smp_map(a, g)
            report = {
                "ssp": verify_ssp,
                "smp": verify_smp,
                "sap": verify_sap,
            }[kind](a, g)
        else:
            a = random_square_with_zeros(rng, n)
            p = SignPattern.from_matrix(a)
            pmap = (
                similarity_map(a, p)
                if kind == "nssp_similar"
                else superpattern_map(a, p, p)
            )
            report = verify_nssp(a)
        out.append((pmap, report))
    return out


def test_03_surjectivity_iff_property():
    rng = np.random.default_rng(31415)
    violations = 0
    for kind in ("ssp", "smp", "sap", "nssp_similar", "nssp_superpattern"):
        for pmap, report in _map_instances(rng, kind, 100):
            jac = pmap.jacobian(pmap.zero_params())
            surjective = rank(jac) == pmap.ambient_dim
            if surjective != report.holds:
                violations += 1
    ok = violations == 0
    report_line(
        3,
        "derivative-at-zero surjectivity <=> strong property (100 per map)",
        ok,
        f" ({violations} violations)",
    )
    assert ok


def test_04_jacobian_finite_differences():
    rng = np.random.default_rng(27182)
    h = 1e-5
    worst = 0.0
    for kind in ("ssp", "smp", "sap", "nssp_similar", "nssp_superpattern"):
        for pmap, _report in _map_instances(rng, kind, 10):
            params = rng.normal(size=pmap.param_dim) * 0.05
            jac = pmap.jacobian(params)
            for t in range(pmap.param_dim):
                e = np.zeros(pmap.param_dim)
                e[t] = 1.0
                fd = (
                    pmap.evaluate(params + h * e)
                    - pmap.evaluate(params - h * e)
                ) / (2.0 * h)
                err = np.linalg.norm(jac[:, t] - fd.reshape(-1))
                worst = max(worst, err / max(1.0, float(np.linalg.norm(fd))))
    ok = worst <= 1e-6
    report_line(4, "analytic Jacobians match central differences (50 instances)",
                ok, f" (worst relative error {worst:.2e})")
    assert ok


def test_05_bifurcation_ssp_path3():
    g = Graph.path(3)
    a = adjacency(g)
    res = realize_spectrum(a, g, [-1.0, 0.0, 1.0])
    oracle = lanczos_tridiagonal([-1.0, 0.0, 1.0], [0.5, 1.0 / np.sqrt(2.0), 0.5])
    entry_err = float(np.max(np.abs(np.abs(res.matrix) - np.abs(oracle))))
    ok = (
        res.final_residual <= 1e-9
        and entry_err <= 1e-6
        and res.property_report.holds
    )
    report_line(5, "P3 spectrum (-1, 0, 1) realized, matches tridiagonal oracle",
                ok, f" (residual {res.final_residual:.2e}, entries {entry_err:.2e})")
    assert ok


def test_06_bifurcation_smp_c4(twisted_c4, c4):
    start = time.monotonic()
    base_list = tuple(ordered_multiplicity_list(np.linalg.eigvalsh(twisted_c4)))
    ok = base_list == (2, 2) and verify_smp(twisted_c4, c4).holds
    details = []
    for target in ((1, 1, 2), (2, 1, 1), (1, 1, 1, 1)):
        res = realize_multiplicity_list(twisted_c4, c4, target)
        achieved = tuple(res.achieved)
        spectrum = np.linalg.eigvalsh(res.matrix)
        admissible = cycle_spectrum_admissible(spectrum)
        ok = ok and achieved == target and admissible and res.property_report.holds
        details.append(f"{target}->{achieved}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed <= 10.0
    report_line(6, "C4 base (2,2) realizes its refinements with the SMP", ok,
                f" ({'; '.join(details)}, {elapsed:.1f}s)")
    assert ok


def test_07_q_increment(twisted_c4, c4):
    ok = True
    details = []
    for target_q in (3, 4):
        res = realize_q(twisted_c4, c4, target_q)
        lam = np.linalg.eigvalsh(res.matrix)
        achieved = len(ordered_multiplicity_list(lam))
        ok = ok and achieved == target_q and res.property_report.holds
        details.append(f"q={target_q}:{achieved}")
    report_line(7, "q-increment from the C4 base reaches q = 3 and 4", ok,
                f" ({', '.join(details)})")
    assert ok


def test_08_northeast_suite():
    g = Graph.complete(2)
    a = np.array([[1.0, 1.0], [1.0, 1.0]])  # eigenvalues 0 and 2: pin (1, 0)
    ok = pin(a) == (1, 0) and verify_sap(a, g).holds
    for target in ((1, 1), (2, 0)):
        res = realize_inertia(a, g, target)
        ok = ok and pin(res.matrix) == target and res.property_report.holds
    res = realize_rank(a, g, 2)
    ok = ok and sum(pin(res.matrix)) == 2 and res.property_report.holds
    report_line(8, "northeast steps (1,0)->(1,1),(2,0) and rank walk to n", ok)
    assert ok


def test_09_example15_regression(example15, example15_pattern):
    start = time.monotonic()
    a = example15
    nilpotent_ok = (
        fro(a @ a) <= 1e-12 and fro(a) > 0.0 and verify_nssp(a).holds
    )
    all_cells = [(i, j) for i in range(3) for j in range(3)]
    choices = list(combinations(all_cells, 3))
    jacobian_ok = len(choices) == 84
    for cells in choices:
        jac, surjective = nj_jacobian_diagnostic(a, cells)
        jacobian_ok = jacobian_ok and np.all(jac[0] == 0.0) and not surjective
    targets = [
        ConjInvariantSpectrum(reals=(1.0, 2.0, 3.0)),
        ConjInvariantSpectrum(reals=(0.0,), pairs=((0.0, 0.5),)),
        ConjInvariantSpectrum(reals=(0.0, 0.0, 0.0)),
    ]
    cert = certify_spectrally_arbitrary(example15_pattern, a, targets)
    residuals = [e.residual for e in cert.evidence]
    cert_ok = cert.complete and all(r <= 1e-7 for r in residuals)
    elapsed = time.monotonic() - start
    ok = nilpotent_ok and jacobian_ok and cert_ok and elapsed <= 20.0
    report_line(
        9,
        "displayed 3x3 matrix: nilpotent, nSSP, zero c0 gradients (84 "
        "choices), spectrally-arbitrary evidence",
        ok,
        f" (max residual {max(residuals):.2e}, {elapsed:.1f}s)",
    )
    assert ok


def test_10_nilpotent_nearby_construction():
    from strongprops.arbitrary import nilpotent_nearby

    rng = np.random.default_rng(1618)
    worst_dist = worst_poly = 0.0
    for _ in range(50):
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
        worst_dist = max(worst_dist, fro(m - a) ** 2 - spec.sum_squares())
        # independent oracle: numpy's polynomial from the complex roots
        ref = np.poly(spec.as_complex()).real[::-1]
        worst_poly = max(worst_poly, float(np.max(np.abs(char_poly(m) - ref))))
    ok = worst_dist <= 1e-9 and worst_poly <= 1e-9
    report_line(
        10,
        "nilpotent-to-spectrum construction: distance bound and exact "
        "coefficients (50 instances)",
        ok,
        f" (worst excess {worst_dist:.2e}, worst coefficient {worst_poly:.2e})",
    )
    assert ok


def test_11_raise_index(example15, example15_pattern):
    a_prime = raise_nilpotent_index(example15, example15_pattern)
    sq = fro(np.linalg.matrix_power(a_prime, 2))
    cube = fro(np.linalg.matrix_power(a_prime, 3))
    ok = (
        sq > 1e-4
        and cube <= 1e-8
        and matrix_in_sign_class(a_prime, example15_pattern)
    )
    report_line(11, "index raised to n = 3 inside the same full pattern", ok,
                f" (||A'^2|| = {sq:.2e}, ||A'^3|| = {cube:.2e})")
    assert ok


def test_12_inertially_arbitrary():
    w = np.array([[1.0, -1.0], [1.0, -1.0]])  # nilpotent, full pattern
    p = SignPattern.from_matrix(w)
    cert = certify_inertially_arbitrary(p, w)
    failures = [e for e in cert.evidence if not e.ok]
    ok = cert.complete and len(cert.evidence) == 6 and not failures
    report_line(12, "2x2 full-pattern witness realizes all 6 inertias", ok,
                f" ({len(cert.evidence) - len(failures)}/{len(cert.evidence)})")
    assert ok


def _run_cli(argv) -> tuple[int, str]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli_main(argv)
    return code, buffer.getvalue()


def test_13_determinism(tmp_path):
    files = {
        "ex15.mat": "-1 1 -1\n-2 2 -2\n-1 1 -1\n",
        "ex15.pat": "-+-\n-+-\n-+-\n",
        "c4.graph": "4 4\n0 1\n1 2\n2 3\n3 0\n",
        "c4twist.mat": "0 1 0 -1\n1 0 1 0\n0 1 0 1\n-1 0 1 0\n",
        "targets.txt": "1 2 3\n0 0+0.5i\n0 0 0\n",
    }
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    commands = [
        ["verify", str(tmp_path / "ex15.mat"), "--property", "nssp", "--json"],
        ["realize", str(tmp_path / "c4twist.mat"), "--graph",
         str(tmp_path / "c4.graph"), "--target-mlist", "1 1 2", "--json"],
        ["certify", str(tmp_path / "ex15.pat"), str(tmp_path / "ex15.mat"),
         "--spectrally-arbitrary", str(tmp_path / "targets.txt"), "--json"],
        ["sweep", "--family", "cycle", "--n-min", "3", "--n-max", "4",
         "--property", "smp", "--seed", "5", "--realize-lists", "--json"],
    ]
    ok = True
    for argv in commands:
        code1, out1 = _run_cli(argv)
        code2, out2 = _run_cli(argv)
        json.loads(out1)  # must be valid JSON
        ok = ok and code1 == code2 and out1 == out2
    report_line(13, "repeated runs produce byte-identical JSON reports", ok)
    assert ok

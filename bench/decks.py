"""Seeded decks for the three workloads, each op paired with its output check.

A deck is the list of ops of one pass.  Every op calls the program through
a public entry point looked up at call time (so the tracer's wrappers see
it) and gets only generated matrices, graphs, patterns and files.  The
checks use numpy alone, never the package, so a traced run does not trace
them and a defect in the package cannot hide in its own check.

verify
    ``verify_ssp/smp/sap`` on path and G(n, 1/2) graphs and ``verify_nssp``
    on density-0.5 sign patterns, at n = 16, 24 and 32.  The random
    instances hold their property generically (every matrix on a path
    has the SSP; a diagonal with distinct entries has each property, and
    the supergraph/superpattern theorems carry it to every graph and to
    every pattern with a nonzero diagonal, so random entries keep it with
    probability one).  Diagonal matrices with a repeated eigenvalue, or a
    double zero for the SAP, fail by construction, so the witness path is
    timed too.
realize
    Far ``realize_spectrum`` targets on path and G(n, 1/2) graphs (several
    homotopy hops), near and far ``realize_similar`` targets S A S^-1 with
    S = I + eps N, multiplicity-list, q, inertia and rank steps on signed,
    relabelled cycles C_8 and C_12 (SAP bases with nullity 2) and
    superpattern steps.  The far similarity targets (eps = 0.05) fail at the
    seed: the re-based homotopy stalls.  They stay in the deck on purpose.
pipelines
    The CLI in-process through ``strongprops.cli.main --json``: spectrally
    and inertially arbitrary certificates of integer witnesses S T S^-1
    with S unimodular, and ``sweep --family cycle --property smp
    --realize-lists``.  One inertial witness in three has its zero
    eigenvalues in a 2x2 Jordan block; at some seeds the certificate cannot
    keep both at zero and the CLI reports it incomplete (exit code 7).
    Those ops stay in the deck on purpose.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

import strongprops as sp
import strongprops.cli
from strongprops.patterns import Graph, SignPattern

WORKLOADS = ("verify", "realize", "pipelines")

# relative cutoffs of the package's documented tolerance policy
RANK_TOL = 1e-8
CLUSTER_TOL = 1e-6
ENTRY_ZERO_SCALE = 1e-10
# accepted error of realized spectra and characteristic polynomials
SPECTRUM_TOL = 1e-8
CHAR_POLY_TOL = 1e-6
CERT_RESIDUAL_TOL = 1e-7
WITNESS_RESIDUAL_TOL = 1e-8
#: real parts within this band around zero (relative to ||M||_F) may count as
#: zero or as their sign: a zero eigenvalue in a Jordan block of size k is
#: computed only to roundoff^(1/k), and two eigensolvers disagree there
ZERO_REAL_PART_BAND = 1e-6
MAX_WITNESS_TRIES = 500
SCHUR_RESIDUE_TOL = 1e-3


class Declined(Exception):
    """The program reported that it could not do the op (an exit code
    other than the expected one)."""


class Wrong(Exception):
    """The program claimed success, but its output fails the check."""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


def build(workload: str, seed: int, workdir: str) -> tuple[list[Op], list[Op]]:
    """The ops of one pass of ``workload``, generated from ``seed``, in a
    seeded random order (so a slow spell of the machine hits every kind
    alike), and the smallest op of each kind for warming up.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "verify":
        ordered = _verify_deck(rng)
    elif workload == "realize":
        ordered = _realize_deck(rng)
    else:
        ordered = _pipelines_deck(rng, workdir)
    # the generators emit each kind smallest first
    warm = list({op.kind: op for op in reversed(ordered)}.values())
    return [ordered[i] for i in rng.permutation(len(ordered))], warm


# ---------------------------------------------------------------------------
# Generators


def _signed(rng, size, floor):
    v = rng.normal(size=size)
    return np.sign(v) * (floor + np.abs(v))


def _random_graph(rng, n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5])


def _random_in_graph(rng, g: Graph) -> np.ndarray:
    a = np.diag(rng.normal(size=g.n))
    for (i, j), v in zip(g.edges, _signed(rng, len(g.edges), 0.5)):
        a[i, j] = a[j, i] = v
    return a


def _random_sign_matrix(rng, n: int) -> np.ndarray:
    """Off-diagonal density 0.5, nonzero diagonal, entries away from zero."""
    a = _signed(rng, (n, n), 0.3)
    mask = rng.random((n, n)) < 0.5
    np.fill_diagonal(mask, False)
    a[mask] = 0.0
    return a


def _signed_cycle(rng, n: int) -> tuple[np.ndarray, Graph]:
    """Cycle adjacency under a random relabelling and signature similarity."""
    perm = rng.permutation(n)
    a = np.zeros((n, n))
    for i in range(n):
        a[perm[i], perm[(i + 1) % n]] = a[perm[(i + 1) % n], perm[i]] = 1.0
    d = rng.choice([-1.0, 1.0], size=n)
    return d[:, None] * a * d[None, :], Graph.cycle(n).permuted(perm)


def _unimodular(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer S with integer inverse: elementary moves and a signed permutation."""
    s = np.eye(n, dtype=np.int64)
    s_inv = np.eye(n, dtype=np.int64)
    for _ in range(n):
        i, j = rng.choice(n, size=2, replace=False)
        c = int(rng.choice([-1, 1]))
        e = np.eye(n, dtype=np.int64)
        e[i, j] = c
        e_inv = np.eye(n, dtype=np.int64)
        e_inv[i, j] = -c
        s, s_inv = s @ e, e_inv @ s_inv
    q = np.eye(n, dtype=np.int64)[rng.permutation(n)] * rng.choice([-1, 1], size=n)
    return q @ s, s_inv @ q.T


def _witness(rng, n: int, make_t, hypothesis) -> tuple[np.ndarray, SignPattern]:
    """First S T S^-1 (S unimodular) whose certificate hypothesis holds."""
    for _ in range(MAX_WITNESS_TRIES):
        s, s_inv = _unimodular(rng, n)
        w = s @ make_t() @ s_inv
        if np.max(np.abs(w)) > 9:
            continue
        w = w.astype(float)
        p = SignPattern.from_matrix(w)
        if hypothesis(w) and sp.verify_nssp(w, pattern=p).holds:
            return w, p
    raise RuntimeError(f"no witness of size {n} after {MAX_WITNESS_TRIES} tries")


def _nilpotent_t(rng, n):
    return lambda: np.triu(rng.integers(-2, 3, size=(n, n)), 1)


def _imaginary_t(rng, n, defective: bool):
    """Rotation blocks b [[0, -1], [1, 0]] plus two zero eigenvalues (three
    for odd n), semisimple or in one Jordan block when ``defective``."""
    zeros = 2 if n % 2 == 0 else 3
    pairs = (n - zeros) // 2

    def make():
        t = np.zeros((n, n), dtype=np.int64)
        for k in range(pairs):
            b = int(rng.integers(1, 3))
            t[2 * k, 2 * k + 1], t[2 * k + 1, 2 * k] = -b, b
        if defective:
            z = 2 * pairs
            t[z:, z:] = np.triu(rng.integers(-2, 3, size=(zeros, zeros)), 1)
            for i in range(z, n - 1):
                t[i, i + 1] = int(rng.choice([-1, 1]))
        return t

    return make


def _nilpotent_clean_schur(w):
    """The certificate hypothesis, plus a real Schur form whose strictly lower
    part is roundoff.  ``nilpotent_nearby`` zeroes that part; when a 2x2
    Schur block carries an O(1) subdiagonal the target lands O(1) away and
    the certificate stalls for seconds (left out of the deck, see README)."""
    t = sp.real_schur(w).quasi_triangular
    return sp.is_nilpotent(w) and np.max(np.abs(np.tril(t))) <= SCHUR_RESIDUE_TOL * np.linalg.norm(w)


def _zero_and_imaginary(w):
    n_pos, n_neg, n_zero, _ = sp.rin(w)
    return n_pos == 0 and n_neg == 0 and n_zero >= 2


# ---------------------------------------------------------------------------
# Independent checks (numpy only)


def _zero_threshold(a):
    return ENTRY_ZERO_SCALE * np.linalg.norm(a) / a.shape[0]


def _check_graph_class(a, g: Graph):
    if not np.array_equal(a, a.T):
        raise Wrong("realized matrix is not symmetric")
    nonzero = np.abs(a) > _zero_threshold(a)
    want = np.zeros_like(nonzero)
    for i, j in g.edges:
        want[i, j] = want[j, i] = True
    np.fill_diagonal(nonzero, False)
    if not np.array_equal(nonzero, want):
        raise Wrong("realized matrix left the graph class")


def _check_sign_class(a, p: SignPattern):
    signs = np.where(np.abs(a) > _zero_threshold(a), np.sign(a), 0.0)
    if not np.array_equal(signs, p.as_array()):
        raise Wrong("matrix left the sign class")


def _check_property(result):
    report = result.property_report
    if report is None or not report.holds:
        raise Wrong("property not re-verified at the realized matrix")


def _clusters(values) -> list[int]:
    """Multiplicities of the ascending values under the cluster tolerance."""
    values = np.sort(values)
    thr = CLUSTER_TOL * max(1.0, float(values[-1] - values[0]))
    out = [1]
    for gap in np.diff(values):
        if gap <= thr:
            out[-1] += 1
        else:
            out.append(1)
    return out


def _mlist(a) -> list[int]:
    return _clusters(np.linalg.eigvalsh(a))


def _partial_inertia(a) -> tuple[int, int]:
    lam = np.linalg.eigvalsh(a)
    thr = RANK_TOL * np.linalg.norm(a)
    return int(np.sum(lam > thr)), int(np.sum(lam < -thr))


def _char_poly_gap(a, b) -> float:
    pa, pb = np.real(np.poly(a)), np.real(np.poly(b))
    return float(np.max(np.abs(pa - pb)) / max(1.0, np.max(np.abs(pb))))


# ---------------------------------------------------------------------------
# verify


VERIFY_ROUNDS = {16: 1, 24: 3, 32: 1}


def _verify_op(prop, family, a, g, expected) -> Op:
    def run():
        if prop == "nssp":
            return sp.verify_nssp(a)
        return getattr(sp, f"verify_{prop}")(a, g)

    def check(report):
        if report.holds != expected:
            raise Wrong(f"verdict {report.holds}, expected {expected}")
        if report.dual_verdict != report.holds:
            raise Wrong("dual verdict disagrees with the primal verdict")
        if expected:
            if report.witness is not None:
                raise Wrong("witness reported for a property that holds")
            return
        _check_witness(prop, a, g, report)

    return Op(f"verify_{prop}/{family}", run, check)


def _check_witness(prop, a, g, report):
    w = report.witness
    if w is None or abs(np.linalg.norm(w) - 1.0) > 1e-8:
        raise Wrong("failing verdict without a unit witness")
    if prop == "nssp":
        if np.any(w[a != 0.0] != 0.0):
            raise Wrong("witness not supported on the zero cells")
        residual = np.linalg.norm(a @ w.T - w.T @ a)
    else:
        allowed = np.ones_like(a, dtype=bool)
        np.fill_diagonal(allowed, False)
        for i, j in g.edges:
            allowed[i, j] = allowed[j, i] = False
        if not np.array_equal(w, w.T) or np.any(w[~allowed] != 0.0):
            raise Wrong("witness outside the constrained subspace")
        residual = np.linalg.norm(a @ w if prop == "sap" else a @ w - w @ a)
        if prop == "smp":
            unit = a / np.linalg.norm(a)
            power = np.eye(len(a))
            for _ in range(report.q_used):
                residual = max(residual, abs(float(np.sum(power * w))))
                power = power @ unit
    if residual > WITNESS_RESIDUAL_TOL * max(1.0, np.linalg.norm(a)):
        raise Wrong(f"witness residual {residual:.2e}")


def _verify_deck(rng) -> list[Op]:
    ops = []
    for n, rounds in VERIFY_ROUNDS.items():
        for _ in range(rounds):
            path = Graph.path(n)
            a_path = _random_in_graph(rng, path)
            gnp = _random_graph(rng, n)
            a_gnp = _random_in_graph(rng, gnp)
            for prop in ("ssp", "smp", "sap"):
                ops.append(_verify_op(prop, "path", a_path, path, True))
                ops.append(_verify_op(prop, "gnp", a_gnp, gnp, True))
            ops.append(_verify_op("nssp", "density0.5", _random_sign_matrix(rng, n), None, True))
            empty = Graph.empty(n)
            repeated = rng.uniform(-1.0, 1.0, size=n)
            repeated[1] = repeated[0]
            double_zero = rng.uniform(-1.0, 1.0, size=n)
            double_zero[:2] = 0.0
            ops.append(_verify_op("ssp", "empty-repeated", np.diag(repeated), empty, False))
            ops.append(_verify_op("smp", "empty-repeated", np.diag(repeated), empty, False))
            ops.append(_verify_op("sap", "empty-double-zero", np.diag(double_zero), empty, False))
            ops.append(_verify_op("nssp", "diagonal-repeated", np.diag(repeated), None, False))
    return ops


# ---------------------------------------------------------------------------
# realize


REALIZE_ROUNDS = 5
#: spectrum targets sit this many default trust radii from the base spectrum
FAR_SPECTRUM = 4.0
NEAR_SIMILAR, FAR_SIMILAR = 0.01, 0.05


def _realize_op(kind, run, check_target) -> Op:
    def check(result):
        _check_property(result)
        check_target(result)

    return Op(kind, run, check)


def _spectrum_op(rng, family, g) -> Op:
    a = _random_in_graph(rng, g)
    lam = np.linalg.eigvalsh(a)
    u = rng.normal(size=g.n)
    target = np.sort(lam + FAR_SPECTRUM * 0.1 * (1.0 + np.linalg.norm(a)) * u / np.linalg.norm(u))

    def check(result):
        _check_graph_class(result.matrix, g)
        err = np.max(np.abs(np.linalg.eigvalsh(result.matrix) - target))
        if err > SPECTRUM_TOL * max(1.0, np.max(np.abs(target))):
            raise Wrong(f"spectrum off by {err:.2e}")

    return _realize_op(f"realize_spectrum/{family}", lambda: sp.realize_spectrum(a, g, target), check)


def _similar_op(rng, n, eps, label) -> Op:
    a = _random_sign_matrix(rng, n)
    p = SignPattern.from_matrix(a)
    s = np.eye(n) + eps * rng.normal(size=(n, n))
    m = s @ a @ np.linalg.inv(s)

    def check(result):
        _check_sign_class(result.matrix, p)
        gap = _char_poly_gap(result.matrix, m)
        if gap > CHAR_POLY_TOL:
            raise Wrong(f"characteristic polynomial off by {gap:.2e}")

    return _realize_op(f"realize_similar/{label}", lambda: sp.realize_similar(a, p, m), check)


def _superpattern_op(rng, n) -> Op:
    a = _random_sign_matrix(rng, n)
    p = SignPattern.from_matrix(a)
    cells = np.array(p.zero_cells())
    rows = [list(r) for r in p.cells]
    for i, j in cells[rng.choice(len(cells), size=2, replace=False)]:
        rows[i][j] = int(rng.choice([-1, 1]))
    p_super = SignPattern.from_rows(rows)

    def check(result):
        _check_sign_class(result.matrix, p_super)
        gap = _char_poly_gap(result.matrix, a)
        if gap > CHAR_POLY_TOL:
            raise Wrong(f"characteristic polynomial off by {gap:.2e}")

    return _realize_op("realize_superpattern", lambda: sp.realize_superpattern(a, p, p_super), check)


def _cycle_ops(rng, n) -> list[Op]:
    """Multiplicity-list, q, inertia and rank steps from a signed cycle."""
    a, g = _signed_cycle(rng, n)
    mlist = _mlist(a)
    doubles = [k for k, m in enumerate(mlist) if m == 2]
    k = int(rng.choice(doubles))
    refined = mlist[:k] + [1, 1] + mlist[k + 1 :]
    p0, q0 = _partial_inertia(a)
    inertia = [(p0 + 1, q0 + 1), (p0 + 2, q0), (p0, q0 + 2)][int(rng.integers(3))]

    def spectrum_check(invariant, want):
        def check(result):
            _check_graph_class(result.matrix, g)
            got = invariant(result.matrix)
            if got != want:
                raise Wrong(f"achieved {got}, target {want}")

        return check

    return [
        _realize_op("realize_mlist/cycle", lambda: sp.realize_multiplicity_list(a, g, refined),
                    spectrum_check(_mlist, refined)),
        _realize_op("realize_q/cycle", lambda: sp.realize_q(a, g, len(mlist) + 1),
                    spectrum_check(lambda m: len(_mlist(m)), len(mlist) + 1)),
        _realize_op("realize_inertia/cycle", lambda: sp.realize_inertia(a, g, inertia),
                    spectrum_check(_partial_inertia, inertia)),
        _realize_op("realize_rank/cycle", lambda: sp.realize_rank(a, g, p0 + q0 + 2),
                    spectrum_check(lambda m: sum(_partial_inertia(m)), p0 + q0 + 2)),
    ]


def _realize_deck(rng) -> list[Op]:
    ops = []
    for _ in range(REALIZE_ROUNDS):
        for n in (8, 10):
            ops.append(_spectrum_op(rng, "path", Graph.path(n)))
            ops.append(_spectrum_op(rng, "gnp", _random_graph(rng, n)))
        for n in (8, 10):
            for _ in range(3):
                ops.append(_similar_op(rng, n, NEAR_SIMILAR, "near"))
            # far targets at n = 10: at n = 8 the time to fail is heavy-tailed
            ops.append(_similar_op(rng, 10, FAR_SIMILAR, "far"))
            ops.append(_superpattern_op(rng, n))
        for n in (8, 12):
            ops.extend(_cycle_ops(rng, n))
    return ops


# ---------------------------------------------------------------------------
# pipelines


PIPELINE_ROUNDS = 8
#: per round: three spectral, nine inertial and three sweep ops, so that the
#: median falls inside the inertial ops and the 90th percentile inside the
#: sweeps, away from the gaps between the three cost levels
ROUND_REPEATS = 3
SPECTRAL_SIZES = (4, 5, 6)
#: (size, defective zero eigenvalue) of the inertial witnesses of a round
INERTIAL_WITNESSES = ((4, False), (4, True), (4, False))
SWEEP_RANGE = (3, 5)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = sp.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_payload(outcome) -> dict:
    code, out, err = outcome
    if code != 0:
        raise Declined(f"exit code {code}: {err.strip()[:200]}")
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise Wrong(f"output is not JSON: {exc}") from None


def _write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _write_case(workdir, name, w, p) -> tuple[str, str]:
    pattern_path = os.path.join(workdir, f"{name}.pat")
    witness_path = os.path.join(workdir, f"{name}.mat")
    _write(pattern_path, "\n".join(p.to_lines()) + "\n")
    _write(witness_path, "\n".join(" ".join(str(int(v)) for v in row) for row in w) + "\n")
    return pattern_path, witness_path


def _spectral_target(rng, n, pairs) -> tuple[list[float], list[tuple[float, float]]]:
    """``pairs`` conjugate pairs a +- bi and n - 2 * pairs reals, 3 decimals."""
    reals = [round(float(v), 3) for v in rng.normal(size=n - 2 * pairs)]
    cplx = [(round(float(rng.normal()), 3), round(0.1 + abs(float(rng.normal())), 3)) for _ in range(pairs)]
    return reals, cplx


def _spectral_op(rng, workdir, index, n, pairs) -> Op:
    w, p = _witness(rng, n, _nilpotent_t(rng, n), _nilpotent_clean_schur)
    reals, cplx = _spectral_target(rng, n, pairs)
    pattern_path, witness_path = _write_case(workdir, f"spectral{index}", w, p)
    targets_path = os.path.join(workdir, f"spectral{index}.targets")
    _write(targets_path, " ".join([repr(r) for r in reals] + [f"{a!r}+{b!r}i" for a, b in cplx]) + "\n")
    argv = ["certify", pattern_path, witness_path, "--spectrally-arbitrary", targets_path, "--json"]
    roots = reals + [complex(a, s * b) for a, b in cplx for s in (1, -1)]
    want = np.real(np.poly(roots))

    def check(outcome):
        (e,) = _certificate(outcome, 1)["evidence"]
        if e["residual"] > CERT_RESIDUAL_TOL:
            raise Wrong(f"evidence residual {e['residual']:.2e}")
        m = np.array(e["matrix"])
        _check_sign_class(m, p)
        gap = np.max(np.abs(np.real(np.poly(m)) - want)) / max(1.0, np.max(np.abs(want)))
        if gap > CHAR_POLY_TOL:
            raise Wrong(f"evidence characteristic polynomial off by {gap:.2e}")

    return Op(f"certify_spectral/n{n}", lambda: _cli(argv), check)


def _inertial_op(rng, workdir, index, n, defective) -> Op:
    w, p = _witness(rng, n, _imaginary_t(rng, n, defective), _zero_and_imaginary)
    pattern_path, witness_path = _write_case(workdir, f"inertial{index}", w, p)
    argv = ["certify", pattern_path, witness_path, "--inertially-arbitrary", "--json"]

    def check(outcome):
        cert = _certificate(outcome, (n + 1) * (n + 2) // 2)
        for e in cert["evidence"]:
            m = np.array(e["matrix"])
            _check_sign_class(m, p)
            re = np.linalg.eigvals(m).real
            band = ZERO_REAL_PART_BAND * np.linalg.norm(m)
            pos, neg = int(np.sum(re > band)), int(np.sum(re < -band))
            near_pos, near_neg = int(np.sum((0 < re) & (re <= band))), int(np.sum((-band <= re) & (re < 0)))
            want_pos, want_neg, _ = e["target"]
            if not (pos <= want_pos <= pos + near_pos and neg <= want_neg <= neg + near_neg):
                raise Wrong(f"evidence eigenvalue real parts {np.sort(re)}, target {e['target']}")

    zeros = f"jordan{2 + n % 2}" if defective else "semisimple"
    return Op(f"certify_inertial/{zeros}", lambda: _cli(argv), check)


def _certificate(outcome, n_targets) -> dict:
    code = outcome[0]
    if code == 7:
        raise Declined("certificate incomplete")
    cert = _cli_payload(outcome)["certificate"]
    if cert["verdict"] != "complete" or len(cert["evidence"]) != n_targets:
        raise Wrong("exit code 0 without a complete certificate")
    if not all(e["ok"] for e in cert["evidence"]):
        raise Wrong("complete certificate with failed evidence")
    return cert


def _refinements(mlist) -> set[tuple[int, ...]]:
    def compositions(m):
        if m == 0:
            return [()]
        return [(first,) + rest for first in range(1, m + 1) for rest in compositions(m - first)]

    return {tuple(x for block in combo for x in block) for combo in product(*map(compositions, mlist))}


def _sweep_op(n_min, n_max, seed) -> Op:
    argv = ["sweep", "--family", "cycle", "--property", "smp", "--realize-lists",
            "--n-min", str(n_min), "--n-max", str(n_max), "--seed", str(seed), "--json"]

    def check(outcome):
        rows = _cli_payload(outcome)["rows"]
        if [(r["n"], r["base"]) for r in rows] != [(n, b) for n in range(n_min, n_max + 1) for b in ("plain", "twisted")]:
            raise Wrong("sweep rows do not cover the range")
        for r in rows:
            # cycles have the SMP, and every refinement of their list is realizable
            if not r["holds"] or r["oracle_agreed"] is not True:
                raise Wrong(f"cycle n={r['n']} {r['base']}: holds={r['holds']}, oracle={r['oracle_agreed']}")
            if sum(r["mlist"]) != r["n"] or {tuple(x) for x in r["realized_lists"]} != _refinements(r["mlist"]):
                raise Wrong(f"cycle n={r['n']} {r['base']}: realized lists differ from the refinements")

    return Op("sweep_cycle_smp", lambda: _cli(argv), check)


def _pipelines_deck(rng, workdir) -> list[Op]:
    ops = []
    for r in range(PIPELINE_ROUNDS):
        for k, n in enumerate(SPECTRAL_SIZES):
            # one target per certificate: all real, one pair, or all pairs
            pairs = (0, 1, n // 2)[(r + k) % 3]
            ops.append(_spectral_op(rng, workdir, len(ops), n, pairs))
        for _ in range(ROUND_REPEATS):
            for n, defective in INERTIAL_WITNESSES:
                ops.append(_inertial_op(rng, workdir, len(ops), n, defective))
            ops.append(_sweep_op(*SWEEP_RANGE, int(rng.integers(1 << 16))))
    return ops

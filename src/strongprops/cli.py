"""Command-line front end.

Subcommands
    verify     check a strong property (ssp/smp/sap/nssp) of a matrix
    realize    realize a nearby spectrum / multiplicity list / inertia /
               rank / distinct-eigenvalue count / similarity class /
               superpattern inside the pattern ("bifurcate" is an alias)
    certify    certify a sign pattern spectrally or inertially arbitrary
    sweep      tabulate verdicts over graph families

Exit codes: 0 success (property holds / realization written / certificate
complete), 1 property fails or certification hypothesis fails, 2 input or
parse error, 3 surjectivity failure, 4 no convergence, 5 pattern
violation, 6 unreachable target, 7 incomplete certificate, 8 internal
check failed.  Each error class in ``errors`` carries its exit code.

Reports are human-readable by default; ``--json`` switches to a canonical
JSON document (schema "strongprops/1") that is byte-identical across runs
with the same inputs and seed.  Default tolerances can be overridden per
run with flags or the STRONGPROPS_TOLERANCES environment variable
("rank_tol=1e-8,newton_tol=1e-11,...").
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import product

import numpy as np

from . import __version__
from .arbitrary import (
    ConjInvariantSpectrum,
    certify_inertially_arbitrary,
    certify_spectrally_arbitrary,
)
from .bifurcation import (
    realize_inertia,
    realize_multiplicity_list,
    realize_q,
    realize_rank,
    realize_similar,
    realize_spectrum,
    realize_superpattern,
)
from .errors import InputError, ParseError, StrongPropsError
from .numerics import Tolerances, sym_eig
from .patterns import (
    Graph,
    SignPattern,
    cycle_spectrum_admissible,
    format_matrix,
    ordered_multiplicity_list,
    parse_graph_text,
    parse_matrix_text,
    parse_sign_pattern_text,
)
from .verifiers import verify_nssp, verify_property

SCHEMA = "strongprops/1"
TOLERANCE_ENV_VAR = "STRONGPROPS_TOLERANCES"

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_INCOMPLETE = 7
EXIT_INTERNAL = 8


# ---------------------------------------------------------------------------
# Input helpers


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from exc


def _load_matrix(path: str) -> np.ndarray:
    return parse_matrix_text(_read(path), source=path)


def _load_graph(path: str) -> Graph:
    return parse_graph_text(_read(path), source=path)


def _load_pattern(path: str) -> SignPattern:
    return parse_sign_pattern_text(_read(path), source=path)


def _tolerances(args) -> Tolerances:
    values = Tolerances().as_dict()
    env = os.environ.get(TOLERANCE_ENV_VAR, "")
    for item in filter(None, (chunk.strip() for chunk in env.split(","))):
        if "=" not in item:
            raise InputError(
                f"malformed {TOLERANCE_ENV_VAR} entry {item!r} (expected name=value)"
            )
        key, _, raw = item.partition("=")
        key = key.strip()
        if key not in values:
            raise InputError(f"unknown tolerance {key!r} in {TOLERANCE_ENV_VAR}")
        try:
            values[key] = float(raw)
        except ValueError:
            raise InputError(
                f"{TOLERANCE_ENV_VAR} entry {item!r} is not a finite number"
            ) from None
        if key == "max_iter":
            if not values[key].is_integer():
                raise InputError(f"{TOLERANCE_ENV_VAR} entry {item!r} is not an integer")
            values[key] = int(values[key])
    for key in ("rank_tol", "cluster_tol", "newton_tol", "max_iter"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return Tolerances(**values)


def _parse_values(text: str, what: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split()]
    except ValueError:
        raise InputError(f"{what} must be whitespace-separated numbers: {text!r}") from None


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split()]
    except ValueError:
        raise InputError(f"{what} must be whitespace-separated integers: {text!r}") from None


def _parse_spectrum_line(line: str, source: str, lineno: int) -> ConjInvariantSpectrum:
    """One target spectrum: real tokens plus 'a+bi' tokens, each complex
    token standing for the conjugate pair a +- bi."""
    reals: list[float] = []
    pairs: list[tuple[float, float]] = []
    for tok in line.split():
        if "i" in tok or "I" in tok or "j" in tok or "J" in tok:
            try:
                z = complex(tok.lower().replace("i", "j"))
            except ValueError:
                raise ParseError(
                    f"{source}:{lineno}: invalid spectrum token {tok!r}"
                ) from None
            if z.imag == 0.0:
                reals.append(z.real)
            else:
                pairs.append((z.real, abs(z.imag)))
        else:
            try:
                reals.append(float(tok))
            except ValueError:
                raise ParseError(
                    f"{source}:{lineno}: invalid spectrum token {tok!r}"
                ) from None
    return ConjInvariantSpectrum(reals=tuple(reals), pairs=tuple(pairs))


def _load_targets(path: str) -> list[ConjInvariantSpectrum]:
    targets = []
    for lineno, line in enumerate(_read(path).splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            targets.append(_parse_spectrum_line(body, path, lineno))
    if not targets:
        raise ParseError(f"{path}: no target spectra found")
    return targets


# ---------------------------------------------------------------------------
# Output helpers


def _json_default(obj):
    """numpy values for ``json.dumps``; np.float64 is a float and needs none."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True, default=_json_default))
    else:
        for line in text_lines:
            print(line)


def _payload(command: str, tol: Tolerances, body: dict, seed=None) -> dict:
    out = {"schema": SCHEMA, "command": command, "tolerances": tol.as_dict()}
    if seed is not None:
        out["seed"] = seed
    out.update(body)
    return out


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _matrix_lines(a: np.ndarray) -> list[str]:
    return ["  " + "  ".join(f"{v: .8f}" for v in row) for row in a]


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    tol = _tolerances(args)
    a = _load_matrix(args.matrix)
    prop = args.property
    graph = pattern = None
    if prop == "nssp":
        if args.graph:
            raise InputError("property nssp takes --pattern, not --graph")
        pattern = _load_pattern(args.pattern) if args.pattern else None
        report = verify_nssp(a, tol, pattern=pattern)
    else:
        if not args.graph:
            raise InputError(f"property {prop} needs --graph")
        if args.pattern:
            raise InputError(f"property {prop} takes --graph, not --pattern")
        graph = _load_graph(args.graph)
        report = verify_property(prop, a, graph=graph, tol=tol)

    if args.witness_out and report.witness is not None:
        _write(args.witness_out, format_matrix(report.witness))

    body = {
        "property": prop,
        "inputs": {"matrix": args.matrix, "graph": args.graph, "pattern": args.pattern},
        "report": report.as_dict(),
    }
    lines = [
        f"{prop.upper()} {'holds' if report.holds else 'FAILS'} "
        f"(nullspace dim {report.nullspace_dim}, "
        f"dual span {report.dual_span_dim}/{report.ambient_dim})",
    ]
    if report.q_used is not None:
        lines.append(f"q used: {report.q_used}")
        for q_alt, verdict in report.q_alternatives:
            lines.append(f"  ambiguous clustering: with q = {q_alt} "
                         f"the verdict would be {'holds' if verdict else 'fails'}")
    if np.isfinite(report.smallest_structural_singular_value):
        lines.append(
            "margin (smallest structural singular value): "
            f"{_fmt(report.smallest_structural_singular_value)}"
        )
    if report.witness is not None:
        lines.append("witness (unit Frobenius norm):")
        lines.extend(_matrix_lines(report.witness))
        if args.witness_out:
            lines.append(f"witness written to {args.witness_out}")
    _emit(args, _payload("verify", tol, body), lines)
    return EXIT_OK if report.holds else EXIT_FAILS


# ---------------------------------------------------------------------------
# realize


def _cmd_realize(args) -> int:
    tol = _tolerances(args)
    a = _load_matrix(args.matrix)

    graph_targets = {
        "target_spectrum": args.target_spectrum,
        "target_mlist": args.target_mlist,
        "target_inertia": args.target_inertia,
        "target_rank": args.target_rank,
        "target_q": args.target_q,
    }
    pattern_targets = {
        "similar_to": args.similar_to,
        "superpattern": args.superpattern,
    }
    chosen = [k for k, v in {**graph_targets, **pattern_targets}.items() if v is not None]
    if len(chosen) != 1:
        raise InputError("exactly one target flag is required")
    kind = chosen[0]

    if kind in graph_targets:
        if not args.graph:
            raise InputError(f"--{kind.replace('_', '-')} needs --graph")
        graph = _load_graph(args.graph)
        if kind == "target_spectrum":
            values = _parse_values(args.target_spectrum, "target spectrum")
            result = realize_spectrum(a, graph, values, tol)
        elif kind == "target_mlist":
            entries = _parse_ints(args.target_mlist, "multiplicity list")
            result = realize_multiplicity_list(a, graph, entries, tol)
        elif kind == "target_inertia":
            parts = _parse_ints(args.target_inertia, "target inertia")
            if len(parts) != 2:
                raise InputError("target inertia must be two integers 'n+ n-'")
            result = realize_inertia(a, graph, (parts[0], parts[1]), tol)
        elif kind == "target_rank":
            result = realize_rank(a, graph, args.target_rank, tol)
        else:
            result = realize_q(a, graph, args.target_q, tol)
    else:
        if not args.pattern:
            raise InputError(f"--{kind.replace('_', '-')} needs --pattern")
        pattern = _load_pattern(args.pattern)
        if kind == "similar_to":
            m_target = _load_matrix(args.similar_to)
            result = realize_similar(a, pattern, m_target, tol)
        else:
            p_super = _load_pattern(args.superpattern)
            result = realize_superpattern(a, pattern, p_super, step=args.step, tol=tol)

    if args.out:
        _write(args.out, format_matrix(result.matrix))

    body = {
        "inputs": {"matrix": args.matrix, "graph": args.graph, "pattern": args.pattern},
        "result": result.as_dict(),
    }
    recheck = result.property_report
    lines = [
        f"realized target {result.target_kind} in {result.iterations} "
        f"Gauss-Newton iterations (residual {_fmt(result.final_residual)})",
        f"property re-verified: {recheck.property_name.upper()} holds"
        if recheck is not None
        else "property re-verification skipped",
        "realized matrix:",
        *_matrix_lines(result.matrix),
    ]
    if result.marginal_entries:
        lines.append(f"marginal entries (within 10x of the zero threshold): "
                     f"{list(result.marginal_entries)}")
    if args.out:
        lines.append(f"matrix written to {args.out}")
    _emit(args, _payload("realize", tol, body), lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# certify


def _cmd_certify(args) -> int:
    tol = _tolerances(args)
    pattern = _load_pattern(args.pattern)
    witness = _load_matrix(args.witness)
    if args.spectrally_arbitrary:
        targets = _load_targets(args.spectrally_arbitrary)
        cert = certify_spectrally_arbitrary(pattern, witness, targets, tol)
    else:
        cert = certify_inertially_arbitrary(pattern, witness, tol)

    body = {"certificate": cert.as_dict()}
    lines = [
        f"{cert.kind} certificate: "
        f"{'complete' if cert.complete else 'INCOMPLETE'}",
        f"evidence: {sum(e.ok for e in cert.evidence)}/{len(cert.evidence)} "
        "targets realized",
    ]
    for e in cert.evidence:
        status = "ok" if e.ok else "FAILED"
        extra = f" residual {_fmt(e.residual)}" if e.residual is not None else ""
        detail = f" ({e.detail})" if e.detail else ""
        lines.append(f"  target {e.target}: {status}{extra}{detail}")
    _emit(args, _payload("certify", tol, body), lines)
    return EXIT_OK if cert.complete else EXIT_INCOMPLETE


# ---------------------------------------------------------------------------
# sweep


def _cycle_bases(n: int) -> list[tuple[str, np.ndarray]]:
    adj = np.zeros((n, n))
    for i in range(n):
        adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = 1.0
    twisted = adj.copy()
    twisted[0, n - 1] = twisted[n - 1, 0] = -1.0
    return [("plain", adj), ("twisted", twisted)]


def _sweep_base(family: str, n: int, rng) -> list[tuple[str, np.ndarray, Graph]]:
    if family == "complete":
        g = Graph.complete(n)
        a = np.diag(rng.uniform(-1.0, 1.0, size=n))
        for i, j in g.edges:
            a[i, j] = a[j, i] = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
        return [("random", a, g)]
    if family == "empty":
        g = Graph.empty(n)
        vals = rng.uniform(-1.0, 1.0, size=n)
        if n >= 2:
            vals[1] = vals[0]  # forced repeat
        return [("repeated-diagonal", np.diag(vals), g)]
    if family == "path":
        g = Graph.path(n)
        a = np.diag(rng.uniform(-1.0, 1.0, size=n))
        for i in range(n - 1):
            a[i, i + 1] = a[i + 1, i] = rng.uniform(0.5, 1.5)
        return [("random-jacobi", a, g)]
    g = Graph.cycle(n)
    return [(name, a, g) for name, a in _cycle_bases(n)]


def _all_refinements(mlist: tuple[int, ...]) -> list[tuple[int, ...]]:
    def compositions(m: int) -> list[tuple[int, ...]]:
        if m == 0:
            return [()]
        out = []
        for first in range(1, m + 1):
            out.extend((first,) + rest for rest in compositions(m - first))
        return out

    choices = [compositions(m) for m in mlist]
    return [tuple(x for block in combo for x in block) for combo in product(*choices)]


def _cmd_sweep(args) -> int:
    tol = _tolerances(args)
    if args.n_min < 1 or args.n_max > 12 or args.n_min > args.n_max:
        raise InputError("sweep range must satisfy 1 <= n-min <= n-max <= 12")
    if args.family == "cycle" and args.n_min < 3:
        raise InputError("cycle sweeps need n >= 3")
    rng = np.random.default_rng(args.seed)
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        for name, a, g in _sweep_base(args.family, n, rng):
            report = verify_property(args.property, a, graph=g, tol=tol)
            lam = sym_eig(a, tol).eigenvalues
            mlist = tuple(ordered_multiplicity_list(lam, tol))
            row = {
                "family": args.family,
                "n": n,
                "base": name,
                "property": args.property,
                "holds": report.holds,
                "q": len(mlist),
                "mlist": list(mlist),
                "realized_lists": [],
                "oracle_agreed": None,
            }
            if args.family == "cycle" and args.realize_lists:
                smp_report = (
                    report
                    if args.property == "smp"
                    else verify_property("smp", a, graph=g, tol=tol)
                )
                if smp_report.holds:
                    realized = []
                    agreed = True
                    for target in _all_refinements(mlist):
                        if target == mlist:
                            achieved_lam = lam
                            ok = True
                        else:
                            try:
                                res = realize_multiplicity_list(
                                    a, g, target, tol, base_report=smp_report
                                )
                                achieved_lam = sym_eig(res.matrix, tol).eigenvalues
                                ok = True
                            except StrongPropsError:
                                ok = False
                        if ok:
                            realized.append(list(target))
                            agreed &= bool(
                                cycle_spectrum_admissible(achieved_lam, tol)
                            )
                    row["realized_lists"] = realized
                    row["oracle_agreed"] = agreed
            rows.append(row)

    body = {"family": args.family, "property": args.property, "rows": rows}
    header = [
        "family", "n", "base", "property", "holds", "q", "mlist",
        "realized_lists", "oracle_agreed",
    ]
    lines = ["\t".join(header)]
    for row in rows:
        lines.append(
            "\t".join(
                [
                    row["family"],
                    str(row["n"]),
                    row["base"],
                    row["property"],
                    str(row["holds"]),
                    str(row["q"]),
                    ",".join(str(m) for m in row["mlist"]),
                    ";".join(
                        ",".join(str(m) for m in lst) for lst in row["realized_lists"]
                    ),
                    "" if row["oracle_agreed"] is None else str(row["oracle_agreed"]),
                ]
            )
        )
    _emit(args, _payload("sweep", tol, body, seed=args.seed), lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def _add_tolerance_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "tolerances",
        "defaults: rank_tol=1e-8 (relative singular-value cutoff), "
        "cluster_tol=1e-6 (relative eigenvalue clustering), "
        "newton_tol=1e-11 (Gauss-Newton residual), max_iter=50; "
        f"overridable via {TOLERANCE_ENV_VAR}",
    )
    group.add_argument("--rank-tol", dest="rank_tol", type=float, default=None)
    group.add_argument("--cluster-tol", dest="cluster_tol", type=float, default=None)
    group.add_argument("--newton-tol", dest="newton_tol", type=float, default=None)
    group.add_argument("--max-iter", dest="max_iter", type=int, default=None)


def _configure_realize(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("matrix", help="base matrix file")
    sub.add_argument("--graph", help="graph file (for spectrum/mlist/inertia/rank/q targets)")
    sub.add_argument("--pattern", help="sign pattern file (for similar-to/superpattern targets)")
    target = sub.add_argument_group("target (exactly one)")
    target.add_argument("--target-spectrum", metavar="'v1 v2 ...'")
    target.add_argument("--target-mlist", metavar="'m1 m2 ...'")
    target.add_argument("--target-inertia", metavar="'p q'")
    target.add_argument("--target-rank", type=int)
    target.add_argument("--target-q", type=int)
    target.add_argument("--similar-to", metavar="MATRIX_FILE")
    target.add_argument("--superpattern", metavar="PATTERN_FILE")
    sub.add_argument("--step", type=float, default=None,
                     help="initial superpattern entry size (auto-shrinks)")
    sub.add_argument("--out", help="write the realized matrix to this file")
    sub.add_argument("--json", action="store_true", help="emit a JSON report")
    _add_tolerance_flags(sub)
    sub.set_defaults(func=_cmd_realize)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="strongprops",
        description="Verify strong spectral properties of matrices and "
        "realize nearby spectra, multiplicity lists, inertias, and "
        "sign-pattern certificates.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    verify = subs.add_parser("verify", help="verify a strong property")
    verify.add_argument("matrix", help="matrix file")
    verify.add_argument("--property", required=True,
                        choices=["ssp", "smp", "sap", "nssp"])
    verify.add_argument("--graph", help="graph file (ssp/smp/sap)")
    verify.add_argument("--pattern",
                        help="sign pattern file (nssp; defaults to the matrix's own support)")
    verify.add_argument("--witness-out", help="write the failure witness to this file")
    verify.add_argument("--json", action="store_true", help="emit a JSON report")
    _add_tolerance_flags(verify)
    verify.set_defaults(func=_cmd_verify)

    for name in ("realize", "bifurcate"):
        _configure_realize(subs.add_parser(
            name, help="realize a target inside the pattern"
            if name == "realize" else argparse.SUPPRESS,
        ))

    certify = subs.add_parser("certify", help="certify a sign pattern")
    certify.add_argument("pattern", help="sign pattern file")
    certify.add_argument("witness", help="witness matrix file")
    mode = certify.add_mutually_exclusive_group(required=True)
    mode.add_argument("--spectrally-arbitrary", metavar="TARGETS_FILE",
                      help="file of target spectra, one per line "
                      "(real tokens and 'a+bi' conjugate-pair tokens)")
    mode.add_argument("--inertially-arbitrary", action="store_true")
    certify.add_argument("--json", action="store_true", help="emit a JSON report")
    _add_tolerance_flags(certify)
    certify.set_defaults(func=_cmd_certify)

    sweep = subs.add_parser("sweep", help="tabulate verdicts over a graph family")
    sweep.add_argument("--family", required=True,
                       choices=["path", "cycle", "complete", "empty"])
    sweep.add_argument("--n-min", type=int, required=True)
    sweep.add_argument("--n-max", type=int, required=True)
    sweep.add_argument("--property", default="ssp", choices=["ssp", "smp", "sap"])
    sweep.add_argument("--seed", type=int, default=0,
                       help="seed for random base matrices (recorded in the report)")
    sweep.add_argument("--realize-lists", action="store_true",
                       help="for cycles: realize all refinement lists from each "
                       "base and cross-check the spectra against the "
                       "admissibility oracle")
    sweep.add_argument("--json", action="store_true", help="emit a JSON report")
    _add_tolerance_flags(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StrongPropsError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        for key, value in getattr(exc, "details", {}).items():
            print(f"  {key}: {value}", file=sys.stderr)
        if getattr(exc, "trace", ()):
            print(f"  residual trace: {[f'{r:.3e}' for r in exc.trace]}", file=sys.stderr)
        return exc.exit_code
    except np.linalg.LinAlgError as exc:
        print(f"internal error: a linear-algebra routine failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

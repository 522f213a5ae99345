"""Digest of every op's output on one benchmark deck, for bitwise comparisons.

Usage (from the repository root):

    python3 tools/deck_digest.py --workload verify --seed 1
    python3 tools/deck_digest.py --workload realize --seed 1
    python3 tools/deck_digest.py --workload pipelines --seed 66

Builds the deck of ``bench/decks.py`` for the workload and seed in a
temporary directory and runs each op once, in the order that ``build``
returns.  It prints one line per op (index, kind, whether the benchmark's
check accepts the output, SHA-256 of the output) and a last line with the
SHA-256 of all the op digests.  For ``verify`` each op line also carries a
digest of the decision fields alone (``holds``, ``nullspace_dim``,
``dual_span_dim``, ``dual_verdict``, ``q_used`` and ``q_alternatives``)
and ``repr`` of the margin ``smallest_structural_singular_value`` (``-``
when the op raised), and a ``decisions`` line their combined digest, so two
checkouts make the same rank decisions exactly when those lines agree,
whatever the margins' last digits or the witnesses.  The worst relative
margin change between the digests ``a.txt`` and ``b.txt`` of two checkouts,
over the margins above 1e-7 (a verification that fails reads at most the
rank cut, 1e-8 times sigma_max <= 2), is

    paste -d' ' a.txt b.txt | awk '$6 != $12 && $6 > 1e-7 {d = $12 / $6 - 1; if (d < 0) d = -d; if (d > w) w = d} END {print w + 0}'

The census of a workload's ops that are not ``ok`` over seeds 1-100 (seed,
index, kind and status of each, then their count; about 3.4 s a seed for
``pipelines`` on one core of a shared 2-vCPU Intel Xeon host) is

    for s in $(seq 1 100); do python3 tools/deck_digest.py --workload pipelines --seed $s | awk -v s=$s '$1 != "total" && $1 != "decisions" && $3 != "ok" {print s, $1, $2, $3}'; done | awk '{print} END {print NR, "not ok"}'

The output hashed is:

verify
    ``json.dumps(report.as_dict(), sort_keys=True)``;
realize
    the realized matrix's bytes and ``json.dumps(result.as_dict(),
    sort_keys=True)``;
pipelines
    the exit code, standard output and standard error of ``cli.main``, with
    the temporary directory replaced by a fixed token;

or, when an op raises, the exception's type and message.  Two checkouts
give the same outputs on a deck exactly when their digests agree.  The
package is imported from this checkout's ``src``; ``bench`` is only read.

The BLAS pool is pinned to one thread before numpy is imported, as in
``bench/run.py``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import decks  # noqa: E402

TMP_TOKEN = "<tmpdir>"
DECISION_FIELDS = (
    "holds", "nullspace_dim", "dual_span_dim", "dual_verdict", "q_used", "q_alternatives",
)


def output_bytes(workload: str, result, workdir: str) -> bytes:
    if workload == "verify":
        return json.dumps(result.as_dict(), sort_keys=True).encode()
    if workload == "realize":
        text = json.dumps(result.as_dict(), sort_keys=True)
        return result.matrix.tobytes() + text.encode()
    code, out, err = result
    text = "\0".join([str(code), out, err]).replace(workdir, TMP_TOKEN)
    return text.encode()


def decision_bytes(report) -> bytes:
    fields = report.as_dict()
    return json.dumps({name: fields[name] for name in DECISION_FIELDS}, sort_keys=True).encode()


def digest(workload: str, seed: int) -> list[str]:
    lines, total, decided = [], hashlib.sha256(), hashlib.sha256()
    with tempfile.TemporaryDirectory() as workdir:
        deck, _warm = decks.build(workload, seed, workdir)
        for index, op in enumerate(deck):
            status = "ok"
            try:
                result = op.run()
            except Exception as exc:  # the op failed: its error is its output
                status = "raised"
                data = decisions = f"{type(exc).__name__}: {exc}".replace(workdir, TMP_TOKEN).encode()
                margin = "-"
            else:
                data = output_bytes(workload, result, workdir)
                if workload == "verify":
                    decisions = decision_bytes(result)
                    margin = repr(result.smallest_structural_singular_value)
                try:
                    op.check(result)
                except (decks.Declined, decks.Wrong) as exc:
                    status = type(exc).__name__.lower()
            sha = hashlib.sha256(data).hexdigest()
            total.update(sha.encode())
            line = f"{index} {op.kind} {status} {sha}"
            if workload == "verify":
                decision_sha = hashlib.sha256(decisions).hexdigest()
                decided.update(decision_sha.encode())
                line += f" {decision_sha} {margin}"
            lines.append(line)
    lines.append(f"total {total.hexdigest()}")
    if workload == "verify":
        lines.append(f"decisions {decided.hexdigest()}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=decks.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    print("\n".join(digest(args.workload, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark: one shortened pass of each deck.

Run from the repository root:

    python3 bench/selftest.py

For every workload it runs ``run.py --smoke`` (the smallest op of each kind,
once) untraced and traced, and checks that every end-to-end metric is
printed with its unit, that the result line holds exactly the metrics
BENCHMARK.json names with their units, and that every per-layer metric
comes out of the traced run.  It also checks that the benchmark exits
non-zero without a result line when the package sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
from spans import METRICS

ROOT = run.ROOT
FAILURES = []


def expect(ok: bool, what: str):
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(root / "bench" / "run.py"), *args]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=600, check=False)


def check_workload(spec: dict, workload: str):
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for trace, wanted in ((0, end_to_end), (1, per_layer)):
        proc = bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke")
        lines = proc.stdout.strip().splitlines()
        expect(proc.returncode == 0 and bool(lines), f"{workload} trace={trace}: exit code {proc.returncode}")
        if proc.returncode != 0 or not lines:
            print(proc.stderr[-2000:])
            continue
        result = json.loads(lines[-1])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload} trace={trace}: result keys")
        expect(result["correct"] is True and result["attempted"] >= 1, f"{workload} trace={trace}: correct, ops attempted")
        got = {name: entry["unit"] for name, entry in result["metrics"].items()}
        expect(got == wanted, f"{workload} trace={trace}: metrics and units match BENCHMARK.json")
        if trace == 0:
            printed = {tuple(line.split()[1::2]) for line in lines if line.startswith(f"{workload} ")}
            for name, unit in run.END_TO_END_UNITS.items():
                expect((name, unit) in printed, f"{workload}: prints {name} in {unit}")


def check_missing_sources():
    """In a directory with only BENCHMARK.json and bench/, it must fail."""
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = bench(bare, "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0")
        printed_result = proc.stdout.strip().endswith("}")
        expect(proc.returncode != 0 and not printed_result, "no package sources: non-zero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "BENCHMARK.json lists the workloads")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == METRICS, "BENCHMARK.json lists the per-layer metrics")
    expect(all(run.END_TO_END_UNITS.get(m["name"]) == m["unit"] for m in spec["end_to_end"]),
           "BENCHMARK.json end-to-end units match the printed ones")
    for workload in run.WORKLOADS:
        check_workload(spec, workload)
    check_missing_sources()
    print(f"{len(FAILURES)} failures")
    sys.exit(1 if FAILURES else 0)


if __name__ == "__main__":
    main()

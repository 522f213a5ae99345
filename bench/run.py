"""Benchmark of strongprops: one closed-loop client replaying a seeded deck.

Usage (from the repository root):

    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

``--workload`` is ``verify``, ``realize`` or ``pipelines`` (see decks.py),
or ``all`` to run each in its own process and print them together.  A run
replays whole passes of its deck until another pass would end after
``--seconds``, checks every output and prints the end-to-end metrics, or
with ``--trace 1`` the per-layer metrics of a traced replay (spans.py).
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
``correct`` is false when some op returned a wrong result; an op that
raised or reported its own failure counts in ``failed`` only.

The BLAS pool is pinned to one thread before numpy is imported: the
verifiers run many small dense SVDs, which a thread pool slows down.
"""

import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("verify", "realize", "pipelines")
SETUP_REPEATS = 3
#: op_p90_s needs about ten ops beyond it
MIN_OPS = 100
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "fail_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: printed with the others, but zero on some workloads, so it is not a
#: bounded metric; the result line carries it as attempted and failed
UNBOUNDED = ("fail_frac",)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one shortened pass: the smallest op of each kind (self-test)")
    return parser.parse_args(argv)


def import_package():
    """Import strongprops from this checkout's src/, never from elsewhere."""
    if not (SRC / "strongprops" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'strongprops'} not found; run from a strongprops checkout")
    sys.path.insert(0, str(SRC))
    import strongprops

    if Path(strongprops.__file__).resolve().parent != (SRC / "strongprops").resolve():
        sys.exit(f"error: imported strongprops from {strongprops.__file__}, not {SRC}")
    return strongprops


def blas_threads() -> str:
    """Thread counts reported by the OpenBLAS copies bundled with numpy and scipy."""
    import numpy
    import scipy

    found = []
    for package in (numpy, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    found.append(f"{package.__name__}:{getter()}")
                    break
    return ",".join(found) or "unknown"


def environment_line() -> str:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    scipy_blas = scipy.__config__.CONFIG["Build Dependencies"]["blas"]
    return (
        f"# env numpy {numpy.__version__} ({blas['name']} {blas['version']}), "
        f"scipy {scipy.__version__} ({scipy_blas['name']} {scipy_blas['version']}), "
        f"blas threads {blas_threads()}, OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}, "
        f"nproc {len(os.sched_getaffinity(0))}/{os.cpu_count()}, python {sys.version.split()[0]}"
    )


class Replay:
    """Outcome of replaying whole passes of a deck."""

    def __init__(self):
        self.latencies: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.op_seconds = 0.0
        self.passes = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: Counter = Counter()

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.op_seconds


def run_op(op, replay: Replay):
    """Run one op, time it, then check its output outside the timed span."""
    from decks import Declined, Wrong

    start = time.perf_counter()
    try:
        result = op.run()
        error = None
    except Exception as exc:  # the op failed; the run goes on
        error = f"{type(exc).__name__}: {str(exc)[:120]}"
    elapsed = time.perf_counter() - start
    replay.latencies.append(elapsed)
    replay.by_kind.setdefault(op.kind, []).append(elapsed)
    replay.op_seconds += elapsed
    if error is None:
        try:
            op.check(result)
        except Declined as exc:
            error = f"declined: {exc}"
        except Wrong as exc:
            error = f"WRONG: {exc}"
            replay.wrong += 1
    if error is not None:
        replay.failed += 1
        replay.reasons[(op.kind, error)] += 1


def replay_deck(deck, seconds: float, min_ops: int = 0, tracer=None) -> Replay:
    """Replay whole passes while another one would end by ``seconds``,
    give or take half a pass, and until ``min_ops`` ops ran."""
    replay = Replay()
    start = time.perf_counter()
    while True:
        for op in deck:
            if tracer is not None:
                tracer.op_id += 1
            run_op(op, replay)
        replay.passes += 1
        projected = (time.perf_counter() - start) * (replay.passes + 0.5) / replay.passes
        if projected > seconds and replay.attempted >= min_ops:
            return replay


def setup(workload: str, seed: int, workdir: Path, smoke: bool):
    """Build the deck and run the smallest op of each kind, SETUP_REPEATS times.

    Returns the deck and the set-up times of each repeat.
    """
    import decks

    times = []
    for _ in range(1 if smoke else SETUP_REPEATS):
        start = time.perf_counter()
        deck, warm = decks.build(workload, seed, str(workdir))
        for op in warm:
            try:
                op.run()
            except Exception:  # counted when the op is replayed
                pass
        times.append(time.perf_counter() - start)
    return (warm if smoke else deck), times


def metric(value, unit):
    return {"value": value, "unit": unit}


def print_ops(replay: Replay):
    for kind, times in replay.by_kind.items():
        print(f"# op {kind}: {len(times)} runs, median {statistics.median(times):.4f} s, "
              f"max {max(times):.4f} s, total {sum(times):.3f} s")
    for (kind, reason), count in sorted(replay.reasons.items()):
        print(f"# failed {count}x {kind}: {reason}")


def run_workload(args) -> dict:
    import numpy as np

    import_seconds = time.perf_counter() - PROCESS_START
    print(environment_line())
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        deck, setup_times = setup(args.workload, args.seed, workdir, args.smoke)
        setup_s = import_seconds + statistics.median(setup_times)
        print(f"# deck {args.workload}: {len(deck)} ops per pass, seed {args.seed}; "
              f"imports {import_seconds:.3f} s, set-up repeats {[round(t, 3) for t in setup_times]} s")
        seconds = 0.0 if args.smoke else args.seconds
        if args.trace:
            return traced_run(args, deck, seconds)
        replay = replay_deck(deck, seconds, 0 if args.smoke else MIN_OPS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    p50, p90 = np.percentile(replay.latencies, [50, 90])
    values = {
        "ops_per_s": replay.ops_per_s,
        "op_p50_s": float(p50),
        "op_p90_s": float(p90),
        "fail_frac": replay.failed / replay.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"# {replay.passes} passes, {replay.attempted} ops in {replay.op_seconds:.3f} s of op time, "
          f"{replay.failed} failed, {replay.wrong} wrong")
    print_ops(replay)
    for name, value in values.items():
        print(f"{args.workload} {name} {value:.6g} {END_TO_END_UNITS[name]}")
    return {
        "correct": replay.wrong == 0,
        "attempted": replay.attempted,
        "failed": replay.failed,
        "metrics": {
            name: metric(value, END_TO_END_UNITS[name])
            for name, value in values.items() if name not in UNBOUNDED
        },
    }


def traced_run(args, deck, seconds) -> dict:
    """Untraced passes for half the time, then traced passes for the rest."""
    from spans import METRICS, Tracer

    plain = replay_deck(deck, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = replay_deck(deck, seconds / 2, tracer=tracer)
    finally:
        tracer.uninstall()
    values = tracer.layer_metrics(traced.passes)
    values["trace.ops_per_s_delta"] = plain.ops_per_s - traced.ops_per_s
    values["trace.overhead_frac"] = 1.0 - traced.ops_per_s / plain.ops_per_s
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.write(spans_path)
    print(f"# untraced: {plain.passes} passes, {plain.ops_per_s:.4g} ops/s; traced: {traced.passes} passes, "
          f"{traced.ops_per_s:.4g} ops/s; {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    print_ops(traced)
    for name, unit in METRICS.items():
        print(f"{args.workload} {name} {values[name]:.6g} {unit}")
    return {
        "correct": plain.wrong + traced.wrong == 0,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": {name: metric(values[name], unit) for name, unit in METRICS.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {workload} exited with {proc.returncode}: {proc.stderr.strip()[-500:]}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = entry
    return combined


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("error: --seconds must be positive")
    if args.workload == "all":
        result = run_all(args)
    else:
        import_package()
        result = run_workload(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

"""One benchmark run of one workload, in a fresh process.

Started by ``run.py`` with the BLAS thread pools pinned to one thread and
``src`` on the import path.  Prints a human-readable report, then the
result as one JSON object on the last line of standard output.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs every round twice, untraced and then with the per-layer tracer
installed, and reports the per-layer metrics of set-up plus the traced
passes.  ``--write-reference`` runs every batch of the pool once and writes
the reference file instead of timing.
"""

from time import perf_counter

IMPORT_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402
import scipy.optimize  # noqa: E402
import scipy.sparse  # noqa: E402

import repro  # noqa: E402
from repro.attacks.lp_engine import highs_bindings  # noqa: E402

import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

highs_bindings()
IMPORT_S = perf_counter() - IMPORT_START

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# Three set-ups give a median that one slow set-up cannot move.  The
# imports are timed as often, in fresh interpreters started with
# ``IMPORT_PROBE``, which only import and print the time taken.
SETUP_REPEATS = 3
IMPORT_PROBE = "--import-time"
# Untraced runs repeat every pass at least this often, for ``best_of``.
MIN_ROUNDS = 3

END_TO_END_METRICS = {
    "wall_s": "s",
    "rerun_s": "s",
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}


def fingerprint() -> dict:
    """Machine and library facts, so numbers from different machines are never compared."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    bindings = highs_bindings()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs_bindings": bindings.source if bindings is not None else None,
    }


def _fmt(values: list[float]) -> str:
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method) of ``values``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Checker:
    """Counts attempted and failed ops against the reference and the repeat pass."""

    def __init__(self, workload, reference: dict) -> None:
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def check_round(self, batch: int, first: list, repeat: list) -> None:
        expected = self.reference.get(str(batch))
        ops = max(len(first), len(repeat), len(expected or ()))
        self.attempted += 2 * ops
        problem = None if expected is None else self.workload.reference_problem(batch, expected)
        if problem is not None:
            print(f"reference batch {batch} is unusable: {problem}", file=sys.stderr)
        if problem or expected is None or len(first) != len(expected) or len(repeat) != len(first):
            self.failed += 2 * ops
            return
        identical = self.workload.repeat_identical(batch)
        for got, again, want in zip(first, repeat, expected):
            bad = not workloads.record_matches(got, want) or self.workload.op_failures(got)
            self.failed += int(bad)
            self.failed += int(bad or again != got or not identical)


def timed_pass(workload, state, batch: int, tag: str, clock=None) -> tuple[float, list]:
    """One pass and its wall time; a pass that raises yields no records, so all its ops fail."""
    workload.prepare_pass(batch, tag)
    gc.collect()
    if clock is not None:
        clock.start()
    start = perf_counter()
    try:
        records = workload.run_pass(state, batch, tag)
    except Exception:  # a failing op must count as failed, not end the run
        traceback.print_exc()
        records = []
    return perf_counter() - start, records


def run_round(order: list[int], checker, one_pass) -> float:
    """The cold pass and then the repeat pass of every batch, in ``order``; returns its time."""
    start = perf_counter()
    for batch in order:
        first = one_pass(batch, "cold")
        repeat = one_pass(batch, "warm")
        checker.check_round(batch, first, repeat)
    return perf_counter() - start


def run_rounds(workload, args, checker, one_pass, min_rounds: int) -> list[float]:
    """Rounds over the whole pool until ``--seconds``; returns each round's time.

    A round visits every batch of the pool in an order drawn from the
    seed, so every round does the same work.  At least ``min_rounds``
    rounds run; another is started only while the elapsed time plus one
    average round stays within the budget.
    """
    rounds = []
    start = perf_counter()
    while True:
        rounds.append(run_round(pool_order(workload, args.seed), checker, one_pass))
        elapsed = perf_counter() - start
        if len(rounds) >= min_rounds and elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            return rounds


def pool_order(workload, seed: int) -> list[int]:
    return [int(b) for b in numpy.random.default_rng(seed).permutation(workload.pool)]


def best_of(passes: list[tuple[list[float], float]]) -> tuple[list[float], float]:
    """Per op position, the least latency over repeats of one pass; likewise its tail.

    Every repeat of a pass does the same work, so a repeat is slower only
    because the host was.  The host's fast and slow phases last seconds
    (see ``probe``); the probes around a pass cannot see a phase change
    inside it, but each op's best repeat drops it.
    """
    ops = [min(column) for column in zip(*(gaps for gaps, _ in passes))]
    return ops, min(tail for _, tail in passes)


def scaled_import_s() -> float:
    """This process's import time, scaled by a probe taken right after it."""
    after = probe.speed()
    return IMPORT_S * probe.factor(after, after)


def import_times() -> list[float]:
    """Scaled import times: this process's and fresh interpreters', ``SETUP_REPEATS`` in all."""
    times = [scaled_import_s()]
    for _ in range(SETUP_REPEATS - 1):
        child = subprocess.run(
            [sys.executable, __file__, IMPORT_PROBE],
            stdout=subprocess.PIPE, text=True, check=True, timeout=60,
        )
        times.append(float(child.stdout))
    return times


def pass_metrics(passes: dict[tuple[int, str], list]) -> dict:
    """wall_s, rerun_s and op percentiles from every repeat of every pass."""
    pass_s = {"cold": 0.0, "warm": 0.0}
    latencies_ms = []
    for (_, tag), repeats in passes.items():
        ops, tail = best_of(repeats)
        pass_s[tag] += sum(ops) + tail
        latencies_ms += [gap * 1000.0 for gap in ops]
    return {
        "wall_s": pass_s["cold"],
        "rerun_s": pass_s["warm"],
        "op_p50_ms": statistics.median(latencies_ms),
        "op_p90_ms": percentile(latencies_ms, 90),
        "positions": len(latencies_ms),
    }


def untraced(workload, args, checker) -> dict:
    """End-to-end metrics; times are scaled to the probe's reference speed."""
    imports = import_times()
    setup_raw, setup_scaled = [], []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        before = probe.speed()
        start = perf_counter()
        state = workload.setup()
        seconds = perf_counter() - start
        setup_raw.append(seconds)
        setup_scaled.append(seconds * probe.factor(before, probe.speed()))

    clock = workloads.OpClock()
    workload.install_op_clock(clock)
    raw: dict[tuple[int, str], list] = {}
    scaled: dict[tuple[int, str], list] = {}
    latest = [probe.speed()]

    def one_pass(batch, tag):
        # The probe after one pass is the probe before the next.
        before = latest[0]
        records = timed_pass(workload, state, batch, tag, clock)[1]
        gaps, tail = clock.finish()
        latest[0] = probe.speed()
        scale = probe.factor(before, latest[0])
        raw.setdefault((batch, tag), []).append((gaps, tail))
        scaled.setdefault((batch, tag), []).append(([gap * scale for gap in gaps], tail * scale))
        return records

    # The first passes of a process run slower than later repeats (the
    # process touches memory for the first time), so one round runs
    # first, checked but not timed.
    run_round(pool_order(workload, args.seed), checker, one_pass)
    raw.clear()
    scaled.clear()
    rounds = run_rounds(workload, args, checker, one_pass, MIN_ROUNDS)
    clock.uninstall()
    metrics = pass_metrics(scaled)
    unscaled = pass_metrics(raw)

    print(f"imports (scaled): {_fmt(imports)} s; set-ups: {_fmt(setup_raw)} s, scaled {_fmt(setup_scaled)} s")
    print(f"rounds: {_fmt(rounds)} s; op positions per round: {metrics.pop('positions')}")
    print("unscaled: " + ", ".join(
        f"{name} {unscaled[name]:.4g}" for name in ("wall_s", "rerun_s", "op_p50_ms", "op_p90_ms")
    ))
    metrics["setup_s"] = statistics.median(imports) + statistics.median(setup_scaled)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {name: metrics[name] for name in END_TO_END_METRICS}


def oracle_failures(samples: list) -> int:
    """Compare sampled online checks with a cold system over the live rows."""
    from repro.tomography.linear_system import LinearSystem

    failed = 0
    for system, observed, result in samples:
        cold = LinearSystem(system.raw_matrix, backend=system.backend_name)
        estimate = cold.estimate(observed)
        residual_l1 = float(abs(cold.predict(estimate) - observed).sum())
        scale = max(1.0, float(abs(estimate).max()))
        same_estimate = float(abs(estimate - result.estimate).max()) <= 1e-8 * scale
        same_residual = abs(residual_l1 - result.residual_l1) <= 1e-8 * max(1.0, residual_l1)
        failed += int(not (same_estimate and same_residual))
    return failed


def traced(workload, args, checker) -> dict:
    tracer = tracing.Tracer()
    tracer.check_every = workload.oracle_every
    tracer.install()
    start = perf_counter()
    state = workload.setup()
    traced_wall = perf_counter() - start
    tracer.uninstall()

    plain_s = traced_s = 0.0
    checkpoint_bytes = 0

    def one_pass(batch, tag):
        # Each pass runs untraced, then traced: their ratio is the overhead.
        nonlocal plain_s, traced_s, checkpoint_bytes
        plain_s += timed_pass(workload, state, batch, tag)[0]
        tracer.install()
        seconds, records = timed_pass(workload, state, batch, tag)
        tracer.uninstall()
        traced_s += seconds
        if hasattr(workload, "checkpoint_bytes"):
            checkpoint_bytes += workload.checkpoint_bytes(batch, tag)
        samples, tracer.sampled_checks = tracer.sampled_checks, []
        checker.attempted += len(samples)
        checker.failed += oracle_failures(samples)
        return records

    rounds = run_rounds(workload, args, checker, one_pass, 1)
    print(f"rounds: {len(rounds)}, untraced passes: {plain_s:.3f} s, traced passes: {traced_s:.3f} s")
    traced_wall += traced_s
    overhead = traced_s / plain_s - 1.0
    return tracer.metrics(traced_wall, overhead, checkpoint_bytes)


def write_reference(workload, path: Path) -> None:
    state = workload.setup()
    entries = {}
    for batch in range(workload.pool):
        workload.prepare_pass(batch, "cold")
        entries[str(batch)] = workload.run_pass(state, batch, "cold")
        print(f"batch {batch}: {len(entries[str(batch)])} ops", flush=True)
    doc = {"workload": workload.name, "size": workload.size, "batches": entries}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=None, separators=(",", ":")) + "\n")
    print(f"wrote {path}")


def report(metrics: dict, units: dict, checker: Checker) -> None:
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g}  {units[name]}")
    frac = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"  {'failed_frac':<{width}}  {frac:>14.6g}  ratio  ({checker.failed}/{checker.attempted})")


def main() -> int:
    if sys.argv[1:] == [IMPORT_PROBE]:
        print(scaled_import_s())
        return 0
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--reference", type=Path, default=None)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    src = (ROOT / "src").resolve()
    if Path(repro.__file__).resolve().parent.parent != src:
        print(f"repro was imported from {repro.__file__}, not from {src}", file=sys.stderr)
        return 2

    work_dir = ROOT / ".perfbench_work" / str(os.getpid())
    work_dir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.size, work_dir)
        reference_path = args.reference or REFERENCE_DIR / f"{args.workload}-{args.size}.json"
        if args.write_reference:
            write_reference(workload, reference_path)
            return 0
        reference = json.loads(reference_path.read_text())["batches"]
        checker = Checker(workload, reference)
        print("fingerprint:", json.dumps(fingerprint(), sort_keys=True))
        if args.trace:
            metrics = traced(workload, args, checker)
            units = tracing.PER_LAYER_METRICS
        else:
            metrics = untraced(workload, args, checker)
            units = END_TO_END_METRICS
        print(f"workload {args.workload} (size {args.size}, seed {args.seed}, trace {args.trace}):")
        report(metrics, units, checker)
        result = {
            "correct": checker.failed == 0 and checker.attempted > 0,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {
                name: {"value": float(value), "unit": units[name]}
                for name, value in metrics.items()
            },
        }
        sys.stdout.flush()
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())

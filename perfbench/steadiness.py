"""Check that the benchmark is steady: spread of each metric over seeds.

Usage (from the root of a checkout)::

    python3 perfbench/steadiness.py --runs 10 [--workload NAME ...] [--first-seed 1]

Runs ``run.py`` once per seed for each workload, one run at a time, and
prints for every end-to-end metric the median of the runs and the distance
between the first and third quartile as a share of that median, next to
the metric's bound from ``BENCHMARK.json``.  Exits 1 when a spread exceeds
a third of its bound or a run is not correct.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=10, help="runs per workload, at least 2")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to measure a spread")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    steady = True
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
            ]
            start = perf_counter()
            out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            elapsed = perf_counter() - start
            result = json.loads(out.stdout.splitlines()[-1])
            steady &= bool(result["correct"])
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed} ({elapsed:.1f} s): correct={result['correct']} "
                  + " ".join(f"{m}={v[-1]:.4g}" for m, v in values.items()), flush=True)
        for metric, series in values.items():
            mid = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / mid
            limit = bounds[metric] / 3
            ok = spread <= limit
            steady &= ok
            print(f"  {name:<12} {metric:<12} median {mid:12.6g} {units[metric]:<4} spread {spread:6.3f}"
                  f"  bound/3 {limit:5.3f}  {'ok' if ok else 'TOO NOISY'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

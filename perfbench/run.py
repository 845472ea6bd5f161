"""Benchmark entry point: run one workload in a fresh, pinned child process.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload wireline-mc --seed 1 --seconds 20 --trace 0

The child (``bench.py``) imports ``repro`` from this checkout's ``src``
with the BLAS and OpenMP thread pools pinned to one thread and every
``REPRO_*`` knob unset, so the program runs its defaults.  Its standard
output is relayed; the last line is the JSON result.  When the child fails,
no result is printed and the exit code is non-zero.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def child_env() -> dict:
    env = dict(os.environ)
    for knob in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[knob] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return {name: value for name, value in env.items() if not name.startswith("REPRO_")}


def main() -> int:
    command = [sys.executable, str(HERE / "bench.py"), *sys.argv[1:]]
    try:
        child = subprocess.run(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"benchmark child exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = child.stdout.splitlines()
    result = _parse_result(lines[-1]) if lines else None
    if result is None or child.returncode != 0:
        sys.stdout.write("".join(line + "\n" for line in lines if _parse_result(line) is None))
        if "--write-reference" in sys.argv and child.returncode == 0:
            return 0
        print(f"benchmark child failed (exit code {child.returncode})", file=sys.stderr)
        return child.returncode or 1
    sys.stdout.write(child.stdout)
    return 0


def _parse_result(line: str) -> dict | None:
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and set(result) == RESULT_KEYS else None


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark itself, at toy size (about one minute).

Usage (from the root of a checkout)::

    python3 perfbench/smoke.py

Checks that, for every workload:

- an untraced run prints every end-to-end metric of ``BENCHMARK.json``
  with its unit, and a traced run every per-layer metric, both with no
  failed op;
- a run against a deliberately corrupted reference counts failed ops, and
  on ``wireline-mc`` so does a reference without a perfect-cut trial;
- on ``wireline-mc``, every candidate of a max-damage scan is counted as
  a scan solve;

and that the benchmark exits non-zero without a result line in a directory
that holds only ``BENCHMARK.json`` and the benchmark's own files.
Stops with a ``FAIL`` message at the first failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_work" / "smoke"


def check(condition: bool, message: object) -> None:
    if not condition:
        raise SystemExit(f"FAIL {message}")


def run(cwd: Path, *args: str) -> tuple[int, list[str]]:
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    out = subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=300)
    return out.returncode, out.stdout.splitlines()


def toy(workload: str, *extra: str) -> dict:
    code, lines = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "2", "--size", "toy", *extra)
    check(code == 0, f"{workload} {extra}: exit code {code}")
    return json.loads(lines[-1])


def corrupt(reference: dict) -> dict:
    """Flip the first flag of every record: every op must then count as failed."""
    for records in reference["batches"].values():
        for record in records:
            index = next(i for i, v in enumerate(record) if isinstance(v, bool))
            record[index] = not record[index]
    return reference


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, metrics in wanted.items():
                result = toy(workload, "--trace", trace)
                got = {name: entry["unit"] for name, entry in result["metrics"].items()}
                check(got == metrics, f"{workload} trace {trace}: metrics {got} != {metrics}")
                check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0, result)
                if workload == "wireline-mc" and trace == "1":
                    # Every candidate a max-damage scan solves is one counted scan solve.
                    scans = result["metrics"]["attacks.lp_scan_calls"]["value"]
                    candidates = result["metrics"]["attacks.scan_candidates"]["value"]
                    check(scans >= candidates > 0, f"lp_scan_calls {scans}, scan_candidates {candidates}")
                print(f"ok  {workload} trace {trace}: {len(got)} metrics, 0/{result['attempted']} failed")

            reference = json.loads((HERE / "reference" / f"{workload}-toy.json").read_text())
            broken = SCRATCH / f"{workload}-corrupt.json"
            broken.write_text(json.dumps(corrupt(reference)))
            result = toy(workload, "--trace", "0", "--reference", str(broken))
            check(result["failed"] > 0 and not result["correct"], result)
            print(f"ok  {workload} corrupted reference: {result['failed']}/{result['attempted']} failed")

            if workload == "wireline-mc":
                reference = json.loads((HERE / "reference" / f"{workload}-toy.json").read_text())
                for records in reference["batches"].values():
                    for record in records:
                        if record[0] == "fig7":
                            record[2] = False
                broken.write_text(json.dumps(reference))
                result = toy(workload, "--trace", "0", "--reference", str(broken))
                check(result["failed"] > 0 and not result["correct"], result)
                print(f"ok  {workload} reference without a perfect cut: {result['failed']}/{result['attempted']} failed")

        bare = SCRATCH / "bare"
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        code, lines = run(bare, "--workload", "sweep-grid", "--seed", "1", "--seconds", "2", "--trace", "0")
        check(code != 0, "the benchmark must fail without the program's sources")
        check(not any(line.startswith("{") for line in lines), lines)
        print(f"ok  without the program's sources: exit code {code}, no result")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        try:
            SCRATCH.parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())

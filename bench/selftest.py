"""Self-test: two traced runs with the same seed must give identical counts.

Usage (from the root of a checkout):

    python3 bench/selftest.py

For each workload it runs ``bench/run.py --trace 1`` twice, one run after
the other, and compares every per-layer metric whose unit is ``count``.
A traced run does a fixed amount of work (one pass plus a fixed sweep),
so any difference is a defect in the benchmark or in the program's
determinism. Exits 0 when every count repeats and every run is correct.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def traced_counts(workload: str, seed: int) -> dict[str, float]:
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run reported incorrect output")
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}


def main() -> int:
    ok = True
    for workload in sorted(WORKLOADS):
        first, second = traced_counts(workload, SEED), traced_counts(workload, SEED)
        differing = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
        ok &= not differing and first.keys() == second.keys()
        print(f"{workload}: {'identical' if not differing else 'DIFFER ' + repr(differing)} {first}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

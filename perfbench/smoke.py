"""Smoke test of the benchmark itself; it is kept out of the tier-1 suite.

    python3 perfbench/smoke.py

For every workload, at tiny size:
  1. the untraced run emits every end-to-end metric of BENCHMARK.json and
     the traced run every per-layer metric, each with its unit;
  2. two runs with the same seed give the same output digest;
  3. a planted wrong ground truth (a non-homomorphism in hom_suite, a
     FunctionOracle that switches automorphisms mid-recovery in recover_mix,
     a mixed-source map labelled single-source in localcheck_mix, a wrong
     truth automorphism in cli_pipeline) pushes failed_ratio above 0.
Exits 1 and names what failed, otherwise prints "smoke ok".
"""
from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    run.OUT.mkdir(exist_ok=True)
    problems = []
    for name in workloads.WORKLOADS:
        digests = []
        for trace in (0, 1):
            rec = run.measure(name, seed=3, seconds=0.1, trace=bool(trace), tiny=True)
            got = {k: v["unit"] for k, v in rec["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{name} trace={trace}: metrics differ from BENCHMARK.json")
            if not all(isinstance(v["value"], (int, float)) for v in rec["metrics"].values()):
                problems.append(f"{name} trace={trace}: a metric value is not a number")
            if not rec["correct"]:
                problems.append(f"{name} trace={trace}: unexpected failures {rec['failures']}")
            digests.append(rec["output_digest"])
        if digests[0] != digests[1]:
            problems.append(f"{name}: the same seed gave two output digests")
        planted = run.measure(name, seed=3, seconds=0.1, trace=False, tiny=True, plant=True)
        if planted["failed_ratio"] <= 0 or planted["correct"]:
            problems.append(f"{name}: a planted wrong ground truth went unnoticed")
        print(f"{name}: digest {digests[0][:12]}, planted failed_ratio {planted['failed_ratio']:.3f}")
    for p in problems:
        print("FAIL", p)
    if problems:
        return 1
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

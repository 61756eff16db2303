"""The driver's steadiness check: ten runs per workload, ten seeds.

    python3 bench/spread.py [--seed0 101] [workload ...]

Runs ``BENCHMARK.json``'s command with ``--trace 0`` ten times per
workload, each with another seed, and prints for every end-to-end metric
the median of the ten values and the distance between their first and
third quartile as a share of that median, next to the metric's bound.
Exit status 1 when a spread (``setup_s`` excepted) exceeds its bound or
a run was incorrect.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    seed0 = 101
    if argv[:1] == ["--seed0"]:
        seed0, argv = int(argv[1]), argv[2:]
    names = argv or [w["name"] for w in contract["workloads"]]
    bad = 0
    for name in names:
        values: dict[str, list[float]] = {}
        walls = []
        for seed in range(seed0, seed0 + 10):
            t0 = time.perf_counter()
            proc = subprocess.run(
                contract["command"] + [
                    "--workload", name, "--seed", str(seed), "--seconds",
                    str(contract["run_seconds"]), "--trace", "0",
                ],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            walls.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.stderr.write(proc.stderr)
                bad += 1
            for metric, got in result["metrics"].items():
                values.setdefault(metric, []).append(got["value"])
        print(f"{name}: seeds {seed0}..{seed0 + 9}, run wall median "
              f"{statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        for m in contract["end_to_end"]:
            xs = values[m["name"]]
            q1, _, q3 = statistics.quantiles(xs, n=4)
            mid = statistics.median(xs)
            share = (q3 - q1) / mid
            gated = m["name"] != "setup_s"
            verdict = "ok" if share <= m["bound"] or not gated else "OVER"
            bad += verdict == "OVER"
            print(f"  {m['name']:<18} median {mid:>10.5g} {m['unit']:<4} "
                  f"spread {share:.4f}  bound {m['bound']}"
                  f"{'' if gated else ' (not gated)'}  {verdict}")
        sys.stdout.flush()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

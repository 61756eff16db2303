"""Compare two result sets written by ``bench.run --out``.

    python3 bench/compare.py bench/results/run-a.json bench/results/run-b.json

For every (workload, end-to-end metric) it prints median A, median B, the
ratio B/A with its base, and one of

``same``        B is within the metric's bound of A
``better``      B beats A by more than the bound
``worse``       B is worse than A by more than the bound
``unresolved``  either side's own spread (``stats.median_spread`` of the
                samples its value rests on) exceeds the bound, so the pair
                decides nothing
``not_measured``  a side ran on a host that cannot express the metric

using direction and bound from ``BENCHMARK.json``.  Exit status is 1 on
any ``worse`` or when a workload's failed/attempted ratio rose, 2 when the
two sets cannot be compared (``--quick`` against full, or different seeds,
sizes or step counts).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def incomparable(a: dict, b: dict) -> list[str]:
    """Why these two result sets must not be compared (empty when fine)."""
    ma, mb = a["manifest"], b["manifest"]
    reasons = []
    if ma["quick"] != mb["quick"]:
        reasons.append("one set is --quick and the other is not")
    if ma["seed"] != mb["seed"]:
        reasons.append(f"seeds differ: {ma['seed']} vs {mb['seed']}")
    for name in sorted(set(ma["workloads"]) | set(mb["workloads"])):
        wa, wb = ma["workloads"].get(name), mb["workloads"].get(name)
        if wa is None or wb is None:
            reasons.append(f"{name}: defined on one side only")
            continue
        for key in ("method", "grid_shape", "blocks", "backend", "steps"):
            if wa[key] != wb[key]:
                reasons.append(f"{name}: {key} {wa[key]} vs {wb[key]}")
    return reasons


def classify(a: dict, b: dict, better: str, bound: float):
    """``(status, ratio)`` for one metric; ``a``/``b`` are result entries."""
    va, vb = a["value"], b["value"]
    if isinstance(va, str) or isinstance(vb, str):
        return "not_measured", None
    ratio = vb / va
    if max(a["spread"], b["spread"]) > bound:
        return "unresolved", ratio
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if worse_by > bound:
        return "worse", ratio
    if worse_by < -bound:
        return "better", ratio
    return "same", ratio


def compare(a: dict, b: dict, contract: dict):
    """Rows ``(workload, metric, unit, A, B, ratio, status)`` and the
    workloads whose failure ratio rose."""
    rows = []
    more_failures = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for m in contract["end_to_end"]:
            ea, eb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            status, ratio = classify(ea, eb, m["better"], m["bound"])
            rows.append((name, m["name"], m["unit"], ea["value"],
                         eb["value"], ratio, status))
        fa = wa["ops_failed"] / wa["ops_attempted"]
        fb = wb["ops_failed"] / wb["ops_attempted"]
        if fb > fa:
            more_failures.append(
                f"{name}: failed/attempted {wa['ops_failed']}/"
                f"{wa['ops_attempted']} -> {wb['ops_failed']}/"
                f"{wb['ops_attempted']}"
            )
    return rows, more_failures


def _num(value) -> str:
    return value if isinstance(value, str) else f"{value:.5g}"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    reasons = incomparable(a, b)
    if reasons:
        for reason in reasons:
            print(f"refusing to compare: {reason}", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, more_failures = compare(a, b, contract)
    print(f"A = {argv[0]}  ({a['manifest']['git_revision']})")
    print(f"B = {argv[1]}  ({b['manifest']['git_revision']})")
    print(f"{'workload':<16} {'metric':<17} {'A':>10} {'B':>10} "
          f"{'B/A':>7}  status")
    for name, metric, unit, va, vb, ratio, status in rows:
        shown = "-" if ratio is None else f"{ratio:.3f}"
        print(f"{name:<16} {metric:<17} {_num(va):>10} {_num(vb):>10} "
              f"{shown:>7}  {status}  (base A = {_num(va)} {unit})")
    for line in more_failures:
        print(f"more failures: {line}")
    counts = {}
    for row in rows:
        counts[row[-1]] = counts.get(row[-1], 0) + 1
    print("summary: " + ", ".join(f"{v} {k}" for k, v in sorted(counts.items())))
    return 1 if counts.get("worse") or more_failures else 0


if __name__ == "__main__":
    sys.exit(main())

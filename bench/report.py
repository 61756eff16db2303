"""Generate ``bench/BENCH.md``: the trajectory table of committed result sets.

    python3 bench/report.py bench/results/run-a.json bench/results/run-b.json

One row per workload x end-to-end metric, one column per result set, plus
the ``src/`` line count each set was measured at (ROADMAP's code-diet
column).  Append later result sets to the argument list to extend the
trajectory.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def render(paths: list[str]) -> str:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [json.loads(Path(p).read_text()) for p in paths]
    labels = [Path(p).stem for p in paths]
    lines = [
        "# Benchmark trajectory",
        "",
        "Generated by `python3 bench/report.py " + " ".join(paths) + "`;",
        "do not edit.  Each value is one run's, as `bench/run.py` reports it;",
        "see `bench/README.md` for the metric glossary and `bench/compare.py`",
        "for the regression rule.",
        "",
        "| result set | git revision | dirty | seed | src/ lines | total s |",
        "|---|---|---|---|---|---|",
    ]
    for label, rs in zip(labels, sets):
        m = rs["manifest"]
        lines.append(
            f"| {label} | {str(m['git_revision'])[:12]} | {m['git_dirty']} | "
            f"{m['seed']} | {m['src_lines']} | "
            f"{m['wall_clock_total_s']:.0f} |"
        )
    lines += [
        "",
        "| workload | metric | unit | better | bound | "
        + " | ".join(labels) + " |",
        "|---|---|---|---|---|" + "---|" * len(labels),
    ]
    for w in contract["workloads"]:
        for m in contract["end_to_end"]:
            cells = []
            for rs in sets:
                got = rs["workloads"].get(w["name"], {}).get("end_to_end", {})
                value = got.get(m["name"], {}).get("value", "-")
                cells.append(value if isinstance(value, str)
                             else f"{value:.5g}")
            lines.append(
                f"| {w['name']} | {m['name']} | {m['unit']} | {m['better']} | "
                f"{m['bound']} | " + " | ".join(cells) + " |"
            )
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__.split("\n\n")[1])
    (ROOT / "bench" / "BENCH.md").write_text(render(sys.argv[1:]))

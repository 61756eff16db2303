"""compare.py on synthetic result sets."""

import copy
import json

from bench import ROOT, compare

# the real metric names and directions, with a 0.10 bound on every one so
# the cases below do not move when BENCHMARK.json's bounds are re-measured
CONTRACT = {"end_to_end": [
    {**m, "bound": 0.10}
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
]}


def result_set(quick=False, seed=1):
    entry = {"value": 2.0, "unit": "x", "n": 5, "spread": 0.01, "samples": []}
    return {
        "manifest": {
            "quick": quick, "seed": seed, "git_revision": "abc",
            "workloads": {"w": {"method": "fd", "grid_shape": [8, 8],
                                "blocks": [1, 1], "backend": "serial",
                                "steps": 10}},
        },
        "workloads": {"w": {
            "ops_attempted": 10, "ops_failed": 0,
            "end_to_end": {m["name"]: dict(entry)
                           for m in CONTRACT["end_to_end"]},
        }},
    }


def statuses(a, b):
    rows, more = compare.compare(a, b, CONTRACT)
    return {row[1]: row[-1] for row in rows}, more


def test_a_file_against_itself_is_all_same(tmp_path, capsys):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(result_set()))
    assert compare.main([str(path), str(path)]) == 0
    out = capsys.readouterr().out
    assert "worse" not in out and "unresolved" not in out


def test_fifteen_percent_slowdown_is_worse(tmp_path):
    a, b = result_set(), result_set()
    b["workloads"]["w"]["end_to_end"]["run_wall_s"]["value"] *= 1.15
    b["workloads"]["w"]["end_to_end"]["steps_per_s"]["value"] /= 1.15
    b["workloads"]["w"]["end_to_end"]["peak_rss_mb"]["value"] *= 1.15
    got, _ = statuses(a, b)
    assert got["run_wall_s"] == "worse"        # lower is better
    assert got["steps_per_s"] == "worse"       # higher is better
    assert got["setup_s"] == "same"
    # through the CLI, with BENCHMARK.json's own bounds (0.10 on RSS)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    assert compare.main([str(pa), str(pb)]) == 1


def test_direction_and_spread():
    a, b = result_set(), result_set()
    b["workloads"]["w"]["end_to_end"]["run_wall_s"]["value"] *= 0.8
    b["workloads"]["w"]["end_to_end"]["setup_s"]["spread"] = 0.5
    b["workloads"]["w"]["end_to_end"]["peak_rss_mb"]["value"] = "not_measured"
    got, _ = statuses(a, b)
    assert got["run_wall_s"] == "better"
    assert got["setup_s"] == "unresolved"
    assert got["peak_rss_mb"] == "not_measured"


def test_more_failures_fail_the_comparison(tmp_path):
    a, b = result_set(), result_set()
    b["workloads"]["w"]["ops_failed"] = 1
    _, more = statuses(a, b)
    assert more and "0/10 -> 1/10" in more[0]


def test_refuses_quick_against_full_and_changed_sizes(tmp_path):
    a = result_set()
    assert compare.incomparable(a, result_set(quick=True))
    assert compare.incomparable(a, result_set(seed=2))
    b = copy.deepcopy(a)
    b["manifest"]["workloads"]["w"]["steps"] = 20
    assert compare.incomparable(a, b)
    assert not compare.incomparable(a, copy.deepcopy(a))
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(result_set(quick=True)))
    assert compare.main([str(pa), str(pb)]) == 2

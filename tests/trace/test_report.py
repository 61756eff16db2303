"""Merging rank streams and the §7 breakdown derived from them."""

import json

import pytest

from repro.trace import (
    Tracer,
    format_breakdown_table,
    merge_traces,
    summarize,
    trace_files,
    write_chrome_trace,
)


def _rank_trace(tmp_path, rank, wall_t0=None, gen=""):
    """One rank's stream with known span content."""
    name = f"trace-{rank:04d}{gen}.jsonl"
    tr = Tracer(tmp_path / name, rank=rank, sim=True)
    if wall_t0 is not None:
        tr.wall_t0 = wall_t0  # exercise cross-rank alignment
        meta = json.loads((tmp_path / name).read_text().splitlines()[0])
        meta["wall_t0"] = wall_t0
        (tmp_path / name).write_text(json.dumps(meta) + "\n")
    for step in range(3):
        base = step * 1.0
        tr.add_span("compute:0", base, 0.6, step=step)
        tr.add_span("exchange:0", base + 0.6, 0.3, step=step)
        tr.add_span("heartbeat:0", base + 0.9, 0.1, step=step + 1)
    tr.count(rank + 1, 1000)
    tr.count(rank + 1, 24, sent=False)
    tr.close()
    return tmp_path / name


def test_trace_files_resolution(tmp_path):
    run = tmp_path / "run"
    (run / "trace").mkdir(parents=True)
    f = run / "trace" / "trace-0000.jsonl"
    f.write_text("")
    assert trace_files(run) == [f]          # workdir -> trace/ subdir
    assert trace_files(run / "trace") == [f]
    assert trace_files(f) == [f]
    with pytest.raises(FileNotFoundError):
        trace_files(tmp_path / "empty")


def test_summarize_breakdown(tmp_path):
    _rank_trace(tmp_path, 0)
    _rank_trace(tmp_path, 1)
    s = summarize(tmp_path)
    assert s.n_ranks == 2
    assert s.simulated is True
    r0 = s.ranks[0]
    assert r0.t_comp == pytest.approx(1.8)
    assert r0.t_comm == pytest.approx(0.9)
    assert r0.t_other == pytest.approx(0.3)
    # steps come from compute spans only: the trailing heartbeat
    # carries step 3 and must not count
    assert r0.steps == 3
    assert r0.bytes_sent == 1000 and r0.messages_sent == 1
    assert r0.bytes_recvd == 24
    assert r0.utilization == pytest.approx(1.8 / 3.0)
    assert s.utilization == pytest.approx(0.6)
    per = s.per_step()
    assert per["t_comp"] == pytest.approx(0.6)
    assert per["t_comm"] == pytest.approx(0.3)


def test_summarize_merges_generations_of_one_rank(tmp_path):
    """A migrated-and-restarted rank leaves trace-NNNN.jsonl plus
    trace-NNNN.gG.jsonl; both accumulate into one breakdown."""
    _rank_trace(tmp_path, 0)
    _rank_trace(tmp_path, 0, gen=".g1")
    s = summarize(tmp_path)
    assert s.n_ranks == 1
    assert s.ranks[0].t_comp == pytest.approx(3.6)
    assert s.ranks[0].steps == 3  # same steps, recomputed after restart


def test_breakdown_table_mentions_eq8(tmp_path):
    _rank_trace(tmp_path, 0)
    table = format_breakdown_table(summarize(tmp_path))
    assert "f (eq. 8)" in table
    assert "simulated" in table
    assert "0.600" in table


def test_merge_to_chrome_events(tmp_path):
    _rank_trace(tmp_path, 0)
    _rank_trace(tmp_path, 1)
    merged = merge_traces(trace_files(tmp_path))
    events = merged["traceEvents"]
    assert merged["otherData"]["ranks"] == 2
    assert merged["otherData"]["simulated"] is True
    names = {e["ph"] for e in events}
    assert names == {"M", "X", "C"}
    procs = {e["pid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
    assert procs == {0: "rank 0", 1: "rank 1"}
    comp = [e for e in events if e["ph"] == "X" and e["name"] == "compute:0"
            and e["pid"] == 1]
    assert comp[0]["ts"] == pytest.approx(0.0)
    assert comp[0]["dur"] == pytest.approx(0.6e6)  # microseconds
    assert comp[0]["args"]["step"] == 0


def test_wall_clock_alignment_shifts_ranks(tmp_path):
    """Rank 1 started 2 wall seconds after rank 0: its spans shift."""
    _rank_trace(tmp_path, 0, wall_t0=100.0)
    _rank_trace(tmp_path, 1, wall_t0=102.0)
    merged = merge_traces(trace_files(tmp_path))
    first = {pid: min(e["ts"] for e in merged["traceEvents"]
                      if e.get("ph") == "X" and e["pid"] == pid)
             for pid in (0, 1)}
    assert first[0] == pytest.approx(0.0)
    assert first[1] == pytest.approx(2.0e6)


def test_write_chrome_trace_is_valid_json(tmp_path):
    _rank_trace(tmp_path, 0)
    out = write_chrome_trace(tmp_path, tmp_path / "out" / "trace.json")
    data = json.loads(out.read_text())
    assert data["displayTimeUnit"] == "ms"
    assert all("ph" in e for e in data["traceEvents"])

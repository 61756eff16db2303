"""The tracer itself: null gate, stream format, bounds, counters."""

import json
import threading

import pytest

from repro._jsonl import LogDamaged
from repro.trace import (
    CAT_COMM,
    CAT_COMPUTE,
    CAT_OTHER,
    NULL_TRACER,
    NullTracer,
    Tracer,
    load_trace,
    span_category,
)


class FakeClock:
    """A deterministic span clock advanced by the test."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- categories --------------------------------------------------------

@pytest.mark.parametrize("name,cat", [
    ("compute:0", CAT_COMPUTE),
    ("finalize:0", CAT_COMPUTE),
    ("exchange:1", CAT_COMM),
    ("barrier:step", CAT_COMM),
    ("wait:0", CAT_COMM),
    ("checkpoint:write", CAT_OTHER),
    ("migration:pause", CAT_OTHER),
    ("heartbeat:0", CAT_OTHER),
    ("brand-new-kind:x", CAT_OTHER),
])
def test_span_category(name, cat):
    assert span_category(name) == cat


# -- the null gate -----------------------------------------------------

def test_null_tracer_is_inert():
    assert NULL_TRACER.enabled is False
    assert NULL_TRACER.begin() == 0.0
    NULL_TRACER.end("compute:0", 0.0, step=3)
    NULL_TRACER.add_span("x:y", 0.0, 1.0)
    NULL_TRACER.count(1, 4096)
    NULL_TRACER.flush()
    NULL_TRACER.close()
    assert isinstance(NULL_TRACER, NullTracer)


def test_null_tracer_calls_allocate_nothing():
    """A begin/end/count cycle on the null gate is allocation-free."""
    from repro.harness import count_allocations

    names = ("compute:0", "exchange:0")  # precomputed, as in the runtimes

    def hot_loop():
        for i in range(1000):
            t0 = NULL_TRACER.begin()
            NULL_TRACER.end(names[0], t0, step=i)
            t0 = NULL_TRACER.begin()
            NULL_TRACER.end(names[1], t0, step=i, tid=1)
            NULL_TRACER.count(1, 4096)

    report = count_allocations(hot_loop, warmup=2, repeat=3)
    assert report.peak_bytes < 2048, report


def test_null_tracer_instrumented_step_stays_allocation_free():
    """The null-gated step allocates no more than the same cycle run
    with no tracer calls at all — instrumentation must not cost the
    fused kernels their allocation-freedom.  (The exchange itself
    copies ghost strips, so the comparison is differential, not an
    absolute zero.)"""
    from repro.harness import count_allocations
    from repro.fluids import FDMethod
    from tests.conftest import channel_sim

    sim = channel_sim(FDMethod, shape=(64, 64), blocks=(2, 2))
    assert sim.tracer is NULL_TRACER
    method, subs, exchanger = sim.method, sim.subs, sim.exchanger

    def bare_step():
        for phase, fnames in enumerate(method.exchange_phases):
            for sub in subs:
                method.compute_phase(sub, phase)
            exchanger.exchange(fnames)
        for sub in subs:
            method.finalize_step(sub)
            sub.step += 1

    sim.step(3)  # fill the scratch pools
    bare = count_allocations(bare_step, warmup=2, repeat=3)
    gated = count_allocations(lambda: sim.step(1), warmup=2, repeat=3)
    assert gated.peak_bytes <= bare.peak_bytes + 2048, (bare, gated)


# -- the real stream ---------------------------------------------------

def test_meta_line_written_eagerly(tmp_path):
    path = tmp_path / "trace-0000.jsonl"
    Tracer(path, rank=3)
    first = json.loads(path.read_text().splitlines()[0])
    assert first["type"] == "meta"
    assert first["rank"] == 3
    assert first["wall_t0"] > 0 and first["clock_t0"] > 0
    assert first["sim"] is False


def test_span_roundtrip(tmp_path):
    clock = FakeClock()
    tr = Tracer(tmp_path / "t.jsonl", rank=1, clock=clock)
    clock.now = 1.0
    t0 = tr.begin()
    clock.now = 1.5
    tr.end("compute:0", t0, step=7, tid=2)
    tr.add_span("exchange:0", 1.5, 0.25, step=7)
    tr.close()
    t = load_trace(tmp_path / "t.jsonl")
    assert [s["name"] for s in t["spans"]] == ["compute:0", "exchange:0"]
    comp = t["spans"][0]
    assert comp == {"type": "span", "name": "compute:0",
                    "cat": CAT_COMPUTE, "ts": 1.0, "dur": 0.5,
                    "step": 7, "tid": 2}
    assert t["end"] == {"type": "end", "spans": 2, "dropped": 0}


def test_stream_is_bounded(tmp_path):
    tr = Tracer(tmp_path / "t.jsonl", max_events=5, flush_every=2)
    for i in range(9):
        tr.add_span("compute:0", float(i), 0.1, step=i)
    tr.close()
    t = load_trace(tmp_path / "t.jsonl")
    assert len(t["spans"]) == 5
    assert t["end"]["dropped"] == 4


def test_counters_accumulate_and_snapshot(tmp_path):
    tr = Tracer(tmp_path / "t.jsonl", rank=0)
    tr.count(1, 100)
    tr.count(1, 50)
    tr.count(2, 7, sent=False)
    tr.close()
    t = load_trace(tmp_path / "t.jsonl")
    latest = {(c["peer"], c["dir"]): (c["msgs"], c["bytes"])
              for c in t["counters"]}
    assert latest[(1, "sent")] == (2, 150)
    assert latest[(2, "recvd")] == (1, 7)


def test_spans_after_close_are_dropped_silently(tmp_path):
    tr = Tracer(tmp_path / "t.jsonl")
    tr.close()
    tr.add_span("compute:0", 0.0, 1.0)
    tr.close()  # idempotent
    t = load_trace(tmp_path / "t.jsonl")
    assert t["spans"] == []
    assert t["end"]["spans"] == 0


def test_tracer_is_thread_safe(tmp_path):
    tr = Tracer(tmp_path / "t.jsonl", flush_every=16)

    def spam(tid):
        for i in range(500):
            tr.add_span("compute:0", float(i), 0.001, step=i, tid=tid)
            tr.count(tid, 8)

    threads = [threading.Thread(target=spam, args=(k,)) for k in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    tr.close()
    t = load_trace(tmp_path / "t.jsonl")
    assert len(t["spans"]) == 2000
    assert t["end"]["dropped"] == 0


def test_simulated_stream_has_zero_origins(tmp_path):
    tr = Tracer(tmp_path / "t.jsonl", rank=2, sim=True)
    tr.add_span("compute:0", 10.0, 1.0, step=0)
    tr.close()
    t = load_trace(tmp_path / "t.jsonl")
    assert t["meta"]["sim"] is True
    assert t["meta"]["wall_t0"] == 0.0
    assert t["meta"]["clock_t0"] == 0.0


def test_damaged_middle_line_is_loud(tmp_path):
    path = tmp_path / "t.jsonl"
    tr = Tracer(path)
    tr.add_span("compute:0", 0.0, 1.0)
    tr.add_span("exchange:0", 1.0, 1.0)
    tr.close()
    lines = path.read_text().splitlines()
    lines[1] = lines[1][:25]  # a span line cut short mid-file
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogDamaged, match="t.jsonl, line 2") as err:
        load_trace(path)
    assert err.value.lineno == 2


def test_torn_tail_line_tolerated(tmp_path):
    path = tmp_path / "t.jsonl"
    tr = Tracer(path)
    tr.add_span("compute:0", 0.0, 1.0)
    tr.flush()
    with open(path, "a") as fh:
        fh.write('{"type": "span", "name": "exch')  # killed mid-append
    t = load_trace(path)
    assert len(t["spans"]) == 1
    assert t["end"] is None

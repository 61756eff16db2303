"""The traced run and the per-layer micro-harnesses (``--trace 1``).

A layer metric is 0 on a workload where that layer is idle: ``net.*``
and ``distrib.*`` on the serial workloads, ``serve.*`` on every
simulation workload, ``fluids.*`` / ``core.*`` on ``serve_mix`` (its
kernels run inside pool workers, where only ``serve.direct_run_ms``
sees them).
"""

from __future__ import annotations

import math
import os
import threading
import time
from pathlib import Path

import numpy as np

import repro
from repro.core import Simulation, efficiency
from repro.distrib import DistributedRun, RunSettings
from repro.distrib.dumpfile import load_dump, save_dump
from repro.fluids.coupling import build_converters
from repro.harness import count_allocations
from repro.net import (
    ChannelSet, LocalFabric, PortRegistry, SocketExchanger, UdpChannelSet,
)
from repro.serve import ServeClient, fingerprint

from .spans import Recorder, self_total
from .stats import median, percentile, tail_percentile
from .workloads import (
    Ops, ServeDriver, SimCaller, Workload, field_digest, start_gateway,
)

#: Exchanges timed per transport by the two-endpoint harness.
NET_EXCHANGES = 2000


def build_simulation(wl: Workload, fields, rec: Recorder | None = None):
    """The workload's problem as an in-process ``Simulation``, built the
    way the facade builds it; with ``rec``, spans on its public callables."""
    spec = wl.spec
    solid, _, _ = spec.build_geometry()
    decomp = spec.build_decomposition()
    converters = None
    if spec.is_hybrid:
        method = list(spec.build_methods())
        converters = build_converters(decomp, method)
    else:
        method = spec.build_method()
    sim = Simulation(method, decomp, fields, solid, converters=converters)
    if rec is not None:
        for m in dict.fromkeys(sim.methods):
            rec.wrap(m, "compute_phase",
                     lambda sub, phase: f"fluids.compute_phase{phase}")
            rec.wrap(m, "finalize_step", "fluids.finalize")
        rec.wrap(sim.exchanger, "exchange", "core.exchange")
        rec.wrap(sim.exchanger, "exchange_seam", "fluids.seam")
        rec.wrap(sim, "global_state", "core.assemble")
        rec.wrap(sim, "step", "core.step")
    return sim


def ghost_bytes_per_step(sim: Simulation) -> int:
    """Bytes copied into neighbour-fed ghost strips per step, all ranks.

    ``LocalExchanger.message_bytes`` gives the strip sizes; the values per
    strip node come from the field arrays each method exchanges (a seam
    edge carries the neighbour's wire fields instead).
    """
    ex = sim.exchanger
    subs = {s.block.rank: s for s in sim.subs}

    def values(rank, names) -> int:
        sub = subs[rank]
        nodes = math.prod(sub.padded_shape)
        return sum(sub.fields[n].size for n in names) // nodes

    total = 0
    for sub, m in zip(sim.subs, sim.methods):
        rank = sub.block.rank
        own = sum(values(rank, names) for names in m.exchange_phases)
        for nb, nbytes in ex.message_bytes(rank, 1).items():
            conv = ex.converters.get((rank, nb))
            total += nbytes * (values(nb, conv.wire_fields) if conv else own)
    return total


def timed(fn, repeats: int, warmup: int = 0) -> list[float]:
    """Wall seconds of ``repeats`` calls of ``fn`` after ``warmup`` more."""
    times = []
    for _ in range(warmup + repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times[warmup:]


def copy_rate_gb_s(nbytes: int) -> float:
    """numpy copy rate of one array of ``nbytes`` (bytes copied per second)."""
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    return src.nbytes / median(timed(lambda: np.copyto(dst, src), 5, 1)) / 1e9


def trace_sim(wl: Workload, fields, n: int, repeats: int, ops: Ops,
              rec: Recorder) -> dict:
    """fluids.* / core.* / host.* / trace.* for one simulation problem.

    ``repeats`` pairs of an untraced ``repro.run(..., "serial")`` and a
    traced ``Simulation`` run of the same ``n`` steps; the traced fields
    must equal the untraced ones bitwise.
    """
    nodes = math.prod(wl.spec.grid_shape)
    steps = repeats * n
    untraced, traced, builds, digests, counts = [], [], [], set(), []
    repro.run(wl.spec, "serial", steps=1, fields=fields)   # warm-up

    def run_untraced() -> None:
        res = repro.run(wl.spec, "serial", steps=n, fields=fields)
        untraced.append(res.elapsed)
        digests.add(field_digest(res.fields))

    def run_traced():
        first = len(rec.spans)
        before = rec.counts.copy()
        t0 = time.perf_counter()
        sim = build_simulation(wl, fields, rec)
        builds.append(time.perf_counter() - t0)
        sim.step(n)
        digests.add(field_digest(sim.global_state()))
        traced.append(rec.spans[first].duration)
        counts.append(rec.counts - before)
        return sim

    for i in range(repeats):
        # swap the order every repeat: the host speeds up over a run's
        # first seconds, and whichever side always went first would lose
        if i % 2 == 0:
            run_untraced()
            sim = run_traced()
        else:
            sim = run_traced()
            run_untraced()
    ops.record("traced == untraced fields", [] if len(digests) == 1 else [
        "traced fields differ from untraced fields"
    ])
    ops.record("span counts repeat exactly", [] if all(
        c == counts[0] for c in counts
    ) else [f"span counts differ between repeats: {counts}"])

    def per_step_ms(name: str) -> float:
        return 1e3 * rec.total(name) / steps

    m = {
        "fluids.phase0_ms": per_step_ms("fluids.compute_phase0"),
        "fluids.phase1_ms": per_step_ms("fluids.compute_phase1"),
        "fluids.finalize_ms": per_step_ms("fluids.finalize"),
        "fluids.seam_ms_per_step": per_step_ms("fluids.seam"),
        "fluids.seam_calls_per_step": rec.counts["fluids.seam"] / steps,
        "core.exchange_ms_per_step": per_step_ms("core.exchange"),
        "core.exchange_calls_per_step": rec.counts["core.exchange"] / steps,
        "core.step_overhead_ms": 1e3 * self_total(rec.spans, "core.step")
        / steps,
        "core.decompose_ms": 1e3 * median(builds),
        "core.assemble_ms": 1e3 * median(rec.durations("core.assemble")),
        "core.ghost_bytes_per_step": ghost_bytes_per_step(sim),
        "facade.elapsed_s": median(untraced),
        "trace.overhead_pct": 100.0 * (1.0 - median(untraced) / median(traced)),
    }
    m["fluids.compute_ms_per_step"] = (
        m["fluids.phase0_ms"] + m["fluids.phase1_ms"] + m["fluids.finalize_ms"]
    )
    # the step span must decompose into its children plus its self time
    parts = (
        m["fluids.compute_ms_per_step"] + m["fluids.seam_ms_per_step"]
        + m["core.exchange_ms_per_step"] + m["core.step_overhead_ms"]
    )
    whole = per_step_ms("core.step")
    ops.record("span arithmetic", [] if abs(parts - whole) <= 0.02 * whole
               else [f"children + self = {parts:.4f} ms, step = {whole:.4f} ms"])

    state_bytes = sum(a.nbytes for s in sim.subs for a in s.fields.values())
    plain = build_simulation(wl, fields)
    m["fluids.alloc_bytes_per_step"] = count_allocations(
        lambda: plain.step(1), warmup=2, repeat=2
    ).peak_bytes
    m["fluids.node_updates_per_s"] = (
        nodes / (1e-3 * m["fluids.compute_ms_per_step"])
    )
    m["fluids.state_bytes_per_node"] = state_bytes / nodes
    m["host.copy_gb_s"] = copy_rate_gb_s(state_bytes)
    m["fluids.copy_rate_fraction"] = (
        m["fluids.node_updates_per_s"] * m["fluids.state_bytes_per_node"]
        / (1e9 * m["host.copy_gb_s"])
    )
    return m


# ----------------------------------------------------------------------
# net: two endpoints, one SocketExchanger each
# ----------------------------------------------------------------------
def net_harness(wl: Workload, fields, transport: str, exchanges: int,
                work: Path) -> dict:
    """Exchange the workload's own subregions and FD field lists between
    two threads over one transport; timings are rank 0's."""
    sim = build_simulation(wl, fields)
    method = sim.method
    registry = PortRegistry(work / f"ports_{transport}.txt")
    fabric = LocalFabric(len(sim.subs))
    out: dict = {"times": [[] for _ in method.exchange_phases]}
    errors: list[BaseException] = []

    def endpoint(sub) -> None:
        rank = sub.block.rank
        plan = sim.exchanger.plans[rank]
        peers = {op.neighbor_rank for op in plan.recv_ops()} - {rank}
        if transport == "local":
            channels = fabric.channel_set(rank)
        else:
            cls = ChannelSet if transport == "tcp" else UdpChannelSet
            channels = cls(rank, peers, registry)
        try:
            t0 = time.perf_counter()
            if transport != "local":
                channels.open(0, timeout=30.0)
            opened = time.perf_counter() - t0
            ex = SocketExchanger(sub, plan, channels, timeout=30.0)
            steps = exchanges // len(method.exchange_phases)
            for _ in range(steps):
                for phase, names in enumerate(method.exchange_phases):
                    t0 = time.perf_counter()
                    ex.exchange(names, phase)
                    if rank == 0:
                        out["times"][phase].append(time.perf_counter() - t0)
                sub.step += 1
            if rank == 0:
                out.update(open_s=opened,
                           messages_per_step=ex.messages_sent / steps,
                           bytes_per_step=ex.bytes_sent / steps)
        except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
            errors.append(exc)
        finally:
            channels.close()

    threads = [threading.Thread(target=endpoint, args=(s,)) for s in sim.subs]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return out


def trace_net(wl: Workload, fields, quick: bool, work: Path):
    """``net.*`` metrics, and the TCP exchange seconds one step costs."""
    m = {}
    tcp_s_per_step = 0.0
    for transport in ("tcp", "udp", "local"):
        got = net_harness(wl, fields, transport,
                          NET_EXCHANGES // (10 if quick else 1), work)
        every = [1e6 * t for phase in got["times"] for t in phase]
        m[f"net.{transport}.exchange_us_p50"] = median(every)
        m[f"net.{transport}.exchange_us_p99"] = percentile(every, 99)
        if transport == "tcp":
            m["net.tcp.open_ms"] = 1e3 * got["open_s"]
            m["net.messages_per_step"] = got["messages_per_step"]
            m["net.bytes_per_step"] = got["bytes_per_step"]
            tcp_s_per_step = sum(median(p) for p in got["times"])
    return m, tcp_s_per_step


# ----------------------------------------------------------------------
# distrib + model (fd2d_tcp_2rank)
# ----------------------------------------------------------------------
def trace_distributed(wl: Workload, call: SimCaller, n: int, one_step_s: float,
                      quick: bool, work: Path, ops: Ops,
                      rec: Recorder) -> dict:
    """net.* / distrib.* / model.* of the 2-rank workload."""
    fields = call.fields
    m, t_comm_harness = trace_net(wl, fields, quick, work)

    # the orchestrator's four stages, timed from outside
    with rec.span("distrib.decompose"):
        run = DistributedRun(wl.spec, fields, work / "spans",
                             RunSettings(steps=n, transport="tcp"))
    rec.wrap(run, "start", "distrib.start")
    rec.wrap(run, "wait", "distrib.wait")
    rec.wrap(run, "collect", "distrib.collect")
    run.start()
    run.wait()
    collected = run.collect()
    run.cleanup()
    m["distrib.decompose_ms"] = 1e3 * rec.total("distrib.decompose")
    m["distrib.start_ms"] = 1e3 * rec.total("distrib.start")
    m["distrib.wait_s"] = rec.total("distrib.wait")
    m["distrib.collect_ms"] = 1e3 * rec.total("distrib.collect")

    # one dump file of one rank's subregion
    sub = build_simulation(wl, fields).subs[0]
    path = work / "dump" / "state_rank0000.npz"
    m["distrib.dump_save_ms"] = 1e3 * median(
        timed(lambda: save_dump(sub, path), 5))
    m["distrib.dump_load_ms"] = 1e3 * median(
        timed(lambda: load_dump(path), 5))
    m["distrib.dump_bytes"] = path.stat().st_size

    # program-reported §7 accounting (the program's own trace=True output)
    reported = repro.run(
        wl.spec, "distributed",
        RunSettings(steps=n, transport="tcp", trace=True),
        fields=fields, workdir=work / "traced",
    )
    summary = reported.trace_summary
    m["distrib.t_comp_s"] = summary.t_comp
    m["distrib.t_comm_s"] = summary.t_comm
    m["distrib.t_other_s"] = summary.t_other
    m["distrib.utilization_f"] = summary.utilization

    # steady 2-rank rate against twice the plain serial rate
    full = call(n).wall
    serial = call.check_against_serial(n)
    same = {field_digest(collected), field_digest(reported.fields),
            call.digests[n]}
    ops.record("distributed runs agree", [] if len(same) == 1 else [
        "spanned / program-traced / plain distributed fields differ"
    ])
    rate_2rank = (n - 1) / (full - one_step_s)
    rate_serial = n / serial.elapsed
    m["distrib.parallel_efficiency"] = rate_2rank / (2.0 * rate_serial)

    # eqs. 12-14/17 fed the measured compute rate and exchange cost
    nodes = math.prod(wl.spec.grid_shape)
    n_sub = nodes / 2
    strip_nodes = 2 * wl.spec.grid_shape[1]           # two faces of a strip
    geom = strip_nodes / math.sqrt(n_sub)              # m of eq. 15
    u_calc = nodes * rate_serial                       # nodes per second
    u_com = strip_nodes / t_comm_harness
    m["model.predicted_f"] = float(efficiency.utilization(
        efficiency.t_calc(n_sub, u_calc),
        efficiency.t_com_point_to_point(n_sub, geom, 2, u_com),
    ))
    m["model.error_f"] = m["model.predicted_f"] - m["distrib.utilization_f"]
    return m


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def trace_serve(wl: Workload, seed: int, seconds: float, quick: bool,
                work: Path, ops: Ops, rec: Recorder) -> dict:
    t0 = time.perf_counter()
    gw = start_gateway(work / "serve")
    m = {"serve.gateway_ready_ms": 1e3 * (time.perf_counter() - t0)}
    try:
        client = ServeClient(gw.address)
        t0 = time.perf_counter()
        plain = ServeDriver(client, wl, seed, quick, ops, stream=1)
        plain.round()
        rec.wrap(client, "submit", "serve.submit")
        rec.wrap(client, "wait", "serve.wait")
        rec.wrap(client, "fields", "serve.fetch")
        driver = ServeDriver(client, wl, seed, quick, ops, stream=2,
                             span=rec.span)
        driver.run_for(seconds - (time.perf_counter() - t0))
    finally:
        gw.shutdown()

    for kind in ("cold", "warm"):
        for call in ("submit", "wait", "fetch"):
            m[f"serve.{call}_ms.{kind}"] = 1e3 * median([
                s.duration for s in rec.spans
                if s.name == f"serve.{call}"
                and rec.spans[s.parent].name == f"serve.request.{kind}"
            ])
        walls = driver.cold if kind == "cold" else driver.warm
        m[f"serve.{kind}_latency_ms_p50"] = 1e3 * median(walls)
        p = tail_percentile(len(walls))
        m[f"serve.{kind}_latency_ms_tail"] = 1e3 * percentile(walls, p)
        m[f"serve.{kind}_tail_percentile"] = p
    m["serve.cache_hit_ratio"] = driver.hits / len(driver.warm)
    m["serve.computed_jobs_per_round"] = driver.computed / driver.rounds
    m["serve.resubmitted_jobs"] = plain.resubmitted + driver.resubmitted

    m["serve.fingerprint_us"] = 1e6 * median(timed(
        lambda: fingerprint(wl.spec, {"steps": wl.steps}), 200))
    m["serve.direct_run_ms"] = 1e3 * median(timed(
        lambda: repro.run(wl.spec, "serial", steps=wl.steps), 5, 1))
    m["serve.cold_overhead_ms"] = (
        1e3 * median(driver.cold) - m["serve.direct_run_ms"]
    )
    m["trace.overhead_pct"] = 100.0 * (
        1.0 - driver.metrics()["steps_per_s"] / plain.metrics()["steps_per_s"]
    )
    return m


def measure_layers(wl: Workload, seed: int, seconds: float, quick: bool,
                   work: Path, ops: Ops, names: list[str]) -> dict:
    """Every per-layer metric of one workload; idle layers report 0."""
    rec = Recorder(f"{wl.name}/seed{seed}")
    n = wl.n_steps(quick, traced=True)
    if not wl.backend:
        m = trace_serve(wl, seed, seconds, quick, work, ops, rec)
    else:
        call = SimCaller(wl, seed, work, ops)
        m = trace_sim(wl, call.fields, n, 1 if quick else 2, ops, rec)
        call(1)   # warm-up of the workload's own backend
        one_step_s = median([call(1).wall for _ in range(3)])
        m["facade.one_step_wall_ms"] = 1e3 * one_step_s
        if wl.backend == "distributed":
            m.update(trace_distributed(wl, call, n, one_step_s, quick, work,
                                       ops, rec))
    m["host.nproc"] = os.cpu_count() or 1
    m["trace.spans"] = len(rec.spans)
    rec.dump(work.parent / f"trace-{wl.name}.json")
    return {
        "metrics": {name: float(m.get(name, 0.0)) for name in names},
        "emitted": sorted(m),
        "detail": {"steps": n, "spans": len(rec.spans)},
    }

"""The five workloads: fixed specs, seeded inputs, the untraced measurement.

Sizes and step counts are constants of this file and identical on every
commit; only the initial state (and, for ``serve_mix``, the viscosities
that make cache keys distinct) comes from ``--seed``.  The program is
driven through public entry points only: ``repro.run`` for the four
simulation workloads, ``Gateway`` + ``ServeClient`` for ``serve_mix``.
"""

from __future__ import annotations

import hashlib
import math
import resource
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

import repro
from repro.distrib import ProblemSpec, RunSettings
from repro.serve import Gateway, ServeClient, fingerprint

from . import ROOT
from .stats import faster_half, faster_half_spread, median, median_spread

_PARAMS = {"nu": 0.05, "filter_eps": 0.02}


def _channel(method, shape, blocks, **params) -> ProblemSpec:
    """A gravity-driven channel/duct: periodic along x, walls elsewhere."""
    ndim = len(shape)
    gravity = (1e-5,) + (0.0,) * (ndim - 1)
    return ProblemSpec(
        method=method,
        grid_shape=shape,
        blocks=blocks,
        periodic=(True,) + (False,) * (ndim - 1),
        params={**_PARAMS, "gravity": gravity, **params},
        geometry={"kind": "channel"},
    )


@dataclass(frozen=True)
class Workload:
    name: str
    spec: ProblemSpec
    backend: str      # repro.run backend; "" for serve_mix
    steps: int        # steps per measured call (per job for serve_mix)
    trace_steps: int  # steps per call of the traced run (--trace 1)
    mass_tol: float   # allowed relative drift of total mass over one call

    def n_steps(self, quick: bool, traced: bool = False) -> int:
        steps = self.trace_steps if traced else self.steps
        return max(2, steps // 10) if quick else steps

    def manifest(self) -> dict:
        return {
            "method": self.spec.method,
            "grid_shape": list(self.spec.grid_shape),
            "blocks": list(self.spec.blocks),
            "backend": self.backend or "service",
            "steps": self.steps,
            "trace_steps": self.trace_steps,
            "mass_tol": self.mass_tol,
            "spec_fingerprint": fingerprint(self.spec, {"steps": self.steps}),
        }


#: serve_mix: distinct jobs per round, and how often each is resubmitted.
SERVE_DISTINCT = 24
SERVE_REPEATS = 5
SERVE_WORKERS = 2
#: ServeClient.wait poll: fine enough not to quantize latency by itself.
SERVE_WAIT_POLL = 0.01
#: A 40-step 64x64 job takes ~0.15 s; after this long it is lost, not slow.
SERVE_STUCK_AFTER = 5.0

# A measured call is short (0.3-0.8 s, 1.5 s with two workers to spawn), so
# that a run holds tens of them, each with the yardstick timed on both
# sides of it.  The traced run times spans, not calls, and steps longer.
# Mass tolerances are >= 10x the largest drift seen over seeds 1..10.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fd2d_serial", _channel("fd", (512, 512), (1, 1)),
                 "serial", 10, 40, 1e-7),
        Workload("lb3d_serial", _channel("lb", (64, 64, 64), (1, 1, 1)),
                 "serial", 4, 8, 1e-8),
        Workload("fd2d_tcp_2rank", _channel("fd", (128, 128), (2, 1)),
                 "distributed", 400, 600, 1e-6),
        Workload(
            "hybrid2d_serial",
            _channel(
                {"default": "fd",
                 "regions": [{"method": "lb", "box": [[0, 0], [128, 64]]}]},
                (128, 128), (1, 2),
            ),
            "serial", 100, 400, 1e-6,
        ),
        Workload("serve_mix", _channel("lb", (64, 64), (1, 1)), "", 40, 40,
                 1e-7),
    )
}


# ----------------------------------------------------------------------
# seeded inputs and output checks
# ----------------------------------------------------------------------
def make_inputs(spec: ProblemSpec, seed: int) -> dict[str, np.ndarray]:
    """Fluid at rest plus three low-wavenumber sine modes of amplitude 1e-3.

    Wavenumbers (1..3 per axis) and phases come from the seed; solid
    nodes keep the reference state, as the program's own initializer
    leaves them.
    """
    rng = np.random.default_rng(seed)
    params = spec.build_params()
    shape = spec.grid_shape
    grids = np.meshgrid(
        *[(np.arange(n) + 0.5) / n for n in shape], indexing="ij"
    )

    def modes() -> np.ndarray:
        out = np.zeros(shape)
        for _ in range(3):
            term = np.ones(shape)
            for grid in grids:
                k = int(rng.integers(1, 4))
                term *= np.sin(2 * np.pi * k * grid + rng.uniform(0, 2 * np.pi))
            out += term
        return out / 3.0

    vel_names = ("u", "v", "w")[: len(shape)]
    fields = {"rho": params.rho0 * (1.0 + 1e-3 * modes())}
    for name in vel_names:
        fields[name] = 1e-3 * params.cs * modes()
    solid, _, _ = spec.build_geometry()
    if solid is not None:
        fields["rho"][solid] = params.rho0
        for name in vel_names:
            fields[name][solid] = 0.0
    return fields


def field_digest(fields) -> str:
    """SHA-256 over every field's bytes, in name order."""
    h = hashlib.sha256()
    for name in sorted(fields):
        h.update(name.encode())
        h.update(np.ascontiguousarray(fields[name]).tobytes())
    return h.hexdigest()


def check_fields(wl: Workload, initial, final) -> list[str]:
    """Why this call's output is wrong (empty when it is right)."""
    problems = []
    if not all(np.isfinite(a).all() for a in final.values()):
        problems.append("non-finite field")
    m0 = float(initial["rho"].sum())
    drift = abs(float(final["rho"].sum()) - m0) / m0
    if not drift <= wl.mass_tol:
        problems.append(f"mass drift {drift:.3e} > {wl.mass_tol:.0e}")
    return problems


def peak_rss_mb() -> float:
    """Largest resident set of this interpreter and its reaped children."""
    kb = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kb / 1024.0


class Ops:
    """Operations attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


# ----------------------------------------------------------------------
# set-up time: a fresh interpreter from spawn to exit
# ----------------------------------------------------------------------
#: Timed set-up probes per run, at least and at most (one more, the
#: first, is discarded).
SETUP_PROBES = (3, 8)
#: No further probe is started once this share of the run's seconds is gone.
SETUP_SHARE = 0.25


def measure_setup(name: str, seed: int, work: Path, seconds: float,
                  quick: bool, ops: Ops) -> list[float]:
    """Wall times of fresh ``bench/probe.py`` processes, spawn to exit.

    One discarded probe, then timed ones back to back until SETUP_SHARE
    of ``seconds`` is spent.  A fresh interpreter needs fresh pages
    (260 MB for ``lb3d_serial``), and this VM hands free pages back to
    its host within about two seconds: a probe that gets the pages the
    one before it has just freed takes 0.8 s, one that has to wait for
    the host takes 1.1-1.5 s on a quiet day and 3-20 s on a bad one.
    Hence back to back, hence the faster half for ``setup_s``, and hence
    the cap: slow probes must not eat the run.  ``quick``: one probe.
    """
    times: list[float] = []
    warmup = 0 if quick else 1
    least, most = (1, 1) if quick else SETUP_PROBES
    start = time.perf_counter()
    while len(times) < warmup + most:
        if (len(times) >= warmup + least
                and time.perf_counter() - start > SETUP_SHARE * seconds):
            break
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "probe.py"), name,
             str(seed), str(work / f"probe{len(times)}")],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120,
        )
        times.append(time.perf_counter() - t0)
        ops.record("setup probe", [] if proc.returncode == 0 else [
            f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}"
        ])
    return times[warmup:]


# ----------------------------------------------------------------------
# the four simulation workloads
# ----------------------------------------------------------------------
#: Corrected times are stated for a host on which one yardstick pass
#: takes this long (on the build host it takes 7-13 ms).
YARDSTICK_S = 0.010


class Yardstick:
    """How fast the host is right now: a fixed numpy stencil, timed.

    The speed of this VM's cores moves by 20-50 % within seconds and
    drifts by 10-30 % over minutes (other guests on the same cores and
    the same memory), and a call's wall time moves with it.  Every
    measured call is therefore bracketed by yardstick passes and its time
    stated at the speed of a host whose pass takes YARDSTICK_S.  The
    arrays have the workload's block shape, so the yardstick lives in the
    level of the memory hierarchy the program's kernels live in
    (cache-resident and bound by numpy's call overhead at 64x128,
    streaming at 512x512 and 64^3); the pass count makes a pass ~10 ms.
    It is numpy only: no change to the program can move it.
    """

    def __init__(self, spec: ProblemSpec) -> None:
        shape = tuple(n // b for n, b in zip(spec.grid_shape, spec.blocks))
        self.a = np.linspace(0.0, 1.0, math.prod(shape)).reshape(shape)
        self.b = np.empty_like(self.a)
        self.sweeps = max(1, 1_250_000 // self.a.size)
        self.passes: list[float] = []
        self()

    def __call__(self) -> float:
        """Mean seconds of two passes, taken now."""
        a, b = self.a, self.b
        t0 = time.perf_counter()
        for _ in range(2 * self.sweeps):
            np.copyto(b, a)
            for axis in range(a.ndim):
                b += np.roll(a, 1, axis)
                b += np.roll(a, -1, axis)
            b *= 1.0 / (2 * a.ndim + 1)
            a, b = b, a
        self.passes.append(0.5 * (time.perf_counter() - t0))
        return self.passes[-1]


def at_yardstick_speed(wall: float, before: float, after: float) -> float:
    """``wall`` seconds of a call whose bracketing yardstick passes took
    ``before`` and ``after`` seconds, stated for the YARDSTICK_S host."""
    return wall * YARDSTICK_S / (0.5 * (before + after))


class Call(NamedTuple):
    wall: float        # seconds around repro.run, taken outside the call
    elapsed: float     # RunResult.elapsed, the program's own figure


class SimCaller:
    """Timed ``repro.run`` calls of one workload on one seeded input."""

    def __init__(self, wl: Workload, seed: int, work: Path, ops: Ops) -> None:
        self.wl = wl
        self.fields = make_inputs(wl.spec, seed)
        self.work = work
        self.ops = ops
        self.digests: dict[int, str] = {}   # step count -> first digest
        self._calls = 0

    def __call__(self, steps: int) -> Call:
        """One call, checked after timing; the result is not kept."""
        wl = self.wl
        workdir = None
        if wl.backend == "distributed":   # needs an empty directory
            self._calls += 1
            workdir = self.work / f"run{self._calls}"
        t0 = time.perf_counter()
        result = repro.run(
            wl.spec, wl.backend, RunSettings(steps=steps, transport="tcp"),
            fields=self.fields, workdir=workdir,
        )
        wall = time.perf_counter() - t0
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
        problems = check_fields(wl, self.fields, result.fields)
        digest = field_digest(result.fields)
        if self.digests.setdefault(steps, digest) != digest:
            problems.append("same seed, different field digest")
        self.ops.record(f"{wl.name} {steps}-step call", problems)
        return Call(wall, result.elapsed)

    def check_against_serial(self, steps: int):
        """Distributed fields must equal the plain serial run bitwise."""
        serial = replace(self.wl.spec, blocks=(1,) * self.wl.spec.ndim)
        result = repro.run(serial, "serial", steps=steps, fields=self.fields)
        same = field_digest(result.fields) == self.digests[steps]
        self.ops.record("distributed == serial", [] if same else [
            "fields differ from the serial run"
        ])
        return result


def measure_sim(wl: Workload, seed: int, seconds: float, quick: bool,
                work: Path, ops: Ops) -> dict:
    """Untraced end-to-end measurement of one simulation workload.

    One discarded warm-up call, then rounds of (a 1-step call, an N-step
    call) until ``seconds`` have passed; at least four rounds.  Every
    call's wall time is corrected by the yardstick passes on both sides
    of it (``at_yardstick_speed``); both metrics come from the faster
    half of the corrected calls of each kind (``stats.faster_half``).
    """
    n = wl.n_steps(quick)
    call = SimCaller(wl, seed, work, ops)
    yard = Yardstick(wl.spec)
    call(1)
    one, full, raw, elapsed = [], [], [], []
    before = yard()
    start = time.perf_counter()
    while True:
        for steps, corrected in ((1, one), (n, full)):
            this = call(steps)
            after = yard()
            corrected.append(at_yardstick_speed(this.wall, before, after))
            before = after
        raw.append(this.wall)
        elapsed.append(this.elapsed)
        spent = time.perf_counter() - start
        # stop once another round would mostly fall outside the budget
        if (len(full) >= (1 if quick else 4)
                and spent + 0.5 * spent / len(full) > seconds):
            break
    if wl.backend == "distributed":
        call.check_against_serial(n)
    run_wall, one_wall = faster_half(full), faster_half(one)
    return {
        "samples": {
            "run_wall_s": full,
            "steps_per_s": [(n - 1) / (f - o) for f, o in zip(full, one)],
        },
        "metrics": {
            "run_wall_s": run_wall,
            "steps_per_s": (n - 1) / (run_wall - one_wall),
        },
        "detail": {
            "steps": n,
            "digest": call.digests[n],
            "one_step_wall_ms": 1e3 * one_wall,
            "uncorrected_run_wall_s": faster_half(raw),
            "yardstick_ms": 1e3 * median(yard.passes),
            "program_elapsed_s": median(elapsed),
        },
    }


# ----------------------------------------------------------------------
# serve_mix
# ----------------------------------------------------------------------
def start_gateway(serve_dir: Path) -> Gateway:
    """A background gateway whose pool workers have all heartbeated."""
    gw = Gateway(serve_dir, workers=SERVE_WORKERS)
    gw.start_background()
    deadline = time.perf_counter() + 60.0
    while any(gw.pool.heartbeat(i) is None for i in range(SERVE_WORKERS)):
        if time.perf_counter() > deadline:
            gw.shutdown()
            raise TimeoutError("serve pool never became ready")
        time.sleep(0.005)
    return gw


class ServeDriver:
    """One closed-loop client: the next request goes out only after the
    previous result is in hand."""

    def __init__(self, client: ServeClient, wl: Workload, seed: int,
                 quick: bool, ops: Ops, stream: int = 0,
                 span=nullcontext) -> None:
        self.client = client
        self.wl = wl
        # one generator per (seed, stream): two drivers sharing a gateway
        # must not draw the same viscosities, or "cold" jobs would hit
        self.rng = np.random.default_rng([seed, stream])
        self.distinct = 3 if quick else SERVE_DISTINCT
        self.ops = ops
        self.span = span      # Recorder.span in the traced run
        self.rounds = 0
        self.resubmitted = 0
        self.cold: list[float] = []
        self.warm: list[float] = []
        self.computed = 0
        self.hits = 0
        self.digests: list[str] = []

    def request(self, spec: ProblemSpec, kind: str):
        """submit -> wait until terminal -> fields in hand.

        A job still not terminal after SERVE_STUCK_AFTER seconds is
        cancelled and submitted again, as a client would; the time lost
        stays in the sample.  (The gateway can lose a ticket: a pool
        worker that polls its inbox while the scheduler is still writing
        the ticket file reads it as torn and deletes it, and the job
        stays ``running`` for ever.)
        """
        settings = {"steps": self.wl.steps}
        with self.span(f"serve.request.{kind}"):
            t0 = time.perf_counter()
            rec = self.client.submit(spec, settings=settings)
            try:
                rec = self.client.wait(rec["job_id"], poll=SERVE_WAIT_POLL,
                                       timeout=SERVE_STUCK_AFTER)
            except TimeoutError:
                self.client.cancel(rec["job_id"])
                self.resubmitted += 1
                rec = self.client.submit(spec, settings=settings)
                rec = self.client.wait(rec["job_id"], poll=SERVE_WAIT_POLL,
                                       timeout=60.0)
            fields = self.client.fields(rec["job_id"])
            return time.perf_counter() - t0, rec, fields

    @staticmethod
    def _not_done(rec: dict) -> list[str]:
        return [] if rec["state"] == "done" else [f"ended {rec['state']}"]

    def round(self) -> None:
        """``distinct`` fresh jobs (misses), then each resubmitted
        SERVE_REPEATS times in seeded order (hits)."""
        nus = 0.03 + 0.04 * self.rng.random(self.distinct)
        specs = [
            replace(self.wl.spec, params={**self.wl.spec.params, "nu": nu})
            for nu in nus.tolist()
        ]
        cold_digest = []
        for spec in specs:
            wall, rec, fields = self.request(spec, "cold")
            problems = self._not_done(rec)
            if rec.get("cached"):
                problems.append("first submission was a cache hit")
            else:
                self.computed += 1
            if not all(np.isfinite(a).all() for a in fields.values()):
                problems.append("non-finite field")
            cold_digest.append(field_digest(fields))
            self.cold.append(wall)
            self.ops.record("cold request", problems)
        for i in self.rng.permutation(
            np.repeat(np.arange(self.distinct), SERVE_REPEATS)
        ).tolist():
            wall, rec, fields = self.request(specs[i], "warm")
            problems = self._not_done(rec)
            if rec.get("cached"):
                self.hits += 1
            else:
                problems.append("resubmission was recomputed")
            if field_digest(fields) != cold_digest[i]:
                problems.append("warm fields differ from cold fields")
            self.warm.append(wall)
            self.ops.record("warm request", problems)
        self.digests.extend(cold_digest)
        self.rounds += 1

    def run_for(self, seconds: float) -> None:
        """Whole rounds for about ``seconds``: at least one, and another
        only while most of it still fits."""
        start = time.perf_counter()
        self.round()
        while True:
            spent = time.perf_counter() - start
            if spent + 0.5 * spent / self.rounds > seconds:
                return
            self.round()

    def metrics(self) -> dict:
        cold, warm = median(self.cold), median(self.warm)
        return {
            "run_wall_s": cold,
            "steps_per_s": self.wl.steps / (cold - warm),
        }


def measure_serve(wl: Workload, seed: int, seconds: float, quick: bool,
                  work: Path, ops: Ops) -> dict:
    """Untraced end-to-end measurement of ``serve_mix``: rounds until
    ``seconds`` have passed, at least one.  Its latencies are medians:
    a miss is three of the program's 50 ms polls in series, which the
    host moves by 1 %."""
    gw = start_gateway(work / "serve")
    try:
        driver = ServeDriver(ServeClient(gw.address), wl, seed, quick, ops)
        driver.run_for(seconds)
    finally:
        gw.shutdown()
    return {
        "samples": {"run_wall_s": driver.cold},
        "metrics": driver.metrics(),
        "detail": {
            "steps": wl.steps,
            "digest": hashlib.sha256(
                "".join(driver.digests).encode()
            ).hexdigest(),
            "warm_latency_ms": 1e3 * median(driver.warm),
            "cold_samples": len(driver.cold),
            "warm_samples": len(driver.warm),
            "resubmitted": driver.resubmitted,
        },
    }


def measure(wl: Workload, seed: int, seconds: float, quick: bool,
            work: Path, ops: Ops) -> dict:
    """Every end-to-end metric of one workload but ``peak_rss_mb``; the
    set-up probes come out of the run's ``seconds``."""
    start = time.perf_counter()
    setup = measure_setup(wl.name, seed, work, seconds, quick, ops)
    fn = measure_sim if wl.backend else measure_serve
    left = seconds - (time.perf_counter() - start)
    got = fn(wl, seed, left, quick, work, ops)
    got["samples"]["setup_s"] = setup
    got["metrics"]["setup_s"] = faster_half(setup)
    return got


def sample_spread(wl: Workload, metric: str, xs: list[float]) -> float:
    """The spread of the statistic ``measure`` reports from ``xs``."""
    halved = metric == "setup_s" or bool(wl.backend)
    return faster_half_spread(xs) if halved else median_spread(xs)

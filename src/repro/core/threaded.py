"""Threaded parallel runner: real concurrency inside one process.

:class:`ThreadedSimulation` is a :class:`~repro.core.Simulation` whose
team (see :mod:`repro.core.runner`) has one member per subregion, each
a worker thread running the same step loop over its own subregion.
NumPy's vectorized kernels release the GIL for their inner loops, and
the numba kernel backend (``repro.fluids.backends``) releases it
outright, so the threads genuinely overlap on a multi-core machine.  A
one-subregion run is a team of one on the calling thread.

The worker threads are **persistent**: the pool is spawned lazily on the
first multi-subregion ``step()`` and parked on a go-barrier between
calls, so a timing loop that calls ``step(1)`` repeatedly pays no
per-call thread creation (spawning threads per step used to make this
runner *slower* than the serial one).  ``close()`` (or the context
manager) retires the pool; the threads are daemons, so an unclosed
simulation never blocks interpreter exit.

The exchange itself remains the single-threaded
:class:`~repro.core.exchange.LocalExchanger` pass (run by member 0
between barriers): exchanges copy ghost strips between subregions, and
racing them against kernels would break the very read/write-hazard
analysis that guarantees bitwise equality.  Axes along which *no*
subregion has an active neighbour are exempt: their ghost fills are pure
edge replication on the subregion's own arrays, so each worker applies
them locally (``exchange_local``) without a barrier — a 1xN block grid
synchronizes only for the axis that actually communicates.  The
resulting schedule per phase is

```
[all threads] compute_phase(k); local ghost fills (neighbourless axes)
barrier -> [member 0] exchange(fields_k, communicating axes) -> barrier
```

which performs the identical arithmetic to the serial team of one — the
tests assert bit-for-bit equality — while computing subregions in
parallel.  On top of the inherited loop this runner adds the per-rank
synthetic load (``step_delays``/``delay_fn``) and in-flight global
diagnostics over the in-process collectives (``diag_every``).
"""

from __future__ import annotations

import threading
import time
from typing import Mapping

import numpy as np

from ..net.collectives import Communicator
from ..trace import NULL_TRACER
from .decomposition import Decomposition
from .runner import Simulation

__all__ = ["ThreadedSimulation"]


class ThreadedSimulation(Simulation):
    """Step a decomposed problem with one thread per subregion.

    Same constructor signature and result semantics as
    :class:`repro.core.Simulation`; ``step(n)`` releases the persistent
    worker pool for ``n`` steps and waits for it to finish.
    """

    def __init__(
        self,
        method,
        decomp: Decomposition,
        global_fields: Mapping[str, np.ndarray],
        solid: np.ndarray | None = None,
        diag_every: int = 0,
        diag_algorithm: str = "tree",
        diag_vmax: float = 0.0,
        tracer=NULL_TRACER,
        backend: str | None = None,
        converters=None,
        step_delays=None,
        delay_fn=None,
    ) -> None:
        super().__init__(method, decomp, global_fields, solid,
                         tracer=tracer, backend=backend,
                         converters=converters)
        # Synthetic-load injection (mirrors the distributed runtime's
        # step_delays knob and the graph executor's delay_fn): each
        # rank sleeps ``step_delays[rank] + delay_fn(rank, step)``
        # seconds at the top of every step.  Under this runner's BSP
        # barriers one slow rank stalls the whole step — exactly the
        # imbalance the dependency-driven executor is benched against.
        self._step_delays = list(step_delays or [])
        self._delay_fn = delay_fn
        self._wait_names = tuple(f"wait:{i}" for i in range(self._nphases))
        # Split the axis sweep: the leading axes along which no
        # subregion receives from a neighbour (single-block axes, or
        # axes severed by inactive blocks) are pure local replication
        # and run thread-locally; only the rest needs the serialized
        # exchange between barriers.
        sweep = self._central_axes
        has_recv = {
            axis: any(
                op.kind == "recv"
                for plan in self.exchanger.plans.values()
                for op in plan.ops_for_axis(axis)
            )
            for axis in range(decomp.ndim)
        }
        n_local = 0
        while n_local < len(sweep) and not has_recv[sweep[n_local]]:
            n_local += 1
        self._local_axes = sweep[:n_local]
        self._central_axes = sweep[n_local:]
        n = len(self.subs)
        self._barrier = threading.Barrier(n) if n > 1 else None
        # persistent pool state (spawned lazily by the first step)
        self._pool: list[threading.Thread] = []
        self._go: threading.Barrier | None = None
        self._done: threading.Barrier | None = None
        self._n_steps = 0
        self._closing = False
        self._lock = threading.Lock()
        self._errors: list[BaseException] = []
        #: global :class:`~repro.distrib.diagnostics.DiagRecord` samples
        #: collected every ``diag_every`` steps (empty when disabled)
        self.diagnostics: list = []
        self._diags = None
        if diag_every > 0:
            # Each thread gets a communicator over the in-process
            # fabric — the very collectives a distributed run would use,
            # blocking thread against thread.  ``diag_vmax = 0`` keeps
            # the CFL sentinel off (only NaNs abort an in-process run).
            from ..distrib.diagnostics import GlobalDiagnostics
            from ..net.local import LocalFabric

            fabric = LocalFabric(n)
            self._diags = [
                GlobalDiagnostics(
                    Communicator(
                        fabric.channel_set(i), i, n,
                        algorithm=diag_algorithm, tracer=tracer,
                    ),
                    every=diag_every,
                    vmax=diag_vmax,
                )
                for i in range(n)
            ]

    # ------------------------------------------------------------------
    # persistent pool
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> None:
        if self._pool:
            return
        n = len(self.subs)
        self._go = threading.Barrier(n + 1)
        self._done = threading.Barrier(n + 1)
        for i in range(n):
            t = threading.Thread(
                target=self._worker_loop,
                args=(i,),
                name=f"repro-sub{i}",
                daemon=True,
            )
            t.start()
            self._pool.append(t)

    def _worker_loop(self, idx: int) -> None:
        while True:
            try:
                self._go.wait()
            except threading.BrokenBarrierError:
                return  # pool closed while parked
            if self._closing:
                return
            try:
                self._run_member(idx, self._n_steps)
            except BaseException as exc:
                with self._lock:
                    self._errors.append(exc)
                # wake any siblings blocked on the phase barrier
                self._barrier.abort()
            try:
                self._done.wait()
            except threading.BrokenBarrierError:  # pragma: no cover
                return

    def close(self) -> None:
        """Retire the worker pool (idempotent; the pool respawns on the
        next ``step`` if the simulation is stepped again)."""
        if not self._pool:
            return
        self._closing = True
        assert self._go is not None
        self._go.abort()
        for t in self._pool:
            t.join(timeout=5.0)
        self._pool.clear()
        self._go = None
        self._done = None
        self._closing = False

    def __enter__(self) -> "ThreadedSimulation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _begin_step(self, member: int, step_no: int) -> None:
        """Burn the member's rank's synthetic per-step delay."""
        rank = self.subs[member].block.rank
        delay = (
            self._step_delays[rank]
            if rank < len(self._step_delays) else 0.0
        )
        if self._delay_fn is not None:
            delay += self._delay_fn(rank, step_no)
        if delay > 0:
            time.sleep(delay)

    def _end_step(self, member: int) -> None:
        """Sample the global diagnostics every ``diag_every`` steps.

        The collective itself synchronizes the threads; every thread
        reads only its own subregion.
        """
        if self._diags is not None:
            rec = self._diags[member].maybe_check(self.subs[member])
            if member == 0 and rec is not None:
                self.diagnostics.append(rec)

    def step(self, n: int = 1) -> None:
        """Advance every subregion ``n`` steps, concurrently."""
        if self._barrier is None:
            super().step(n)
            return
        self._ensure_pool()
        assert self._go is not None and self._done is not None
        self._errors.clear()
        self._n_steps = n
        self._go.wait()
        self._done.wait()
        if self._errors:
            # the abort that surfaced the error broke the phase barrier;
            # heal it so the pool can serve another step() after the
            # caller handles the exception
            self._barrier.reset()
            # Prefer the root cause over the BrokenBarrierErrors that
            # the abort cascades to the other workers.
            for exc in self._errors:
                if not isinstance(exc, threading.BrokenBarrierError):
                    raise exc
            raise self._errors[0]

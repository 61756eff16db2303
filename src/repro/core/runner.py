"""The compute/communicate cycle (paper §3) and the simulation facade.

A local interaction problem is solved in parallel by repeating

* *calculate* the new state of the interior of the subregion, then
* *communicate* boundary information with the neighbouring subregions,

and a numerical method plugs into this loop as a sequence of compute
phases separated by ghost exchanges.  The per-step structure of the two
methods of the paper (§6) maps onto the protocol as::

    finite differences                 lattice Boltzmann
    ------------------------------     -----------------------------
    compute_phase 0: update Vx,Vy      compute_phase 0: relax F
    exchange       : Vx, Vy            exchange       : F
    compute_phase 1: update rho        finalize_step  : shift F,
    exchange       : rho                                macro, filter
    finalize_step  : filter

so FD exchanges two messages per step per neighbour and LB one, exactly
the counts whose performance consequences §7 measures.

The cycle is written out once, in :meth:`Simulation._run_member`, and
run by a *team*: each member steps the subregions it owns.  Per step a
member computes each phase on its subregions (a hybrid run's methods
with fewer phases idle) and fills their ghosts on axes without
neighbour traffic; member 0 then runs the phase's one central exchange
between barriers, and after the last phase every member finalizes.  A
hybrid run (:mod:`repro.fluids.coupling`) adds one seam translation
before phase 0, also central.  :class:`Simulation` is a team of one: it
owns every subregion, exchanges the whole axis sweep centrally and
never touches a barrier.  :class:`~repro.core.threaded.ThreadedSimulation`
is the same loop with one thread per subregion.
"""

from __future__ import annotations

from typing import Mapping, Protocol, runtime_checkable

import numpy as np

from ..trace import NULL_TRACER
from .decomposition import Decomposition
from .exchange import LocalExchanger, sweep_axes
from .subregion import SubregionState, assemble_global, make_subregions

__all__ = ["ExplicitMethod", "Simulation", "common_field_names"]


@runtime_checkable
class ExplicitMethod(Protocol):
    """An explicit (local interaction) time-marching method.

    Attributes
    ----------
    pad:
        Ghost width the method requires (3 for both paper methods: reach
        1 for updates/streaming, reach 2 for the fourth-order filter, and
        one extra ring so that ring-1 ghosts can be re-filtered locally
        instead of costing a third message).
    field_names:
        All padded fields the method evolves.
    exchange_phases:
        ``exchange_phases[i]`` are the field names exchanged after
        ``compute_phase(sub, i)``; its length is the number of messages
        per step per neighbour (2 for FD, 1 for LB — §6).
    """

    pad: int
    field_names: tuple[str, ...]
    exchange_phases: tuple[tuple[str, ...], ...]

    def init_subregion(self, sub: SubregionState) -> None:
        """Allocate method-private fields on a fresh subregion."""

    def compute_phase(self, sub: SubregionState, phase: int) -> None:
        """Run compute phase ``phase`` on the subregion interior."""

    def finalize_step(self, sub: SubregionState) -> None:
        """Finish the step after the last exchange (filtering etc.)."""


def _normalize_methods(method, decomp, converters):
    """``(methods_per_rank, single_or_None)`` from a method or sequence.

    A scalar method (or a sequence repeating one instance) is a uniform
    run, exposed as ``sim.method``; a genuinely mixed sequence is a
    *hybrid* run and must come with the seam converters that translate
    its mixed-method edges (see :mod:`repro.fluids.coupling`).
    """
    if isinstance(method, (list, tuple)):
        methods = list(method)
        if len(methods) != decomp.n_active:
            raise ValueError(
                f"{len(methods)} methods for {decomp.n_active} active ranks"
            )
    else:
        methods = [method] * decomp.n_active
    if len({m.pad for m in methods}) != 1:
        raise ValueError(
            "per-rank methods must share one ghost width; construct them "
            "with a common pad override (ProblemSpec.build_methods does)"
        )
    single = methods[0] if len(set(map(id, methods))) == 1 else None
    names = {m.method_name for m in methods if hasattr(m, "method_name")}
    if single is None and len(names) > 1 and not converters:
        raise ValueError(
            "mixed-method runs need seam converters; build them with "
            "repro.fluids.coupling.build_converters"
        )
    return methods, single


def _phase_field_maps(subs, methods, nphases):
    """Per-phase ``{rank: fields}`` maps; idling methods get ``()``."""
    return [
        {
            s.block.rank: (
                m.exchange_phases[p] if p < len(m.exchange_phases) else ()
            )
            for s, m in zip(subs, methods)
        }
        for p in range(nphases)
    ]


def common_field_names(methods) -> tuple[str, ...]:
    """Fields every method evolves, in the first method's order."""
    names = list(methods[0].field_names)
    for m in methods[1:]:
        names = [n for n in names if n in m.field_names]
    return tuple(names)


def _bind_backend(method, backend: str | None) -> None:
    """Bind a kernel backend onto a method that supports one.

    Runners accept a ``backend`` name so the selection threads from
    settings/CLI down to the kernels; methods without pluggable kernels
    (the protocol does not require them) reject a non-default request
    instead of silently ignoring it.
    """
    if not backend:
        return
    set_backend = getattr(method, "set_backend", None)
    if set_backend is None:
        raise ValueError(
            f"method {type(method).__name__} does not support kernel "
            f"backends (requested {backend!r})"
        )
    set_backend(backend)


class Simulation:
    """Decompose a global initial state and march it in time.

    This is the in-process counterpart of the full distributed system:
    the *initialization program* output is ``global_fields``, the
    *decomposition program* is :func:`make_subregions`, and stepping all
    subregions with a :class:`LocalExchanger` performs the same
    calculation — bit for bit — as the socket-distributed runtime, which
    reuses the same method kernels and exchange plans.

    Parameters
    ----------
    method:
        An :class:`ExplicitMethod` (``repro.fluids.FDMethod2D`` etc.).
    decomp:
        The domain decomposition; use ``blocks=(1, 1)`` for a serial run.
    global_fields:
        Initial global arrays keyed by the method's field names (fields
        the method allocates itself, e.g. LB populations initialized
        from the macroscopic state, may be omitted).
    solid:
        Optional global solid-wall mask.
    tracer:
        A :class:`repro.trace.Tracer` recording one span per compute
        phase, ghost exchange and finalize; defaults to the no-op
        :data:`~repro.trace.NULL_TRACER` (span names are precomputed so
        the disabled path stays allocation-free).
    backend:
        Optional kernel-backend name bound onto the method via
        ``method.set_backend`` (see :mod:`repro.fluids.backends`).
    """

    def __init__(
        self,
        method,
        decomp: Decomposition,
        global_fields: Mapping[str, np.ndarray],
        solid: np.ndarray | None = None,
        tracer=NULL_TRACER,
        backend: str | None = None,
        converters=None,
    ) -> None:
        methods, single = _normalize_methods(method, decomp, converters)
        for m in dict.fromkeys(methods):
            _bind_backend(m, backend)
        self.methods = methods
        self.method = single
        self.decomp = decomp
        self.tracer = tracer
        self._converters = dict(converters or {})
        nphases = max(len(m.exchange_phases) for m in methods)
        self._nphases = nphases
        self._compute_names = tuple(f"compute:{i}" for i in range(nphases))
        self._exchange_names = tuple(f"exchange:{i}" for i in range(nphases))
        pad = methods[0].pad
        self.subs = make_subregions(decomp, pad, global_fields, solid)
        if not self.subs:
            raise ValueError("decomposition has no active subregions")
        for sub, m in zip(self.subs, self.methods):
            m.init_subregion(sub)
        self.exchanger = LocalExchanger(decomp, self.subs, self._converters)
        self._phase_fields = _phase_field_maps(self.subs, self.methods, nphases)
        # A freshly decomposed state has exact ghosts, but method-private
        # fields were initialized per-subregion; exchange every field and
        # translate the seams once so the first step starts from a
        # consistent padded state.
        self.exchanger.exchange(
            (),
            fields_by_rank={
                s.block.rank: m.field_names
                for s, m in zip(self.subs, self.methods)
            },
        )
        self.exchanger.exchange_seam()
        # the team of one: no barrier, every sweep axis exchanged centrally
        self._barrier = None
        self._local_axes: tuple[int, ...] = ()
        self._central_axes = sweep_axes(
            decomp.ndim, decomp.n_active < decomp.n_blocks
        )

    @property
    def step_count(self) -> int:
        return self.subs[0].step

    def step(self, n: int = 1) -> None:
        """Advance every subregion ``n`` integration steps."""
        self._run_member(0, n)

    def _run_member(self, member: int, n: int) -> None:
        """The one step loop: team member ``member``'s share of ``n`` steps.

        A member of a team of one (``_barrier is None``) owns every
        subregion; otherwise member ``i`` owns subregion ``i``.  Seam
        ghost strips are translated once per step *before* the first
        compute phase — both sides convert time-``t`` state (the LB side
        needs the FD velocity before the in-place momentum update
        overwrites it).  The phase loop runs to the longest method's
        phase count; a method with fewer phases idles, and each method
        exchanges only its own representation with its same-method
        neighbours (seam edges are skipped — the converter already
        refreshed them).  Exchanges and seam translations copy strips
        between subregions, so member 0 runs them alone between
        barriers; axes without neighbour traffic are pure replication on
        a subregion's own arrays and are filled by the owning member.
        """
        subs = self.subs
        methods = self.methods
        exchanger = self.exchanger
        tracer = self.tracer
        barrier = self._barrier
        own = (
            range(len(subs)) if barrier is None
            else range(member, member + 1)
        )
        lead = member == 0
        seam = bool(self._converters)
        phase_fields = self._phase_fields
        local_axes = self._local_axes
        central_axes = self._central_axes
        compute_names = self._compute_names
        # non-exchanging members spend the same interval at the barrier
        sync_names = self._exchange_names if lead else self._wait_names
        first = subs[own[0]]
        for _ in range(n):
            step_no = first.step
            self._begin_step(member, step_no)
            if seam:
                t0 = tracer.begin()
                if barrier is not None:
                    barrier.wait()
                if lead:
                    exchanger.exchange_seam()
                if barrier is not None:
                    barrier.wait()
                tracer.end("seam:0", t0, step=step_no, tid=member)
            for phase in range(self._nphases):
                fields = phase_fields[phase]
                t0 = tracer.begin()
                for i in own:
                    sub, m = subs[i], methods[i]
                    if phase < len(m.exchange_phases):
                        m.compute_phase(sub, phase)
                        if local_axes:
                            rank = sub.block.rank
                            exchanger.exchange_local(
                                rank, local_axes, fields[rank]
                            )
                tracer.end(compute_names[phase], t0, step=step_no,
                           tid=member)
                if central_axes:
                    t0 = tracer.begin()
                    if barrier is not None:
                        barrier.wait()
                    if lead:
                        exchanger.exchange(
                            (), axes=central_axes, fields_by_rank=fields
                        )
                    if barrier is not None:
                        barrier.wait()
                    tracer.end(sync_names[phase], t0, step=step_no,
                               tid=member)
            t0 = tracer.begin()
            for i in own:
                methods[i].finalize_step(subs[i])
                subs[i].step += 1
            tracer.end("finalize:0", t0, step=step_no, tid=member)
            self._end_step(member)

    def _begin_step(self, member: int, step_no: int) -> None:
        """Hook at the top of a member's step (threaded synthetic load)."""

    def _end_step(self, member: int) -> None:
        """Hook after a member's step (threaded in-flight diagnostics)."""

    def global_field(self, name: str, fill: float = 0.0) -> np.ndarray:
        """Reassemble a global array from the subregion interiors."""
        return assemble_global(self.decomp, self.subs, name, fill)

    def global_state(self) -> dict[str, np.ndarray]:
        """All method fields reassembled into global arrays.

        A hybrid run reassembles the fields every method evolves (the
        macroscopic ``rho, V``); method-private fields like the LB
        populations exist only on their own subregions.
        """
        return {
            name: self.global_field(name)
            for name in common_field_names(self.methods)
        }

    def global_diagnostics(self, algorithm: str = "tree"):
        """Globally reduced mass / kinetic energy / max |V| right now.

        Runs the same collective schedules as a distributed run's
        in-flight diagnostics, interleaved co-operatively in this
        thread over the in-process backend, so the returned
        :class:`~repro.distrib.diagnostics.DiagRecord` is bit-for-bit
        what the workers of an equivalent distributed run would log.
        """
        from ..distrib.diagnostics import serial_diagnostics

        return serial_diagnostics(self.subs, algorithm=algorithm)

    # ------------------------------------------------------------------
    # checkpointing (the in-process face of the §4.1 dump files)
    # ------------------------------------------------------------------
    def save(self, directory) -> None:
        """Write every subregion as a dump file (one per rank).

        The same format the distributed runtime checkpoints and
        migrates with; :meth:`resume` restores the run bit-exactly.
        """
        from ..distrib.dumpfile import dump_path, save_dump

        for sub in self.subs:
            save_dump(sub, dump_path(directory, sub.block.rank))

    def resume(self, directory) -> None:
        """Restore the simulation state saved by :meth:`save`.

        The decomposition and method must match the saved run; ghost
        values are part of the dump, so stepping continues bit-exactly
        from the saved step (asserted by the test suite).
        """
        from ..distrib.dumpfile import dump_path, load_dump

        restored = []
        for sub, m in zip(self.subs, self.methods):
            back = load_dump(dump_path(directory, sub.block.rank))
            if back.block != sub.block:
                raise ValueError(
                    f"dump for rank {sub.block.rank} covers block "
                    f"{back.block.index}, expected {sub.block.index}"
                )
            m.init_subregion(back)
            restored.append(back)
        self.subs = restored
        self.exchanger = LocalExchanger(
            self.decomp, self.subs, self._converters
        )

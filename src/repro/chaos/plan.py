"""Deterministic, seeded fault plans.

The paper's runtime exists to survive a hostile environment: owners
reclaim their workstations mid-run, the shared Ethernet drops and
reorders packets, and crashes are recovered from staggered checkpoints
(§4.1, §5, App. B).  A :class:`FaultPlan` makes that hostility
*reproducible*: a seeded RNG schedules a set of :class:`Fault` events —
kill or SIGSTOP a worker at step N, drop/delay/duplicate/truncate
messages at the transport layer, corrupt a checkpoint dump, poison a
rank's state with a NaN, spike a host's load — and the JSON-serialized
plan drives the live distributed runtime (via
``WorkerKnobs.fault_plan``), so a failure seen once can be replayed
exactly.

Every fault is identified by a stable ``fault_id`` so the injector can
mark it *fired* on disk: a kill fault keyed only by step would re-fire
after every checkpoint restart (the restart replays the same steps)
and pin the run in a crash loop.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field

__all__ = ["Fault", "FaultPlan", "KINDS", "MESSAGE_KINDS", "SCENARIOS"]

#: Faults applied by the worker process itself at a step boundary.
PROCESS_KINDS = frozenset({"kill", "stop"})
#: Faults applied at the channel layer when a frame is sent.
MESSAGE_KINDS = frozenset(
    {"msg_drop", "msg_dup", "msg_delay", "msg_truncate", "conn_break"}
)
#: Faults applied by the worker to its own field state at a step
#: boundary: ``nan`` poisons one interior ``rho`` value, as a blown-up
#: kernel would, to exercise the diagnosed-abort path.
STATE_KINDS = frozenset({"nan"})
#: Faults applied to a checkpoint dump right after it is written.
DUMP_KINDS = frozenset({"dump_corrupt", "dump_truncate"})
#: Faults applied by the monitor to the virtual host table.
HOST_KINDS = frozenset({"load_spike"})

KINDS = PROCESS_KINDS | MESSAGE_KINDS | STATE_KINDS | DUMP_KINDS | HOST_KINDS


@dataclass(frozen=True)
class Fault:
    """One scheduled fault.

    ``step`` anchors process/message/dump faults to the integration
    step counter (deterministic across runs); ``at``/``seconds`` anchor
    host-load faults to wall seconds since the run started (host load
    is a wall-clock phenomenon — there is no step counter on a host).
    """

    kind: str
    rank: int = 0        # victim rank (for load_spike: the rank whose host)
    step: int = -1       # fire at this integration step (process/msg/dump)
    count: int = 1       # how many frames a message fault affects
    seconds: float = 0.0  # duration (stop pause model, load spike length)
    load: float = 0.0    # load_spike: the five-minute load to publish
    at: float = -1.0     # load_spike: wall seconds after run start
    arg: int = 0         # msg_truncate: bytes to cut from the payload

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (expected one of "
                f"{sorted(KINDS)})"
            )

    @property
    def fault_id(self) -> str:
        """Stable identity used for the fired-once markers on disk."""
        return f"{self.kind}_r{self.rank}_s{self.step}_a{self.at:g}"


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, JSON-serializable schedule of faults."""

    seed: int = 0
    faults: tuple[Fault, ...] = field(default_factory=tuple)

    # ------------------------------------------------------------------
    # serialization (travels inside WorkerConfig JSON and CLI files)
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "faults": [asdict(f) for f in self.faults]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        return cls(
            seed=int(data.get("seed", 0)),
            faults=tuple(Fault(**f) for f in data.get("faults", ())),
        )

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def for_rank(self, rank: int, kinds: frozenset[str]) -> tuple[Fault, ...]:
        """The plan's faults of the given kinds targeting one rank."""
        return tuple(
            f for f in self.faults if f.rank == rank and f.kind in kinds
        )

    def host_faults(self) -> tuple[Fault, ...]:
        """The plan's host-level faults (applied by the monitor)."""
        return tuple(f for f in self.faults if f.kind in HOST_KINDS)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def scenario(
        cls,
        name: str,
        seed: int,
        n_ranks: int,
        steps: int,
        save_every: int,
    ) -> "FaultPlan":
        """One of the canonical seeded scenarios (see :data:`SCENARIOS`).

        The scenario fixes the fault *shape*; the seed jitters victim
        rank and timing, so a seed sweep explores different interleavings
        of the same failure mode.
        """
        if name not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {name!r} (expected one of "
                f"{sorted(SCENARIOS)})"
            )
        rng = random.Random((seed, name).__repr__())
        rank = rng.randrange(n_ranks)
        # Fire after the first complete checkpoint so recovery has
        # something newer than the initial state to restart from, and
        # before the final steps so the fault actually interrupts work.
        lo = save_every + 1 if 0 < save_every < steps else 1
        hi = max(lo + 1, steps - 2)
        step = rng.randrange(lo, hi)
        faults: tuple[Fault, ...]
        if name == "kill":
            faults = (Fault("kill", rank=rank, step=step),)
        elif name == "stall":
            faults = (Fault("stop", rank=rank, step=step),)
        elif name == "loss":
            faults = (
                Fault("msg_drop", rank=rank, step=step,
                      count=rng.randint(1, 2)),
            )
        elif name == "corruption":
            # Corrupt the next checkpoint this rank writes, then kill it
            # a little later: the monitor must detect the bad dump and
            # fall back to the previous complete checkpoint.
            faults = (
                Fault(
                    "dump_corrupt" if rng.random() < 0.5
                    else "dump_truncate",
                    rank=rank,
                    step=step,
                ),
                Fault("kill", rank=rank, step=min(step + 2, steps - 1)),
            )
        elif name == "spike":
            faults = (
                Fault(
                    "load_spike",
                    rank=rank,
                    at=0.3 + rng.random() * 0.4,
                    load=2.0 + rng.random(),
                    seconds=30.0,
                ),
            )
        elif name == "break":
            faults = (Fault("conn_break", rank=rank, step=step),)
        elif name == "rebalance_kill":
            # The same single kill as "kill", but the runner marches it
            # under policy="rebalance" with a skewed synthetic load, so
            # the SIGKILL races a live rebalance epoch: depending on
            # seed it lands before the planner acts, mid-epoch (a rank
            # dies instead of dumping), or after the re-cut (the
            # restart must pick decomposition-compatible dumps).
            faults = (Fault("kill", rank=rank, step=step),)
        else:  # "reorder"
            faults = (
                Fault("msg_delay", rank=rank, step=step),
                Fault("msg_dup", rank=rank,
                      step=min(step + 1, steps - 1)),
            )
        return cls(seed=seed, faults=faults)

    @classmethod
    def generate(
        cls,
        seed: int,
        n_ranks: int,
        steps: int,
        save_every: int = 0,
        n_faults: int = 2,
        kinds: tuple[str, ...] | None = None,
    ) -> "FaultPlan":
        """A random mixed plan for sweep testing (nightly CI)."""
        menu = tuple(kinds) if kinds is not None else (
            "kill", "stop", "msg_drop", "msg_dup", "msg_delay",
            "conn_break", "dump_corrupt", "load_spike",
        )
        for kind in menu:
            if kind not in KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        rng = random.Random(seed)
        lo = save_every + 1 if 0 < save_every < steps else 1
        hi = max(lo + 1, steps - 1)
        faults = []
        for _ in range(n_faults):
            kind = rng.choice(menu)
            rank = rng.randrange(n_ranks)
            if kind in HOST_KINDS:
                faults.append(Fault(
                    kind, rank=rank,
                    at=0.3 + rng.random(),
                    load=1.6 + rng.random() * 1.5,
                    seconds=30.0,
                ))
            else:
                faults.append(Fault(
                    kind, rank=rank, step=rng.randrange(lo, hi),
                    count=rng.randint(1, 2),
                ))
        return cls(seed=seed, faults=tuple(faults))


#: The canonical scenarios the acceptance gate sweeps (plus two extras
#: exercising the orderly-reconnect and reorder-tolerance paths).
SCENARIOS = (
    "kill",        # SIGKILL a worker mid-run -> checkpoint restart
    "stall",       # SIGSTOP a worker -> stall/timeout detection -> restart
    "loss",        # drop boundary strips -> recv timeout -> restart
    "corruption",  # corrupt a checkpoint, then crash -> fallback restart
    "spike",       # host load > 1.5 -> migration (§5.1)
    "break",       # orderly connection break -> backoff reconnect, no restart
    "reorder",     # delayed + duplicated frames -> absorbed in-protocol
    "rebalance_kill",  # SIGKILL under policy="rebalance": the kill may
    #  land before, during or after a rebalance epoch — every
    #  interleaving must end in a ledger-closed recovery
)

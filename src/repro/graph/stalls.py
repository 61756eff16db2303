"""Graph stalls: slow work made visible by its own cost estimate.

Under a BSP barrier a slow rank is invisible — every other rank just
waits, and the wait is indistinguishable from load imbalance, network
loss or a wedged process.  A planned :class:`~repro.graph.TaskGraph`
changes that: every node carries the planner's cost estimate, so "this
node's dependencies have been satisfied for more than N× its estimated
cost and it has not finished" is a *named*, attributable event — a
**graph stall** — rather than a silent barrier wait.  The
:class:`~repro.graph.GraphExecutor` feeds ready/done timestamps per
node and emits a ``graph:stall`` trace span per event.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["StallEvent", "StallDetector"]

#: Default multiple of the estimated cost before a node counts as
#: stalled, and the floor (seconds) that keeps sub-millisecond nodes
#: from flagging on scheduler noise.
STALL_FACTOR = 8.0
STALL_FLOOR = 0.05


@dataclass(frozen=True)
class StallEvent:
    """One detected stall: which node, whose rank, how late."""

    label: str
    rank: int
    step: int
    waited: float       # seconds since the node's deps were satisfied
    cost: float         # the planner's estimate for the node

    @property
    def factor(self) -> float:
        """How many estimated-cost multiples the node has been ready."""
        return self.waited / self.cost if self.cost > 0 else float("inf")


@dataclass
class StallDetector:
    """Node-granular stall rule over ready/done timestamps.

    ``node_ready`` marks the moment a node's last dependency completed;
    ``check(now)`` reports every ready-but-unfinished node older than
    ``factor × cost + floor`` (each node at most once); ``node_done``
    retires it.  Timestamps are whatever monotonic clock the caller
    uses — the detector only differences them.
    """

    factor: float = STALL_FACTOR
    floor: float = STALL_FLOOR
    events: list[StallEvent] = field(default_factory=list)
    _ready: dict[int, tuple[float, object]] = field(default_factory=dict)
    _flagged: set[int] = field(default_factory=set)

    def node_ready(self, node, now: float) -> None:
        """Mark ``node``'s last dependency as completed at ``now``."""
        self._ready[node.id] = (now, node)

    def node_done(self, node_id: int) -> None:
        """Retire a finished node from the watch set."""
        self._ready.pop(node_id, None)

    def check(self, now: float) -> list[StallEvent]:
        """All *new* stalls as of ``now``."""
        fresh: list[StallEvent] = []
        for nid, (t_ready, node) in self._ready.items():
            if nid in self._flagged:
                continue
            waited = now - t_ready
            if waited > self.factor * node.cost + self.floor:
                self._flagged.add(nid)
                event = StallEvent(
                    label=node.label, rank=node.rank, step=node.step,
                    waited=waited, cost=node.cost,
                )
                self.events.append(event)
                fresh.append(event)
        return fresh


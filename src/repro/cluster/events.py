"""A minimal discrete-event engine (heap scheduler).

The cluster simulator advances simulated time through a priority queue
of ``(time, sequence, callback)`` events.  The monotonically increasing
sequence number makes simultaneous events fire in scheduling order, so
every simulation is fully deterministic.
"""

from __future__ import annotations

import heapq
from typing import Callable

__all__ = ["EventQueue"]


class EventQueue:
    """Deterministic discrete-event scheduler."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[float], None]]] = []
        self._seq = 0
        self.now = 0.0
        self.events_processed = 0

    def schedule(
        self, time: float, callback: Callable[[float], None]
    ) -> None:
        """Run ``callback(time)`` at the given simulated time."""
        if time < self.now - 1e-12:
            raise ValueError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        heapq.heappush(self._heap, (time, self._seq, callback))
        self._seq += 1

    def run(
        self,
        until: float = float("inf"),
        max_events: int = 50_000_000,
    ) -> None:
        """Process events until the queue drains or ``until`` is reached."""
        while self._heap:
            time, _, callback = self._heap[0]
            if time > until:
                break
            heapq.heappop(self._heap)
            self.now = time
            self.events_processed += 1
            if self.events_processed > max_events:
                raise RuntimeError(
                    f"event budget exceeded ({max_events}); runaway "
                    "simulation?"
                )
            callback(time)

    @property
    def empty(self) -> bool:
        return not self._heap

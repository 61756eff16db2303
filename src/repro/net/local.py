"""In-process message fabric with the channel-set interface.

:class:`LocalFabric` is a set of per-rank mailboxes behind one lock;
:class:`LocalChannelSet` is one rank's blocking view of it,
call-compatible with the TCP and UDP channel sets (``send_data`` /
``recv_data``).  Threads holding one view each can drive a
:class:`~repro.net.transport.SocketExchanger` without sockets — the
socket-free transport of the exchange micro-benchmarks.
"""

from __future__ import annotations

import threading

from ..trace import NULL_TRACER

__all__ = ["LocalFabric", "LocalChannelSet"]


class LocalFabric:
    """Shared mailboxes for a group of in-process ranks.

    Messages are keyed exactly like the socket transports key their
    out-of-order buffers — ``(step, phase, axis, side, sender)``.
    """

    def __init__(self, n_ranks: int) -> None:
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        self.n_ranks = n_ranks
        self._boxes: list[dict] = [{} for _ in range(n_ranks)]
        self._cond = threading.Condition()

    def channel_set(self, rank: int) -> "LocalChannelSet":
        """The given rank's view of the fabric."""
        return LocalChannelSet(self, rank)

    def put(self, to: int, key: tuple, payload: bytes) -> None:
        """Deposit a message and wake any waiting receivers."""
        with self._cond:
            self._boxes[to][key] = payload
            self._cond.notify_all()

    def take(self, rank: int, keys: set, timeout: float) -> dict:
        """Block until every key is present in ``rank``'s mailbox."""
        box = self._boxes[rank]
        with self._cond:
            ok = self._cond.wait_for(
                lambda: all(k in box for k in keys), timeout=timeout
            )
            if not ok:
                missing = sorted(k for k in keys if k not in box)
                raise TimeoutError(
                    f"local rank {rank}: no message for {missing} "
                    f"after {timeout:.1f}s"
                )
            return {k: box.pop(k) for k in keys}


class LocalChannelSet:
    """One rank's blocking channel-set view of a :class:`LocalFabric`."""

    def __init__(self, fabric: LocalFabric, rank: int) -> None:
        if not 0 <= rank < fabric.n_ranks:
            raise ValueError(f"rank {rank} outside fabric of "
                             f"{fabric.n_ranks}")
        self.fabric = fabric
        self.rank = rank
        #: per-peer byte/message accounting (assign a live
        #: :class:`repro.trace.Tracer` to record fabric traffic)
        self.tracer = NULL_TRACER

    def send_data(self, to: int, payload: bytes, step: int, phase: int,
                  axis: int, side: int) -> None:
        """Deposit ``payload`` in ``to``'s mailbox under the wire key."""
        self.tracer.count(to, len(payload))
        self.fabric.put(to, (step, phase, axis, side, self.rank),
                        bytes(payload))

    def recv_data(self, keys, timeout: float = 30.0) -> dict:
        """Block until all ``(step, phase, axis, side, sender)`` keys arrive."""
        out = self.fabric.take(self.rank, set(keys), timeout)
        tracer = self.tracer
        if tracer.enabled:
            for key, payload in out.items():
                tracer.count(key[4], len(payload), sent=False)
        return out

    def close(self) -> None:
        """Nothing to release (interface parity with the socket sets)."""

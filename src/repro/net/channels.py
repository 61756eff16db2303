"""TCP channel management between parallel processes (paper §4.2, App. C).

Opening a channel follows the paper's handshake: every process first
binds a listening socket, writes its port into the shared file, then
reads the file to find its neighbours.  For each neighbour pair the
lower rank accepts and the higher rank connects (TCP's listen backlog
makes this deadlock-free in any order); the connector identifies itself
with a HELLO frame.  Channels stay open for the whole computation except
during migration, when they are closed and re-opened under the next
registry generation (§5).

Receiving is **first-come-first-served** using ``select`` exactly as
App. C recommends: frames are consumed from whichever neighbour has data
ready and buffered by ``(step, phase, axis, side, sender)`` until the
caller needs them — this is what lets computation proceed in processes
that are not delayed.

**Fault hardening.**  Connection-level failures surface as a typed
:class:`ChannelError` carrying rank, peer and generation — never a raw
``ConnectionError``/``BrokenPipeError`` without context.  Before one is
raised, the channel set tries to *recover* the link with bounded
exponential backoff, keeping the original handshake roles: the higher
rank re-connects through the registry, the lower rank re-accepts on its
still-open listener (which is why ``recv_data`` keeps the listener in
its ``select`` set).  An optional fault injector
(:mod:`repro.chaos.inject`) hooks the send path to drop, duplicate,
delay or truncate frames, or break links outright — the failure modes
the recovery paths are tested against.
"""

from __future__ import annotations

import select
import socket
import time
from typing import Iterable, Mapping

from ..trace import NULL_TRACER
from .portfile import PortRegistry
from .protocol import (
    MSG_DATA,
    MSG_HELLO,
    Header,
    ProtocolError,
    pack_frame,
    recv_frame,
    send_all,
)

__all__ = ["ChannelSet", "ChannelError"]

_SNDBUF = 1 << 20  # generous kernel buffers keep small-strip sends non-blocking

#: Link recovery uses bounded exponential backoff: attempt ``k`` waits
#: ``RECONNECT_BASE * 2**k`` seconds, ``RECONNECT_ATTEMPTS`` attempts
#: in all before a :class:`ChannelError` is raised.
RECONNECT_ATTEMPTS = 5
RECONNECT_BASE = 0.05
#: Seconds a receiver waits for a hung-up higher-ranked peer that still
#: owes data to re-connect before giving up with a ChannelError.
HANGUP_GRACE = 2.0


class ChannelError(ConnectionError):
    """A channel to a peer failed beyond recovery.

    Wraps the raw ``ConnectionError``/``BrokenPipeError``/``OSError``
    the socket layer raises, adding the context a monitor log needs to
    be actionable: *whose* channel, to *which* peer, under *which*
    registry generation.
    """

    def __init__(self, rank: int, peer: int, generation: int, detail: str):
        self.rank = rank
        self.peer = peer
        self.generation = generation
        super().__init__(
            f"rank {rank}: channel to peer {peer} "
            f"(generation {generation}): {detail}"
        )


class ChannelSet:
    """All TCP channels of one parallel process."""

    def __init__(
        self,
        rank: int,
        neighbor_ranks: Iterable[int],
        registry: PortRegistry,
        host: str = "127.0.0.1",
    ) -> None:
        self.rank = rank
        self.neighbors = sorted(set(neighbor_ranks))
        if rank in self.neighbors:
            raise ValueError(f"rank {rank} cannot neighbour itself over TCP")
        self.registry = registry
        self.host = host
        self.generation = -1
        #: successful link recoveries (visible in worker logs/benches)
        self.reconnects = 0
        #: optional :class:`repro.chaos.ChannelFaultInjector` hook
        self.injector = None
        self._socks: dict[int, socket.socket] = {}
        self._listener: socket.socket | None = None
        self._inbox: dict[tuple, bytes] = {}
        self._hung_up: set[int] = set()
        self._hung_at: dict[int, float] = {}
        self._attempts: dict[int, int] = {}
        self._next_try: dict[int, float] = {}
        #: per-peer byte/message accounting (assign a live
        #: :class:`repro.trace.Tracer` to record channel traffic)
        self.tracer = NULL_TRACER

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def open(self, generation: int, timeout: float = 30.0) -> None:
        """Open channels to every neighbour under ``generation``."""
        if self._socks:
            raise RuntimeError("channels already open")
        self.generation = generation
        listener = socket.create_server((self.host, 0), backlog=16)
        self._listener = listener
        port = listener.getsockname()[1]
        self.registry.register(generation, self.rank, self.host, port)

        lower = [n for n in self.neighbors if n < self.rank]
        higher = [n for n in self.neighbors if n > self.rank]

        # Connect to lower-ranked neighbours (their listeners are bound
        # before they register, so the connect cannot race the bind).
        if lower:
            addrs = self.registry.wait_for(
                generation, set(lower), timeout=timeout
            )
            for n in lower:
                try:
                    s = socket.create_connection(addrs[n], timeout=timeout)
                    self._setup(s)
                    send_all(s, pack_frame(MSG_HELLO, self.rank))
                except OSError as exc:
                    raise ChannelError(
                        self.rank, n, generation, f"connect failed: {exc}"
                    ) from exc
                self._socks[n] = s

        # Accept connections from higher-ranked neighbours.
        deadline = time.monotonic() + timeout
        pending = set(higher)
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"rank {self.rank}: neighbours {sorted(pending)} never "
                    f"connected (generation {generation})"
                )
            ready, _, _ = select.select([listener], [], [], remaining)
            if not ready:
                continue
            s, _ = listener.accept()
            self._setup(s)
            header, _ = recv_frame(s)
            if header.msg_type != MSG_HELLO:
                raise ProtocolError(
                    f"expected HELLO, got type {header.msg_type}"
                )
            if header.sender not in pending:
                raise ProtocolError(
                    f"unexpected connection from rank {header.sender}"
                )
            pending.discard(header.sender)
            self._socks[header.sender] = s

    @staticmethod
    def _setup(s: socket.socket) -> None:
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        s.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, _SNDBUF)
        s.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, _SNDBUF)

    def close(self) -> None:
        """Close every channel (done before a migration pause, §5.1)."""
        for s in self._socks.values():
            try:
                s.close()
            except OSError:  # pragma: no cover - best effort
                pass
        self._socks.clear()
        self._hung_up.clear()
        self._hung_at.clear()
        self._attempts.clear()
        self._next_try.clear()
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        # Buffered future-step frames remain valid across a re-open: the
        # sender will not retransmit them.

    # ------------------------------------------------------------------
    # link recovery (bounded exponential backoff, roles preserved)
    # ------------------------------------------------------------------
    def break_link(self, peer: int, drain: bool = True) -> None:
        """Close the channel to ``peer`` (fault injection / dead link).

        ``drain`` first moves any frames already queued on our side of
        the socket into the out-of-order inbox, so an *orderly* break
        loses no data — the paths that close a socket the OS already
        broke pass ``drain=False``.
        """
        sock = self._socks.pop(peer, None)
        if sock is None:
            return
        if drain:
            self._drain(sock)
        try:
            sock.close()
        except OSError:  # pragma: no cover - best effort
            pass

    def _drain(self, sock: socket.socket) -> None:
        """Buffer every frame already readable on a socket."""
        try:
            while True:
                ready, _, _ = select.select([sock], [], [], 0.05)
                if not ready:
                    return
                header, payload = recv_frame(sock)
                if header.msg_type != MSG_DATA:
                    continue
                self._inbox[header.key()] = payload
                self.tracer.count(header.sender, len(payload), sent=False)
        except (ProtocolError, OSError):
            return

    def _adopt(self, peer: int, sock: socket.socket) -> None:
        """Install a freshly established socket as the live link."""
        old = self._socks.pop(peer, None)
        if old is not None:
            self._drain(old)
            try:
                old.close()
            except OSError:  # pragma: no cover - best effort
                pass
        self._socks[peer] = sock
        self._hung_up.discard(peer)
        self._hung_at.pop(peer, None)
        self._attempts.pop(peer, None)
        self._next_try.pop(peer, None)

    def _connect_to(self, peer: int, timeout: float) -> None:
        """Re-connect to a lower-ranked peer (we keep the connector role)."""
        addrs = self.registry.wait_for(
            self.generation, {peer}, timeout=timeout
        )
        s = socket.create_connection(addrs[peer], timeout=max(timeout, 0.1))
        self._setup(s)
        send_all(s, pack_frame(MSG_HELLO, self.rank))
        self._adopt(peer, s)
        self.reconnects += 1

    def _accept_reconnect(self) -> int | None:
        """Accept one pending connection on the listener (any peer)."""
        assert self._listener is not None
        s, _ = self._listener.accept()
        self._setup(s)
        try:
            header, _ = recv_frame(s)
        except (ProtocolError, OSError):
            s.close()
            return None
        if header.msg_type != MSG_HELLO:
            s.close()
            return None
        self._adopt(header.sender, s)
        return header.sender

    def _await_reconnect(self, peer: int, wait: float) -> None:
        """Wait for a higher-ranked peer to re-connect (acceptor role)."""
        assert self._listener is not None
        deadline = time.monotonic() + wait
        while peer not in self._socks:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"peer {peer} did not reconnect")
            ready, _, _ = select.select([self._listener], [], [], remaining)
            if ready:
                self._accept_reconnect()

    def _send_frame(self, to: int, data: bytes) -> None:
        """Transmit one packed frame, recovering the link if needed."""
        sock = self._socks.get(to)
        last: Exception | None = None
        if sock is not None:
            try:
                send_all(sock, data)
                return
            except OSError as exc:
                last = exc
                self.break_link(to, drain=False)
        delay = RECONNECT_BASE
        for _ in range(RECONNECT_ATTEMPTS):
            try:
                if to < self.rank:
                    self._connect_to(to, timeout=delay)
                else:
                    self._await_reconnect(to, wait=delay)
                send_all(self._socks[to], data)
                return
            except (OSError, TimeoutError) as exc:
                last = exc
                self.break_link(to, drain=False)
                time.sleep(delay)
                delay *= 2
        raise ChannelError(
            self.rank, to, self.generation,
            f"send failed after {RECONNECT_ATTEMPTS} reconnect "
            f"attempts: {last!r}",
        ) from last

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def send_data(
        self,
        to: int,
        payload: bytes,
        step: int,
        phase: int,
        axis: int,
        side: int,
    ) -> None:
        """Send one boundary-strip frame to a neighbour."""
        frames: Iterable[tuple] = ((to, payload, step, phase, axis, side),)
        if self.injector is not None and self.injector.enabled:
            frames, breaks = self.injector.filter_send(
                (to, payload, step, phase, axis, side)
            )
            for peer in breaks:
                self.break_link(peer)
        for t, pl, st, ph, ax, sd in frames:
            frame = pack_frame(
                MSG_DATA, self.rank, pl,
                step=st, phase=ph, axis=ax, side=sd,
            )
            self._send_frame(t, frame)
            self.tracer.count(t, len(pl))

    def recv_data(
        self,
        keys: set[tuple[int, int, int, int, int]],
        timeout: float = 60.0,
    ) -> dict[tuple, bytes]:
        """Collect the payloads for every requested key.

        ``keys`` are ``(step, phase, axis, side, sender)`` tuples.
        Receiving is first-come-first-served: ``select`` picks whichever
        neighbour has data (App. C).

        A peer that hangs up while still owing data is given a chance to
        re-establish the link (it may have broken the connection on
        purpose — see :meth:`break_link` — or be re-connecting after a
        transient error): lower-ranked peers are re-dialled with backoff,
        higher-ranked peers are awaited on the listener, bounded by
        :data:`HANGUP_GRACE`; then a :class:`ChannelError` names the peer.
        """
        out: dict[tuple, bytes] = {}
        for key in list(keys):
            if key in self._inbox:
                out[key] = self._inbox.pop(key)
        missing = keys - out.keys()
        deadline = time.monotonic() + timeout
        while missing:
            # A peer that has finished its run closes its end; that is
            # only an error if we still expect data from it (all frames
            # sent before the close are delivered first by TCP).
            self._recover_hung_up({k[4] for k in missing})
            socks = [
                s for r, s in self._socks.items() if r not in self._hung_up
            ]
            # The listener stays in the select set so a peer
            # re-connecting after a link break is accepted mid-receive.
            if self._listener is not None:
                socks.append(self._listener)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"rank {self.rank}: still waiting for {sorted(missing)}"
                )
            ready, _, _ = select.select(socks, [], [], min(remaining, 0.25))
            by_rank = {s: r for r, s in self._socks.items()}
            for s in ready:
                if s is self._listener:
                    self._accept_reconnect()
                    continue
                try:
                    header, payload = recv_frame(s)
                except ProtocolError:
                    peer = by_rank[s]
                    self._hung_up.add(peer)
                    self._hung_at.setdefault(peer, time.monotonic())
                    continue
                if header.msg_type != MSG_DATA:
                    raise ProtocolError(
                        f"unexpected mid-run frame type {header.msg_type}"
                    )
                self.tracer.count(header.sender, len(payload), sent=False)
                key = header.key()
                if key in missing:
                    out[key] = payload
                    missing.discard(key)
                else:
                    # A neighbour running ahead (App. A) — buffer it.
                    self._inbox[key] = payload
            for key in list(missing):
                if key in self._inbox:
                    out[key] = self._inbox.pop(key)
                    missing.discard(key)
        return out

    def _recover_hung_up(self, owed: set[int]) -> None:
        """Try to restore hung-up links we still expect data from."""
        now = time.monotonic()
        for peer in sorted(self._hung_up & owed):
            since = self._hung_at.setdefault(peer, now)
            if peer < self.rank:
                # Connector role: re-dial with bounded backoff.
                if now < self._next_try.get(peer, 0.0):
                    continue
                tries = self._attempts.get(peer, 0)
                if tries >= RECONNECT_ATTEMPTS:
                    raise ChannelError(
                        self.rank, peer, self.generation,
                        f"peer hung up and {tries} reconnect attempts "
                        f"failed while data is still outstanding",
                    )
                self._attempts[peer] = tries + 1
                self._next_try[peer] = (
                    now + RECONNECT_BASE * (2 ** tries)
                )
                try:
                    self._connect_to(peer, timeout=0.5)
                except (OSError, TimeoutError):
                    continue
            elif now - since > HANGUP_GRACE:
                # Acceptor role: the listener sits in the select set;
                # all we can do is bound the wait.
                raise ChannelError(
                    self.rank, peer, self.generation,
                    f"peer hung up and never reconnected within "
                    f"{HANGUP_GRACE:.1f}s while data is still "
                    f"outstanding",
                )

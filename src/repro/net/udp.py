"""UDP/IP (datagram) transport — the App. D alternative, implemented.

"Apart from the TCP/IP protocol, another protocol that is popular in
distributed systems is the UDP/IP protocol, also known as datagrams
[...] with one major difference: there is no guaranteed delivery of
messages.  Thus, the distributed program must check that messages are
delivered, and resend messages if necessary, which is a considerable
effort.  However, the benefit is that the distributed program has more
control of the communication [and] robustness in the case of network
errors that occur under very high network traffic: when TCP/IP fails it
is hard to know which messages need to be resent; in UDP/IP the
distributed program controls precisely which data is sent and when, so
that the failure problem is handled directly."

The paper chose TCP for simplicity; this module builds the UDP path it
describes so the trade-off can be exercised: per-datagram sequence
numbers, positive acknowledgments, timer-driven retransmission,
duplicate suppression, fragmentation of boundary strips into
MTU-sized datagrams, and a close announcement so a peer stops
retransmitting to a socket that will never answer.  A deterministic
loss-injection knob emulates the overloaded-Ethernet packet loss of §7,
and the test suite shows the exchange stays bit-exact under heavy loss
— the robustness App. D advertises.

:class:`UdpChannelSet` is call-compatible with
:class:`repro.net.channels.ChannelSet`, so the same
:class:`~repro.net.transport.SocketExchanger` and worker drive either
protocol.
"""

from __future__ import annotations

import select
import socket
import struct
import time
from typing import Iterable

import numpy as np

from ..trace import NULL_TRACER
from .channels import ChannelError
from .portfile import PortRegistry
from .protocol import ProtocolError

__all__ = ["UdpChannelSet"]

_MAGIC = b"SKRU"
_VERSION = 1
_PKT_DATA = 1
_PKT_ACK = 2
_PKT_FIN = 3   # "I closed": carries the closing side's generation as step

#: copies of each close announcement; a lost announcement costs the
#: peer no correctness, only a wait to its own flush timeout
_FIN_COPIES = 3

#: magic, version, ptype, sender, step, phase, axis, side, seq,
#: frag_idx, nfrags, payload_len
_HEADER = struct.Struct(">4sBBiqBBbIHHI")
HEADER_SIZE = _HEADER.size

#: payload bytes per datagram — well under the 64 KiB UDP limit, large
#: enough that a 300-node strip fits in a handful of fragments
_MTU_PAYLOAD = 32768


class UdpChannelSet:
    """Reliable boundary exchange over unreliable datagrams (App. D)."""

    def __init__(
        self,
        rank: int,
        neighbor_ranks: Iterable[int],
        registry: PortRegistry,
        host: str = "127.0.0.1",
        rto: float = 0.05,
        loss_rate: float = 0.0,
        loss_seed: int = 0,
    ) -> None:
        self.rank = rank
        self.neighbors = sorted(set(neighbor_ranks))
        if rank in self.neighbors:
            raise ValueError(f"rank {rank} cannot neighbour itself")
        self.registry = registry
        self.host = host
        self.rto = rto
        self.loss_rate = loss_rate
        self._loss_rng = np.random.default_rng(loss_seed + 7919 * rank)
        self.generation = -1
        self._open_timeout = 30.0  # a re-handshake waits as long as open()
        self._sock: socket.socket | None = None
        self._addrs: dict[int, tuple[str, int]] = {}
        self._seq = 0
        # reliability state
        # seq -> (packet, addr, last send, destination rank)
        self._unacked: dict[
            int, tuple[bytes, tuple[str, int], float, int]
        ] = {}
        self._seen: set[tuple[int, int]] = set()  # (sender, seq)
        self._frags: dict[tuple, dict[int, bytes]] = {}
        self._nfrags: dict[tuple, int] = {}
        self._inbox: dict[tuple, bytes] = {}
        # statistics (the "considerable effort" made visible)
        self.datagrams_sent = 0
        self.retransmissions = 0
        self.duplicates_dropped = 0
        self.datagrams_lost = 0  # injected losses
        self.conn_breaks = 0     # injected conn_break faults honoured
        # conn_break aftermath: ignore this many incoming ACKs, modeling
        # the burst of acknowledgments a dying link eats (the sender
        # must retransmit; the receiver's duplicate suppression absorbs
        # the replays)
        self._ack_ignore = 0
        #: per-peer byte/message accounting (assign a live
        #: :class:`repro.trace.Tracer` to record channel traffic)
        self.tracer = NULL_TRACER
        #: optional :class:`repro.chaos.ChannelFaultInjector` hook.
        #: Datagrams have no connection to reset, so a ``conn_break``
        #: here models what a broken link costs a connectionless
        #: transport: the peer's resolved address is dropped (forcing a
        #: registry re-handshake before the next send) and a burst of
        #: ACKs is discarded (forcing the retransmit timer to re-earn
        #: delivery) — see :meth:`_break_link`.
        self.injector = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def open(self, generation: int, timeout: float = 30.0) -> None:
        """Bind, register in the port file, and resolve the neighbours."""
        if self._sock is not None:
            raise RuntimeError("channels already open")
        self.generation = generation
        self._open_timeout = timeout
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind((self.host, 0))
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 21)
        self._sock = sock
        port = sock.getsockname()[1]
        self.registry.register(generation, self.rank, self.host, port)
        self._addrs = self.registry.wait_for(
            generation, set(self.neighbors), timeout=timeout
        )

    def close(self, flush_timeout: float = 10.0) -> None:
        """Flush outstanding retransmissions, announce, close the socket.

        A frame stays in the flush until its ACK arrives or its peer
        announces that it has closed too: a closed peer reads nothing
        more, so its missing ACK can only have been lost after delivery.
        """
        if self._sock is None:
            return
        deadline = time.monotonic() + flush_timeout
        while self._unacked and time.monotonic() < deadline:
            self._pump(0.01)
        fin = _HEADER.pack(
            _MAGIC, _VERSION, _PKT_FIN, self.rank, self.generation, 0, 0,
            0, 0, 0, 0, 0,
        )
        for addr in self._addrs.values():
            for _ in range(_FIN_COPIES):
                try:
                    self._raw_send(fin, addr)
                except OSError:
                    break  # best effort: the peer falls back to its timeout
        self._sock.close()
        self._sock = None
        self._seen.clear()
        self._frags.clear()
        self._nfrags.clear()
        self._unacked.clear()

    # ------------------------------------------------------------------
    # on-demand links (collective topology)
    # ------------------------------------------------------------------
    def has_link(self, rank: int) -> bool:
        """Whether ``rank``'s datagram address is already resolved."""
        return rank in self._addrs

    def ensure_links(self, peers: Iterable[int], timeout: float = 30.0) -> None:
        """Resolve non-neighbour peers' addresses from the registry.

        Datagrams are connectionless, so a "link" is just a registry
        lookup under the current generation — after a migration re-open
        the stale address is simply re-resolved.
        """
        missing = {p for p in set(peers) if p not in self._addrs}
        if not missing:
            return
        if self._sock is None:
            raise RuntimeError("channels are closed")
        self._addrs.update(
            self.registry.wait_for(self.generation, missing, timeout=timeout)
        )

    # ------------------------------------------------------------------
    # send side
    # ------------------------------------------------------------------
    def _raw_send(self, packet: bytes, addr: tuple[str, int]) -> None:
        assert self._sock is not None
        if self.loss_rate > 0.0 and self._loss_rng.random() < self.loss_rate:
            self.datagrams_lost += 1
            return  # the network ate it; the retransmit timer will act
        self._sock.sendto(packet, addr)

    def send_data(
        self,
        to: int,
        payload: bytes,
        step: int,
        phase: int,
        axis: int,
        side: int,
    ) -> None:
        """Fragment, sequence and transmit one boundary-strip frame."""
        frames: tuple = ((to, payload, step, phase, axis, side),)
        if self.injector is not None and self.injector.enabled:
            frames, breaks = self.injector.filter_send(
                (to, payload, step, phase, axis, side)
            )
            for peer in breaks:
                self._break_link(peer)
        for t, pl, st, ph, ax, sd in frames:
            self._send_frame(t, pl, st, ph, ax, sd)

    def _break_link(self, peer: int) -> None:
        """Honour an injected ``conn_break`` on a connectionless link.

        There is no TCP stream to reset, so the fault becomes the two
        costs a broken link imposes on a datagram protocol: the peer's
        resolved address is forgotten (the next send must re-handshake
        through the port registry, exactly like a post-migration
        re-open) and the next few ACKs are discarded as if the dying
        link ate them, forcing the retransmit timer to deliver the
        in-flight data again.
        """
        self.conn_breaks += 1
        self._addrs.pop(peer, None)
        self._ack_ignore += 4

    def _send_frame(
        self, to: int, payload: bytes,
        step: int, phase: int, axis: int, side: int,
    ) -> None:
        if to not in self._addrs:  # broken link: registry re-handshake
            self.ensure_links((to,), timeout=self._open_timeout)
        addr = self._addrs[to]
        self.tracer.count(to, len(payload))
        nfrags = max(1, -(-len(payload) // _MTU_PAYLOAD))
        if nfrags > 0xFFFF:
            raise ValueError(f"payload of {len(payload)} bytes too large")
        for idx in range(nfrags):
            chunk = payload[idx * _MTU_PAYLOAD : (idx + 1) * _MTU_PAYLOAD]
            seq = self._seq
            self._seq += 1
            packet = _HEADER.pack(
                _MAGIC, _VERSION, _PKT_DATA, self.rank, step, phase,
                axis, side, seq, idx, nfrags, len(chunk),
            ) + chunk
            self._unacked[seq] = (packet, addr, time.monotonic(), to)
            try:
                self._raw_send(packet, addr)
            except OSError as exc:
                raise ChannelError(
                    self.rank, to, self.generation,
                    f"datagram send failed: {exc}",
                ) from exc
            self.datagrams_sent += 1

    def _retransmit_due(self) -> None:
        now = time.monotonic()
        for seq, (packet, addr, last, to) in list(self._unacked.items()):
            if now - last >= self.rto:
                self._unacked[seq] = (packet, addr, now, to)
                self._raw_send(packet, addr)
                self.retransmissions += 1

    # ------------------------------------------------------------------
    # receive side
    # ------------------------------------------------------------------
    def _handle_packet(self, data: bytes, addr: tuple[str, int]) -> None:
        if len(data) < HEADER_SIZE:
            raise ProtocolError(f"short datagram ({len(data)} bytes)")
        (magic, version, ptype, sender, step, phase, axis, side, seq,
         frag_idx, nfrags, plen) = _HEADER.unpack(data[:HEADER_SIZE])
        if magic != _MAGIC:
            raise ProtocolError(f"bad datagram magic {magic!r}")
        if version != _VERSION:
            raise ProtocolError(f"datagram version {version}")
        if ptype == _PKT_ACK:
            if self._ack_ignore > 0:  # conn_break ate this ACK
                self._ack_ignore -= 1
                return
            self._unacked.pop(seq, None)
            return
        if ptype == _PKT_FIN:
            if step == self.generation:  # not a late one from an old link
                for s in [s for s, (*_, to) in self._unacked.items()
                          if to == sender]:
                    del self._unacked[s]
            return
        if ptype != _PKT_DATA:
            raise ProtocolError(f"unknown datagram type {ptype}")
        # Always acknowledge, even duplicates (the first ACK may have
        # been lost — exactly the failure UDP makes us own).
        ack = _HEADER.pack(
            _MAGIC, _VERSION, _PKT_ACK, self.rank, 0, 0, 0, 0, seq, 0,
            0, 0,
        )
        self._raw_send(ack, addr)
        if (sender, seq) in self._seen:
            self.duplicates_dropped += 1
            return
        self._seen.add((sender, seq))
        chunk = data[HEADER_SIZE : HEADER_SIZE + plen]
        if len(chunk) != plen:
            raise ProtocolError("truncated datagram payload")
        key = (step, phase, axis, side, sender)
        frags = self._frags.setdefault(key, {})
        frags[frag_idx] = chunk
        self._nfrags[key] = nfrags
        if len(frags) == nfrags:
            whole = b"".join(frags[i] for i in range(nfrags))
            self._inbox[key] = whole
            self.tracer.count(sender, len(whole), sent=False)
            del self._frags[key]
            del self._nfrags[key]

    def _pump(self, wait: float) -> None:
        """Service the socket for up to ``wait`` seconds and retransmit."""
        assert self._sock is not None
        ready, _, _ = select.select([self._sock], [], [], wait)
        while ready:
            data, addr = self._sock.recvfrom(1 << 16)
            self._handle_packet(data, addr)
            ready, _, _ = select.select([self._sock], [], [], 0.0)
        self._retransmit_due()

    def recv_data(
        self,
        keys: set[tuple[int, int, int, int, int]],
        timeout: float = 60.0,
    ) -> dict[tuple, bytes]:
        """Collect the payloads for every requested key."""
        out: dict[tuple, bytes] = {}
        deadline = time.monotonic() + timeout
        while True:
            for key in list(keys - out.keys()):
                if key in self._inbox:
                    out[key] = self._inbox.pop(key)
            if len(out) == len(keys):
                return out
            if time.monotonic() > deadline:
                missing = sorted(keys - out.keys())
                raise TimeoutError(
                    f"rank {self.rank}: still waiting for {missing}"
                )
            self._pump(min(self.rto, 0.02))

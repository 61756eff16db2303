"""The one collective: a small allreduce over the point-to-point links.

The paper's processes only ever talk to their grid neighbours; any
cluster-wide quantity (total mass, a NaN blow-up) is invisible until the
dumps are reassembled after the run.  The in-flight diagnostics
(:mod:`repro.distrib.diagnostics`) need exactly one collective: an
element-wise ``allreduce`` (sum or max) of a few float64s.

It is a binomial-tree allgather — gather to rank 0, broadcast back —
followed by a *rank-ordered* local fold, which makes the result
bit-for-bit equal to the serial reduction and identical on every rank
regardless of transport.  The allgather is written once, as a
*schedule generator* yielding ``("send", peer, payload)`` and
``("recv", peer)`` effects, and run by one driver:
:class:`Communicator` blocks on a channel set — TCP
(:class:`~repro.net.channels.ChannelSet`), UDP
(:class:`~repro.net.udp.UdpChannelSet`) or the in-process
:class:`~repro.net.local.LocalChannelSet` — one driver per rank.
Links to non-neighbour peers are established on demand through the
shared-file :class:`~repro.net.portfile.PortRegistry` (the paper's
handshake, reused for the tree's edges).
"""

from __future__ import annotations

import functools
import struct
from typing import Callable, Iterable, Mapping

import numpy as np

from ..trace import NULL_TRACER

__all__ = [
    "COLLECTIVE_PHASE",
    "REDUCE_OPS",
    "Communicator",
]

#: Wire ``phase`` tag of collective frames — far outside the exchange
#: phases (0..1) and the folded pass/axis tags of the ghost exchanger,
#: so collective traffic can never collide with boundary strips in the
#: receivers' out-of-order buffers.
COLLECTIVE_PHASE = 251

#: Reduction operators, applied element-wise and folded in rank order.
REDUCE_OPS: Mapping[str, Callable] = {
    "sum": np.add,
    "max": np.maximum,
}

_LEN = struct.Struct(">Q")


def _pack_blocks(blocks: Iterable[bytes]) -> bytes:
    """Concatenate length-prefixed byte blocks into one frame."""
    return b"".join(_LEN.pack(len(b)) + b for b in blocks)


def _unpack_blocks(data: bytes) -> list[bytes]:
    """Inverse of :func:`_pack_blocks`."""
    out = []
    off = 0
    while off < len(data):
        (n,) = _LEN.unpack_from(data, off)
        off += _LEN.size
        out.append(data[off : off + n])
        off += n
    return out


# ----------------------------------------------------------------------
# the allgather schedule
#
# Effects: yield ("send", peer, payload) to transmit, and
# payload = yield ("recv", peer) to receive.  Within one allgather a
# rank receives at most once from any peer (children in the gather are
# higher ranks, the parent in the broadcast a lower one), so the peer
# alone keys a message.
# ----------------------------------------------------------------------

def _gather(rank: int, n: int, payload: bytes):
    """Binomial-tree gather of (possibly unequal) payloads to rank 0.

    Returns the list of payloads indexed by rank at rank 0, ``None``
    elsewhere.  Subtree contributions travel length-prefixed so the
    assembly is unambiguous for variable sizes.
    """
    blocks: dict[int, bytes] = {rank: payload}
    mask = 1
    while mask < n:
        if rank & mask:
            data = _pack_blocks(blocks[k] for k in sorted(blocks))
            yield ("send", rank ^ mask, data)
            return None
        child = rank | mask
        if child < n:
            parts = _unpack_blocks((yield ("recv", child)))
            for i, part in enumerate(parts):
                blocks[child + i] = part
        mask <<= 1
    return [blocks[r] for r in range(n)]


def _broadcast(rank: int, n: int, payload: bytes | None):
    """Binomial-tree broadcast from rank 0; returns the payload."""
    if rank:
        low = rank & -rank
        payload = yield ("recv", rank - low)
    else:
        low = 1 << n.bit_length()
    mask = low >> 1
    while mask:
        child = rank | mask
        if child < n:
            yield ("send", child, payload)
        mask >>= 1
    return payload


def _allgather(rank: int, n: int, payload: bytes):
    """Gather to rank 0, then broadcast the packed result."""
    blocks = yield from _gather(rank, n, payload)
    packed = _pack_blocks(blocks) if blocks is not None else None
    packed = yield from _broadcast(rank, n, packed)
    return _unpack_blocks(packed)


# ----------------------------------------------------------------------
# the blocking per-rank driver
# ----------------------------------------------------------------------

class Communicator:
    """The allreduce for one rank over a point-to-point channel set.

    ``channels`` is anything with the ``send_data``/``recv_data``/
    ``has_link``/``ensure_links`` interface (TCP, UDP, or in-process).
    Every rank of the group must execute the same sequence of
    allreduces; frames are keyed by an operation sequence number
    carried in the wire header's ``step`` field.  Workers that can
    migrate pin ``seq`` to a function of the integration step (see
    :mod:`repro.distrib.diagnostics`) so a restarted rank stays in
    lockstep with the survivors.
    """

    def __init__(
        self,
        channels,
        rank: int,
        n_ranks: int,
        timeout: float = 60.0,
        link_timeout: float = 30.0,
        tracer=NULL_TRACER,
    ) -> None:
        if not 0 <= rank < n_ranks:
            raise ValueError(f"rank {rank} outside group of {n_ranks}")
        self.channels = channels
        self.rank = rank
        self.n = n_ranks
        self.timeout = timeout
        self.link_timeout = link_timeout
        #: span tracer; each allreduce records one
        #: ``collective:allreduce`` span
        self.tracer = tracer
        #: sequence number of the next collective operation; assignable
        #: (workers pin it to the integration step before each sync
        #: point so it survives migration).
        self.seq = 0

    def _ensure(self, peer: int) -> None:
        if not self.channels.has_link(peer):
            self.channels.ensure_links({peer}, timeout=self.link_timeout)

    def _drive(self, gen, name: str):
        """Execute one schedule generator against the channel set."""
        seq = self.seq
        self.seq += 1
        t0 = self.tracer.begin()
        try:
            eff = next(gen)
            while True:
                peer = eff[1]
                self._ensure(peer)
                if eff[0] == "send":
                    self.channels.send_data(
                        peer, eff[2], step=seq, phase=COLLECTIVE_PHASE,
                        axis=0, side=0,
                    )
                    eff = gen.send(None)
                else:
                    key = (seq, COLLECTIVE_PHASE, 0, 0, peer)
                    got = self.channels.recv_data(
                        {key}, timeout=self.timeout
                    )
                    eff = gen.send(got[key])
        except StopIteration as stop:
            return stop.value
        finally:
            self.tracer.end(name, t0)

    def allreduce(self, value, op: str = "sum"):
        """Element-wise ``sum`` or ``max`` of a float64 value, on every rank.

        Allgather + rank-ordered fold: bit-for-bit the serial reduction,
        identical on every rank under any transport.  Scalars come back
        as ``float``, arrays in the contributed shape.
        """
        ufunc = REDUCE_OPS[op]
        arr = np.asarray(value, dtype=np.float64)
        if self.n == 1:
            out = arr.copy()
        else:
            blocks = self._drive(
                _allgather(self.rank, self.n, arr.tobytes()),
                "collective:allreduce",
            )
            out = functools.reduce(ufunc, (
                np.frombuffer(b, np.float64).reshape(arr.shape)
                for b in blocks
            ))
        return float(out) if arr.ndim == 0 else out

"""Boundary exchange over TCP channels (the distributed data plane).

Executes the same :class:`~repro.core.exchange.ExchangePlan` as the
in-process :class:`~repro.core.exchange.LocalExchanger`, but each strip
travels as one frame over a channel set (TCP or UDP).  Axis passes are
sequential — axis-``d+1`` strips include the ghost columns freshly
received in axis ``d`` — which is what propagates corner data without
diagonal messages.  A received frame is decoded into strip arrays and
then filled by the same :func:`~repro.core.exchange.fill_ghost` as the
in-process exchanger uses, seam conversions included; the periodic
self-wrap and the domain-boundary faces go through it too.

With the numbers of the paper's methods this produces exactly the
message pattern §6 counts: FD calls :meth:`SocketExchanger.exchange`
twice per step (velocities, then density) and LB once (populations), so
each neighbour pair sees 2 or 1 messages per step per axis direction.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..core.exchange import EdgeOp, EdgeStage, ExchangePlan, fill_ghost
from ..core.subregion import SubregionState
from .channels import ChannelSet

__all__ = ["SocketExchanger", "SEAM_PHASE"]

#: wire phase tag of the once-per-step seam translation exchange; far
#: above any compute phase index so frame keys ``(step, phase, tag,
#: side)`` can never collide with a regular phase exchange
SEAM_PHASE = 15


class SocketExchanger:
    """Exchange ghost strips of one subregion over a channel set.

    Walks the plan's axis passes (:attr:`ExchangePlan.passes`); the wire
    frames of a pass carry ``pass * 4 + axis`` as their axis tag, so an
    axis the extended sweep repeats cannot collide with itself.
    """

    def __init__(
        self,
        sub: SubregionState,
        plan: ExchangePlan,
        channels: ChannelSet,
        timeout: float = 60.0,
        converters=None,
        wire_fields: Sequence[str] = (),
    ) -> None:
        self.sub = sub
        self.plan = plan
        self.channels = channels
        self.timeout = timeout
        #: seam converters keyed by neighbour rank (this worker is the
        #: destination); those edges are skipped by :meth:`exchange` and
        #: translated by :meth:`exchange_seam` instead
        self.converters = dict(converters or {})
        #: the fields *this* rank's method ships across a seam (its own
        #: representation — the neighbour's converter translates them)
        self.wire_fields = tuple(wire_fields)
        self.bytes_sent = 0
        self.messages_sent = 0
        self.stage = EdgeStage()

    def exchange(self, field_names: Sequence[str], phase: int) -> None:
        """One ghost exchange of the named fields at the given phase."""
        self._sweep(field_names, phase, seam=False)

    def exchange_seam(self) -> None:
        """Translate mixed-method ghost strips (once per step, pre-phase).

        The distributed face of ``LocalExchanger.exchange_seam``: per
        axis pass, this rank ships the seam strips of its *own*
        representation (:attr:`wire_fields`) and converts whatever the
        mixed-method neighbour shipped into its ghost strips.  Axis
        passes are sequential, so a later axis ships ghost corners
        already translated by an earlier axis — the same corner
        propagation (and therefore bit-identical results) as the
        in-process runners.
        """
        if self.converters:
            self._sweep(self.wire_fields, SEAM_PHASE, seam=True)

    def _sweep(
        self, field_names: Sequence[str], phase: int, seam: bool
    ) -> None:
        """Per pass: send every strip, receive from whichever neighbour
        is ready, then fill the pass's faces.  ``seam`` selects the
        converter edges instead of the same-method ones and the
        domain-boundary faces."""
        sub = self.sub
        rank = sub.block.rank
        step = sub.step
        converters = self.converters
        for pass_idx, ops in enumerate(self.plan.passes):
            # Distinct wire tag per pass so repeated axes cannot collide
            # in the receiver's out-of-order buffer.
            tag = pass_idx * 4 + ops[0].axis
            # The frame filling my side-s ghost was sent across the
            # neighbour's opposite face, so it carries -s.
            keys = {}
            for op in ops:
                if (op.kind == "recv" and op.neighbor_rank != rank
                        and (op.neighbor_rank in converters) == seam):
                    payload = self._pack(field_names, op.send_slices)
                    self.channels.send_data(
                        op.neighbor_rank, payload,
                        step=step, phase=phase, axis=tag, side=op.side,
                    )
                    self.bytes_sent += len(payload)
                    self.messages_sent += 1
                    keys[(step, phase, tag, -op.side, op.neighbor_rank)] = op
            payloads = (
                self.channels.recv_data(set(keys), timeout=self.timeout)
                if keys else {}
            )
            for key, op in keys.items():
                conv = converters.get(op.neighbor_rank)
                strips = self._decode(op, field_names, payloads[key], conv)
                fill_ghost(sub, op, field_names, strips, self.stage, conv,
                           framed=True)
            if seam:
                continue
            for op in ops:
                if op.kind != "recv":  # replicate; hold needs nothing
                    fill_ghost(sub, op, field_names, None, self.stage)
                elif op.neighbor_rank == rank:
                    # a periodic axis this one block spans wraps onto
                    # itself
                    fill_ghost(sub, op, field_names, sub.fields,
                               self.stage)

    # ------------------------------------------------------------------
    # (de)serialization
    # ------------------------------------------------------------------
    def _pack(
        self, field_names: Sequence[str], slices: tuple[slice, ...]
    ) -> bytes:
        parts = []
        for name in field_names:
            arr = self.sub.fields[name]
            parts.append(
                np.ascontiguousarray(arr[(...,) + slices]).tobytes()
            )
        return b"".join(parts)

    def _decode(
        self, op: EdgeOp, field_names: Sequence[str], payload: bytes,
        converter=None,
    ) -> dict[str, np.ndarray]:
        """Decode one strip frame into read-only ``float64`` arrays.

        Every array has my ghost strip's shape: neighbouring blocks
        agree on every extent but the exchanged axis, so my ghost strip
        is exactly the shape of the neighbour's send strip.  Leading
        component dims (the ``(Q,)`` of a population array) come from
        my own field — or, on a seam, from the converter's
        ``wire_leading``, since I may not hold the shipped field at all
        (an FD rank has no populations).  A frame of any other length
        raises ``ValueError`` before anything is written.
        """
        sub = self.sub
        strip = tuple(len(range(*sl.indices(n)))
                      for sl, n in zip(op.recv_slices, sub.padded_shape))
        names = field_names if converter is None else converter.wire_fields
        shapes = [
            (sub.fields[name].shape[:-len(strip)] if converter is None
             else converter.wire_leading.get(name, ())) + strip
            for name in names
        ]
        counts = [math.prod(shape) for shape in shapes]
        if len(payload) != 8 * sum(counts):
            raise ValueError(
                f"frame from rank {op.neighbor_rank} at step {sub.step} "
                f"has {len(payload)} bytes, expected {8 * sum(counts)}"
            )
        strips = {}
        offset = 0
        for name, shape, count in zip(names, shapes, counts):
            strips[name] = np.frombuffer(
                payload, np.float64, count, offset).reshape(shape)
            offset += 8 * count
        return strips

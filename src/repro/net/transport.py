"""Boundary exchange over TCP channels (the distributed data plane).

Executes the same :class:`~repro.core.exchange.ExchangePlan` as the
in-process :class:`~repro.core.exchange.LocalExchanger`, but each strip
travels as one frame over a TCP channel.  Axis passes are sequential —
axis-``d+1`` strips include the ghost columns freshly received in axis
``d`` — which is what propagates corner data without diagonal messages.

With the numbers of the paper's methods this produces exactly the
message pattern §6 counts: FD calls :meth:`SocketExchanger.exchange`
twice per step (velocities, then density) and LB once (populations), so
each neighbour pair sees 2 or 1 messages per step per axis direction.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.exchange import (
    EdgeOp,
    EdgeStage,
    ExchangePlan,
    _replicate_edge,
)
from ..core.subregion import SubregionState
from .channels import ChannelSet

__all__ = ["SocketExchanger", "SEAM_PHASE"]

#: wire phase tag of the once-per-step seam translation exchange; far
#: above any compute phase index so frame keys ``(step, phase, tag,
#: side)`` can never collide with a regular phase exchange
SEAM_PHASE = 15


class SocketExchanger:
    """Exchange ghost strips of one subregion over TCP.

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
        is ready, then fill the domain-boundary faces (regular exchange
        only).  ``seam`` selects the converter edges instead of the
        same-method ones."""
        sub = self.sub
        step = sub.step
        converters = self.converters
        for pass_idx, ops in enumerate(self.plan.passes):
            # Distinct wire tag per pass so repeated axes cannot collide
            # in the receiver's out-of-order buffer.
            tag = pass_idx * 4 + ops[0].axis
            edges = [
                op for op in ops
                if op.kind == "recv"
                and (op.neighbor_rank in converters) == seam
            ]
            for op in edges:
                if op.neighbor_rank == sub.block.rank:
                    # a periodic axis this one block spans wraps onto
                    # itself: a local copy, as in LocalExchanger
                    for name in field_names:
                        arr = sub.fields[name]
                        self.stage.copy(arr[(...,) + op.recv_slices],
                                        arr[(...,) + op.src_slices])
                    continue
                payload = self._pack(field_names, op.send_slices)
                self.channels.send_data(
                    op.neighbor_rank,
                    payload,
                    step=step,
                    phase=phase,
                    axis=tag,
                    side=op.side,
                )
                self.bytes_sent += len(payload)
                self.messages_sent += 1
            # The frame filling my side-s ghost was sent across the
            # neighbour's opposite face, so it carries -s.
            keys = {
                (step, phase, tag, -op.side, op.neighbor_rank): op
                for op in edges if op.neighbor_rank != sub.block.rank
            }
            if keys:
                payloads = self.channels.recv_data(
                    set(keys), timeout=self.timeout
                )
                for key, op in keys.items():
                    if seam:
                        conv = converters[op.neighbor_rank]
                        arrays = self._unpack_seam(conv, op, payloads[key])
                        conv.convert(sub, op.recv_slices, arrays)
                    else:
                        self._unpack(field_names, op, payloads[key])
            # "hold" faces (inactive solid blocks) need nothing.
            for op in ops:
                if op.kind == "replicate" and not seam:
                    extent = sub.block.shape[op.axis]
                    for name in field_names:
                        _replicate_edge(
                            sub.fields[name], op, sub.pad, extent,
                            self.stage,
                        )

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

    def _unpack(
        self,
        field_names: Sequence[str],
        op: EdgeOp,
        payload: bytes,
    ) -> None:
        offset = 0
        for name in field_names:
            arr = self.sub.fields[name]
            target = arr[(...,) + op.recv_slices]
            nbytes = target.size * target.itemsize
            chunk = payload[offset : offset + nbytes]
            if len(chunk) != nbytes:
                raise ValueError(
                    f"strip for field {name!r} from rank "
                    f"{op.neighbor_rank} at step {self.sub.step} "
                    f"truncated: {len(chunk)}/{nbytes} bytes"
                )
            target[...] = np.frombuffer(chunk, dtype=arr.dtype).reshape(
                target.shape
            )
            offset += nbytes
        if offset != len(payload):
            raise ValueError(
                f"frame from rank {op.neighbor_rank} at step "
                f"{self.sub.step} has {len(payload) - offset} "
                f"unexpected trailing bytes"
            )

    def _unpack_seam(self, conv, op: EdgeOp, payload: bytes):
        """Decode a seam frame into arrays of the neighbour's fields.

        The receiver may not hold the shipped fields at all (an FD rank
        has no populations), so shapes come from the strip geometry:
        neighbouring blocks agree on every non-seam extent, making my
        ghost strip exactly the shape of the neighbour's send strip.
        Leading component dimensions (the ``(Q,)`` of a population
        array) come from the converter's ``wire_leading`` map.
        """
        strip_shape = tuple(
            len(range(*sl.indices(self.sub.padded_shape[d])))
            for d, sl in enumerate(op.recv_slices)
        )
        leading = getattr(conv, "wire_leading", {})
        arrays = {}
        offset = 0
        for name in conv.wire_fields:
            shape = tuple(leading.get(name, ())) + strip_shape
            count = int(np.prod(shape))
            nbytes = count * 8
            chunk = payload[offset : offset + nbytes]
            if len(chunk) != nbytes:
                raise ValueError(
                    f"seam strip for field {name!r} from rank "
                    f"{op.neighbor_rank} at step {self.sub.step} "
                    f"truncated: {len(chunk)}/{nbytes} bytes"
                )
            arrays[name] = np.frombuffer(chunk, dtype=np.float64).reshape(
                shape
            )
            offset += nbytes
        if offset != len(payload):
            raise ValueError(
                f"seam frame from rank {op.neighbor_rank} at step "
                f"{self.sub.step} has {len(payload) - offset} "
                f"unexpected trailing bytes"
            )
        return arrays

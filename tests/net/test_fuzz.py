"""Adversarial input handling: garbage on the wire must fail loudly,
never hang or corrupt."""

import functools
import json
import socket
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro._jsonl import LogDamaged
from repro.core import ExchangePlan
from repro.distrib import ProblemSpec
from repro.distrib.journal import Journal, read_journal
from repro.distrib.heartbeat import (
    RECORD_SIZE,
    SLOT_SIZE,
    decode_heartbeat,
    decode_partials,
    encode_heartbeat,
    encode_partials,
)
from repro.fluids.coupling import seam_wire_fields
from repro.net import ProtocolError, SocketExchanger, pack_frame, recv_frame
from repro.net.protocol import HEADER_SIZE, MSG_DATA
from repro.net.udp import UdpChannelSet, _HEADER, _MAGIC, _VERSION
from repro.net.portfile import PortRegistry
from repro.serve import STATES, JobHistory, JobRecord


class TestTcpFrameFuzz:
    @given(st.binary(min_size=HEADER_SIZE, max_size=HEADER_SIZE + 64))
    @settings(max_examples=40, deadline=None)
    def test_random_bytes_rejected_or_parsed(self, blob):
        """Arbitrary bytes either parse as a frame (if they happen to
        carry the magic and a consistent length) or raise ProtocolError
        — never an unhandled exception, never a hang."""
        a, b = socket.socketpair()
        try:
            a.sendall(blob)
            a.close()
            try:
                header, payload = recv_frame(b)
                # if it parsed, the magic must really have been there
                assert blob[:4] == b"SKRD"
                assert len(payload) == header.payload_len
            except ProtocolError:
                pass
        finally:
            b.close()

    @given(st.integers(0, 2**31 - 1), st.binary(max_size=256))
    @settings(max_examples=25, deadline=None)
    def test_valid_frames_always_roundtrip(self, sender, payload):
        a, b = socket.socketpair()
        try:
            a.sendall(pack_frame(MSG_DATA, sender, payload, step=1))
            header, got = recv_frame(b)
            assert header.sender == sender
            assert got == payload
        finally:
            a.close()
            b.close()


class TestUdpDatagramFuzz:
    def _channel(self, tmp_path):
        reg = PortRegistry(tmp_path / "p.txt")
        cs = UdpChannelSet(0, [1], reg)
        # open without a peer: register and bind only
        cs.generation = 0
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind(("127.0.0.1", 0))
        cs._sock = sock
        cs._addrs = {1: ("127.0.0.1", 1)}  # never actually sent to
        return cs

    @given(st.binary(max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_garbage_datagrams_raise_protocol_error(
        self, tmp_path_factory, blob
    ):
        cs = self._channel(tmp_path_factory.mktemp("udp"))
        try:
            if (
                len(blob) >= _HEADER.size
                and blob[:4] == _MAGIC
                and blob[4] == _VERSION
            ):
                return  # astronomically unlikely; not the case under test
            with pytest.raises(ProtocolError):
                cs._handle_packet(blob, ("127.0.0.1", 9))
        finally:
            cs._sock.close()

    def test_truncated_payload_detected(self, tmp_path):
        cs = self._channel(tmp_path)
        try:
            pkt = _HEADER.pack(
                _MAGIC, _VERSION, 1, 1, 0, 0, 0, 0, 0, 0, 1, 500
            ) + b"short"
            with pytest.raises(ProtocolError, match="truncated"):
                cs._handle_packet(pkt, ("127.0.0.1", 9))
        finally:
            cs._sock.close()

    def test_unknown_packet_type(self, tmp_path):
        cs = self._channel(tmp_path)
        try:
            pkt = _HEADER.pack(
                _MAGIC, _VERSION, 77, 1, 0, 0, 0, 0, 0, 0, 1, 0
            )
            with pytest.raises(ProtocolError, match="type"):
                cs._handle_packet(pkt, ("127.0.0.1", 9))
        finally:
            cs._sock.close()


class _OneFrame:
    """A channel set whose every receive delivers the frame under test."""

    payload = b""

    def send_data(self, *args, **kwargs) -> None:
        pass

    def recv_data(self, keys, timeout):
        return dict.fromkeys(keys, self.payload)


#: frame kind -> (method spec, receiving rank); the hybrid puts LB on
#: rank 0 and FD on rank 1
_HYBRID = {"default": "lb",
           "regions": [{"box": [[8, 0], [16, 12]], "method": "fd"}]}
_KINDS = {
    "fd": ("fd", 0),
    "lb": ("lb", 0),
    "seam-fd-to-lb": (_HYBRID, 0),
    "seam-lb-to-fd": (_HYBRID, 1),
}


@functools.cache
def _strip_case(kind):
    """One rank's exchanger over a one-face plan, the exchange that
    receives its frame, the exact frame and the strips it packs: the
    neighbour's send strips of a 16x12 channel one step in, plus 1/8 —
    ``rho, u, v`` for FD, the populations for LB, each side's own
    representation on a seam."""
    method, rank = _KINDS[kind]
    sim = ProblemSpec(
        method=method, grid_shape=(16, 12), blocks=(2, 1),
        periodic=(False, False),
        params={"nu": 0.1, "gravity": (1e-5, 0.0), "filter_eps": 0.0},
        geometry={"kind": "channel"},
    ).build_simulation()
    sim.step(1)
    op = next(op for op in sim.exchanger.plans[rank].ops
              if op.kind == "recv")
    convs = {src: c for (dst, src), c in sim.exchanger.converters.items()
             if dst == rank}
    ex = SocketExchanger(
        sim.subs[rank], ExchangePlan(rank, (op,), ((op,),)), _OneFrame(),
        converters=convs, wire_fields=seam_wire_fields(sim.methods[rank]),
    )
    if convs:
        names = convs[op.neighbor_rank].wire_fields
        run = ex.exchange_seam
    else:
        names = ("f",) if kind == "lb" else ("rho", "u", "v")
        run = functools.partial(ex.exchange, names, 0)
    # offset, so a filled ghost byte differs from the one it replaces
    peer = sim.subs[op.neighbor_rank].fields
    strips = {n: peer[n][(...,) + op.src_slices] + 0.125 for n in names}
    frame = b"".join(a.tobytes() for a in strips.values())
    return ex, op, run, frame, strips


class TestStripDecoderFuzz:
    """A received strip frame is decoded whole before any ghost byte is
    written: a frame of the wrong length changes nothing."""

    @pytest.mark.parametrize("kind", sorted(_KINDS))
    @given(cut=st.integers(1, 8192), tail=st.binary(max_size=64))
    @example(cut=1, tail=b"")  # one byte short: truncated in its last field
    @settings(max_examples=40, deadline=None)
    def test_wrong_length_raises_and_writes_nothing(self, kind, cut, tail):
        """``cut`` bytes short of the exact frame, or ``tail`` past it."""
        ex, op, run, frame, _ = _strip_case(kind)
        ex.channels.payload = frame + tail if tail else frame[:-cut]
        sub = ex.sub
        before = {k: v.copy() for k, v in sub.fields.items()}
        try:
            with pytest.raises(
                ValueError,
                match=rf"rank {op.neighbor_rank} at step {sub.step}\b",
            ):
                run()
            for k, v in sub.fields.items():
                assert v.tobytes() == before[k].tobytes(), k
        finally:
            for k, v in before.items():
                sub.fields[k][...] = v

    @pytest.mark.parametrize("kind", sorted(_KINDS))
    def test_exact_length_fills_only_its_strip(self, kind):
        ex, op, run, frame, strips = _strip_case(kind)
        ex.channels.payload = frame
        sub = ex.sub
        before = {k: v.copy() for k, v in sub.fields.items()}
        ghost = np.zeros(sub.padded_shape, dtype=bool)
        ghost[op.recv_slices] = True
        try:
            run()
            for k, v in sub.fields.items():
                assert v[..., ~ghost].tobytes() == \
                    before[k][..., ~ghost].tobytes(), k
            if not ex.converters:
                for k, strip in strips.items():
                    np.testing.assert_array_equal(
                        sub.fields[k][(...,) + op.recv_slices], strip)
            assert any(v.tobytes() != before[k].tobytes()
                       for k, v in sub.fields.items())
        finally:
            for k, v in before.items():
                sub.fields[k][...] = v


def _damaged(record: bytes, cut: int, bit: int) -> tuple[bytes, bytes]:
    """``record`` cut to ``cut`` bytes, and with bit ``bit`` flipped."""
    flipped = bytearray(record)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return record[:cut], bytes(flipped)


class TestHeartbeatRecordFuzz:
    """A heartbeat record read from its memory map, torn or damaged,
    decodes to the values that were encoded or to ``None``."""

    @given(st.binary(min_size=RECORD_SIZE, max_size=RECORD_SIZE))
    @example(bytes(RECORD_SIZE))  # a freshly resized file
    @settings(max_examples=60, deadline=None)
    def test_any_record_sized_bytes(self, blob):
        got = decode_heartbeat(blob)
        assert got is None or encode_heartbeat(*got) == blob

    @given(step=st.integers(0, 10**11), wall_ms=st.integers(0, 10**16),
           comp_ns=st.integers(0, 10**11), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_truncated_or_flipped_record(self, step, wall_ms, comp_ns,
                                         data):
        record = encode_heartbeat(step, wall_ms / 1e3, comp_ns / 1e9)
        want = decode_heartbeat(record)
        assert want is not None and want[0] == step
        cut, flipped = _damaged(
            record,
            data.draw(st.integers(0, RECORD_SIZE - 1)),
            data.draw(st.integers(0, 8 * RECORD_SIZE - 1)),
        )
        assert decode_heartbeat(cut) is None
        # a flipped case bit of a CRC hex digit still spells the CRC
        assert decode_heartbeat(flipped) in (None, want)


class TestPartialsSlotFuzz:
    """A diagnostics slot read while its rank rewrites it, or damaged,
    decodes to the encoded step and partials, bit for bit, or to
    ``None``."""

    @given(st.binary(min_size=SLOT_SIZE, max_size=SLOT_SIZE))
    @example(bytes(SLOT_SIZE))  # an unwritten slot
    @settings(max_examples=60, deadline=None)
    def test_any_slot_sized_bytes(self, blob):
        got = decode_partials(blob)
        assert got is None or encode_partials(*got) == blob
        if not any(blob):
            assert got is None

    @given(step=st.integers(-2**63, 2**63 - 1),
           partials=st.lists(st.floats(), min_size=4, max_size=4),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_truncated_or_flipped_slot(self, step, partials, data):
        slot = encode_partials(step, partials)
        got = decode_partials(slot)
        assert got[0] == step
        assert np.array(got[1]).tobytes() == np.array(partials).tobytes()
        cut, flipped = _damaged(
            slot,
            data.draw(st.integers(0, SLOT_SIZE - 1)),
            data.draw(st.integers(0, 8 * SLOT_SIZE - 1)),
        )
        assert decode_partials(cut) is None
        assert decode_partials(flipped) is None


def _history_events() -> list[tuple[str, JobRecord]]:
    """A short job history: two jobs through submit, assign and finish,
    one of them answered from the cache."""
    a = JobRecord(job_id="j000000-aaaaaaaa", fingerprint="a" * 64,
                  seq=0, steps=30, submitted=1.5)
    b = JobRecord(job_id="j000001-bbbbbbbb", fingerprint="b" * 64,
                  seq=1, priority=2, seed=7, submitted=2.0)
    events = [("submitted", JobRecord(**a.to_dict())),
              ("submitted", JobRecord(**b.to_dict()))]
    for rec, worker in ((a, 0), (b, 1)):
        rec.advance("running")
        rec.worker = worker
        events.append(("assigned", JobRecord(**rec.to_dict())))
    a.advance("done")
    a.elapsed = 0.25
    b.error = "worker 1 died"
    b.advance("failed")
    events += [("done", a), ("failed", b)]
    hit = JobRecord(job_id="j000002-aaaaaaaa", fingerprint="a" * 64,
                    seq=2, cached=True, state="done")
    events.append(("cached", hit))
    return events


def _replayed(raw: bytes) -> dict[str, JobRecord]:
    with tempfile.TemporaryDirectory() as tmp:
        hist = JobHistory.for_dir(tmp)
        hist.path.write_bytes(raw)
        return hist.replay()


@functools.cache
def _written_log() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        hist = JobHistory.for_dir(tmp)
        for event, rec in _history_events():
            hist.append(event, rec)
        return hist.path.read_bytes()


class TestJobHistoryFuzz:
    """``jobs.jsonl`` is the job table's and the result cache's only
    durable record: replay turns any bytes into valid records or a
    ``LogDamaged`` naming the line — never another exception.  (With
    no per-line checksum, a flip inside a string value still passes.)"""

    @given(st.one_of(
        st.binary(max_size=512),
        st.tuples(st.integers(0, 4096), st.binary(min_size=1, max_size=8)),
    ))
    @example(b"[" * 5000 + b"\n\n")  # nested past the parser's depth
    @example(json.dumps({"event": "submitted", "job": {
        **JobRecord("j0", "f" * 64).to_dict(), "state": "bogus"}}).encode())
    @example(json.dumps({"event": "submitted", "job": {
        **JobRecord("j0", "f" * 64).to_dict(), "seq": "x"}}).encode())
    @example((0, b"x"))
    @example(json.dumps({"event": "submitted", "job": {
        **JobRecord("j0", "f" * 64).to_dict(),
        "job_id": "../outside"}}).encode())
    @settings(max_examples=80, deadline=None)
    def test_any_bytes_replay_or_raise_log_damaged(self, blob):
        """Random bytes, or a written log with a few bytes overwritten."""
        if isinstance(blob, tuple):
            log = bytearray(_written_log())
            at, junk = blob
            at %= len(log)
            log[at:at + len(junk)] = junk
            blob = bytes(log)
        try:
            table = _replayed(blob)
        except LogDamaged:
            return
        for job_id, rec in table.items():
            assert rec.job_id == job_id and rec.state in STATES
            assert job_id not in ("", ".", "..") and "/" not in job_id
            assert JobRecord.from_dict(rec.to_dict()) == rec

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_cut_log_replays_a_prefix(self, data):
        """A log cut at any byte (a crash mid-append) replays to the
        table of a prefix of the written events."""
        raw = _written_log()
        cut = data.draw(st.integers(0, len(raw)))
        got = {j: r.to_dict() for j, r in _replayed(raw[:cut]).items()}
        prefixes, table = [{}], {}
        for _, rec in _history_events():
            table = {**table, rec.job_id: rec.to_dict()}
            prefixes.append(table)
        # every whole line, and the cut one only if it came out whole
        whole = raw[:cut].count(b"\n")
        assert got in prefixes[whole:whole + 2]


#: ``(kind, msg, step)`` — one rank's short life: a fault, the
#: recovery, a fatal error
_JOURNAL = (
    ("note", "channels open, generation 0", 0),
    ("chaos:kill", "chaos: firing kill_r0_s7_a-1", 7),
    ("recover:restart", "recovered from ckpt000000005_rank0000.npz", 5),
    ("fatal", "Traceback (most recent call last):\n  ...\n", 9),
)


def _journal_bytes(entries, workdir) -> bytes:
    """Append ``entries`` to rank 0's journal; its bytes."""
    journal = Journal(workdir, 0)
    for kind, msg, step in entries:
        journal.write(kind, msg, step)
    return journal.path.read_bytes()


@functools.cache
def _written_journal() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        return _journal_bytes(_JOURNAL, tmp)


def _journal_read(raw: bytes) -> list[dict]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Journal(tmp, 0).path
        path.parent.mkdir()
        path.write_bytes(raw)
        return read_journal(tmp)


class TestJournalFuzz:
    """The run journal is what a failed run leaves behind to read:
    any bytes read as well-formed records or raise ``LogDamaged``
    naming the line, and a crash mid-append loses only that line."""

    @given(st.one_of(
        st.binary(max_size=512),
        st.tuples(st.integers(0, 4096), st.binary(min_size=1, max_size=8)),
    ))
    @example(b"[" * 5000 + b"\n\n")  # nested past the parser's depth
    @example(b'{"t": 1, "who": 0, "step": 0, "kind": "note", "msg": ""}\n'
             b'{"t": 1, "who": 0, "step": 0, "kind": "note"}\n{}')
    @example(b'{"t": 1, "who": 0, "step": true, "kind": "", "msg": ""}\n')
    @example((0, b"\xff"))
    @settings(max_examples=80, deadline=None)
    def test_any_bytes_read_or_raise_log_damaged(self, blob):
        """Random bytes, or a written journal with a few bytes
        overwritten."""
        if isinstance(blob, tuple):
            raw = bytearray(_written_journal())
            at, junk = blob
            at %= len(raw)
            raw[at:at + len(junk)] = junk
            blob = bytes(raw)
        try:
            records = _journal_read(blob)
        except LogDamaged:
            return
        for rec in records:
            assert set(rec) == {"t", "who", "step", "kind", "msg"}
            assert isinstance(rec["step"], int)
            assert not isinstance(rec["step"], bool)
            assert isinstance(rec["kind"], str)
            assert isinstance(rec["msg"], str)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_cut_journal_reads_a_prefix(self, data):
        """A journal cut at any byte (a writer killed mid-append) reads
        as a prefix of its records: every whole line, and the cut one
        only if it came out whole."""
        raw = _written_journal()
        cut = data.draw(st.integers(0, len(raw)))
        written = [json.loads(line) for line in raw.splitlines()]
        whole = raw[:cut].count(b"\n")
        got = _journal_read(raw[:cut])
        assert got in (written[:whole], written[:whole + 1])

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_next_incarnation_keeps_every_complete_record(self, data):
        """A rank killed mid-line, then restarted: its next incarnation
        cuts the torn line off before appending, so the journal reads
        as every complete record of both incarnations."""
        first = _written_journal()
        cut = data.draw(st.integers(0, len(first)))
        whole = first[:cut].count(b"\n")
        with tempfile.TemporaryDirectory() as tmp:
            path = Journal(tmp, 0).path
            path.parent.mkdir()
            path.write_bytes(first[:cut])
            _journal_bytes(_JOURNAL[:2], tmp)
            got = read_journal(tmp)
        assert [(r["kind"], r["msg"], r["step"]) for r in got] == list(
            _JOURNAL[:whole] + _JOURNAL[:2]
        )

"""Regression: injected ``conn_break`` faults must *do* something on UDP.

The channel fault injector's ``conn_break`` used to be a silent no-op on
the datagram transport — ``send_data`` discarded the breaks list, so a
chaos plan that "broke" a UDP link exercised nothing.  The transport now
honours the fault as the two costs a broken link imposes on a
connectionless protocol: the peer's resolved address is dropped (the
next send must re-handshake through the port registry) and a burst of
ACKs is discarded (the retransmit timer must re-earn delivery, which the
receiver's duplicate suppression absorbs bit-exactly).
"""

import threading

import pytest

from repro.chaos.inject import ChannelFaultInjector, FiredMarkers
from repro.chaos.plan import Fault
from repro.net import PortRegistry, UdpChannelSet


def _open_pair(tmp_path, timeout=10.0, **kw):
    reg = PortRegistry(tmp_path / "udports.txt")
    sets = {r: UdpChannelSet(r, [1 - r], reg, **kw) for r in (0, 1)}
    errors = []

    def opener(cs):
        try:
            cs.open(0, timeout=timeout)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [
        threading.Thread(target=opener, args=(cs,)) for cs in sets.values()
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    return sets


def _injector(tmp_path, faults):
    return ChannelFaultInjector(faults, FiredMarkers(tmp_path / "markers"))


class TestUdpConnBreak:
    def test_break_forces_rehandshake_and_retransmit(self, tmp_path):
        sets = _open_pair(tmp_path, rto=0.02)
        sender, receiver = sets[0], sets[1]
        sender.injector = _injector(
            tmp_path, [Fault(kind="conn_break", rank=0, step=0)]
        )

        payloads = {s: bytes([65 + s]) * 2000 for s in range(3)}
        for s, payload in payloads.items():
            sender.send_data(1, payload, step=s, phase=0, axis=0, side=1)

        # the break fired: link forgotten then re-resolved, ACK burst
        # pending on the sender side
        assert sender.conn_breaks == 1
        assert sender.has_link(1), "the re-handshake did not happen"

        got = receiver.recv_data(
            {(s, 0, 0, 1, 0) for s in payloads}, timeout=10.0
        )
        for s, payload in payloads.items():
            assert got[(s, 0, 0, 1, 0)] == payload  # bit-exact delivery

        # keep servicing the receiver so the sender's retransmissions
        # are re-ACKed while close() flushes the unacked window
        stop = threading.Event()
        server = threading.Thread(
            target=lambda: [receiver._pump(0.01) or None
                            for _ in iter(lambda: stop.is_set(), True)]
        )
        server.start()
        try:
            sender.close(flush_timeout=10.0)
        finally:
            stop.set()
            server.join()
        receiver.close()

        # the eaten ACK burst really cost retransmissions, and the
        # receiver's dedup absorbed the replays
        assert sender.retransmissions >= 1
        assert receiver.duplicates_dropped >= 1
        assert not sender._unacked, "sender never re-earned delivery"

    def test_no_injector_no_breaks(self, tmp_path):
        sets = _open_pair(tmp_path)
        sets[0].send_data(1, b"plain", step=0, phase=0, axis=0, side=1)
        got = sets[1].recv_data({(0, 0, 0, 1, 0)}, timeout=5.0)
        assert got[(0, 0, 0, 1, 0)] == b"plain"
        assert sets[0].conn_breaks == 0
        for cs in sets.values():
            cs.close()

    def test_break_on_unresolved_peer_times_out_cleanly(self, tmp_path):
        """A broken link to a peer that never re-registers is a clean
        registry timeout, not a KeyError, and it waits out the timeout
        the channels were opened with."""
        sets = _open_pair(tmp_path, timeout=2.0, rto=0.02)
        sender = sets[0]
        sender.injector = _injector(
            tmp_path, [Fault(kind="conn_break", rank=0, step=0)]
        )
        # wipe the registry so the re-handshake cannot succeed
        sender.registry.path.write_text("")
        with pytest.raises(TimeoutError):
            sender.send_data(1, b"x", step=0, phase=0, axis=0, side=1)
        for cs in sets.values():
            cs.close()

"""App. D: the UDP/datagram transport with acknowledgment/retransmit."""

import threading

import numpy as np
import pytest

from repro.core import Decomposition, LocalExchanger, build_plan, make_subregions
from repro.net import PortRegistry, SocketExchanger, UdpChannelSet


def _open_mesh(tmp_path, neighbor_map, **kw):
    reg = PortRegistry(tmp_path / "udports.txt")
    sets = {
        r: UdpChannelSet(r, nbrs, reg, **kw)
        for r, nbrs in neighbor_map.items()
    }
    errors = []

    def opener(cs):
        try:
            cs.open(0, timeout=10.0)
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


class TestBasics:
    def test_pair_roundtrip(self, tmp_path):
        sets = _open_mesh(tmp_path, {0: [1], 1: [0]})
        sets[0].send_data(1, b"datagram!", step=3, phase=0, axis=0, side=1)
        got = sets[1].recv_data({(3, 0, 0, 1, 0)}, timeout=5.0)
        assert got[(3, 0, 0, 1, 0)] == b"datagram!"
        for cs in sets.values():
            cs.close()

    def test_fragmentation(self, tmp_path):
        """Strips larger than a datagram travel as reassembled fragments."""
        sets = _open_mesh(tmp_path, {0: [1], 1: [0]})
        payload = np.arange(20_000, dtype=np.float64).tobytes()  # 160 kB
        sets[0].send_data(1, payload, step=0, phase=0, axis=0, side=1)
        got = sets[1].recv_data({(0, 0, 0, 1, 0)}, timeout=10.0)
        assert got[(0, 0, 0, 1, 0)] == payload
        assert sets[0].datagrams_sent >= 5  # it really fragmented
        for cs in sets.values():
            cs.close()

    def test_out_of_order_buffering(self, tmp_path):
        sets = _open_mesh(tmp_path, {0: [1], 1: [0]})
        sets[0].send_data(1, b"s0", step=0, phase=0, axis=0, side=1)
        sets[0].send_data(1, b"s1", step=1, phase=0, axis=0, side=1)
        got1 = sets[1].recv_data({(1, 0, 0, 1, 0)}, timeout=5.0)
        assert got1[(1, 0, 0, 1, 0)] == b"s1"
        got0 = sets[1].recv_data({(0, 0, 0, 1, 0)}, timeout=5.0)
        assert got0[(0, 0, 0, 1, 0)] == b"s0"
        for cs in sets.values():
            cs.close()

    def test_self_neighbor_rejected(self, tmp_path):
        reg = PortRegistry(tmp_path / "p.txt")
        with pytest.raises(ValueError):
            UdpChannelSet(0, [0, 1], reg)

    def test_recv_timeout(self, tmp_path):
        sets = _open_mesh(tmp_path, {0: [1], 1: [0]})
        with pytest.raises(TimeoutError):
            sets[0].recv_data({(9, 0, 0, 1, 1)}, timeout=0.2)
        for cs in sets.values():
            cs.close()


def _serve(channel, stop):
    """Service a channel's socket + retransmit timers in a thread.

    Retransmission runs inside ``recv_data``/``close`` (single-threaded,
    select-driven, as App. D era code would be), so a sender that never
    enters a receive must be serviced explicitly; in the real exchange
    pattern every send is followed by a receive in the same phase.
    """
    while not stop.is_set():
        channel._pump(0.01)


class TestReliability:
    """The App. D 'considerable effort': delivery over a lossy wire."""

    def test_delivery_under_heavy_loss(self, tmp_path):
        sets = _open_mesh(tmp_path, {0: [1], 1: [0]},
                          rto=0.02, loss_rate=0.3, loss_seed=1)
        payload = np.arange(5000, dtype=np.float64).tobytes()
        for step in range(5):
            sets[0].send_data(1, payload, step=step, phase=0, axis=0,
                              side=1)
        stop = threading.Event()
        server = threading.Thread(target=_serve, args=(sets[0], stop))
        server.start()
        try:
            got = {}
            for step in range(5):
                got.update(
                    sets[1].recv_data({(step, 0, 0, 1, 0)}, timeout=30.0)
                )
        finally:
            stop.set()
            server.join()
        for step in range(5):
            assert got[(step, 0, 0, 1, 0)] == payload
        # losses actually happened and retransmission repaired them
        lost = sets[0].datagrams_lost + sets[1].datagrams_lost
        assert lost > 0
        assert sets[0].retransmissions > 0
        # the receiver first: its close announcement ends the sender's
        # wait for ACKs the loss ate after delivery
        for cs in reversed(sets.values()):
            cs.close()

    def test_duplicates_suppressed(self, tmp_path):
        """Lost ACKs cause re-sends of delivered data; the receiver must
        drop the duplicates."""
        sets = _open_mesh(tmp_path, {0: [1], 1: [0]},
                          rto=0.01, loss_rate=0.4, loss_seed=3)
        sets[0].send_data(1, b"once only", step=0, phase=0, axis=0, side=1)
        stop = threading.Event()
        server = threading.Thread(target=_serve, args=(sets[0], stop))
        server.start()
        try:
            got = sets[1].recv_data({(0, 0, 0, 1, 0)}, timeout=30.0)
        finally:
            stop.set()
            server.join()
        assert got[(0, 0, 0, 1, 0)] == b"once only"
        # let the sender finish retransmitting until fully acked, with
        # the receiver re-ACKing duplicates
        stop2 = threading.Event()
        server2 = threading.Thread(target=_serve, args=(sets[1], stop2))
        server2.start()
        try:
            sets[0].close(flush_timeout=30.0)
        finally:
            stop2.set()
            server2.join()
        assert not sets[0]._unacked
        assert sets[1].duplicates_dropped >= 0  # counter exists and sane
        sets[1].close()

    def test_close_flushes_unacked(self, tmp_path):
        sets = _open_mesh(tmp_path, {0: [1], 1: [0]}, rto=0.01,
                          loss_rate=0.3, loss_seed=5)
        sets[0].send_data(1, b"flush me", step=0, phase=0, axis=0, side=1)

        # receiver services its socket in a thread while sender flushes
        stop = threading.Event()

        def serve():
            while not stop.is_set():
                sets[1]._pump(0.01)

        t = threading.Thread(target=serve)
        t.start()
        try:
            sets[0].close(flush_timeout=20.0)
            assert not sets[0]._unacked
        finally:
            stop.set()
            t.join()
        assert sets[1].recv_data({(0, 0, 0, 1, 0)}, timeout=1.0)
        sets[1].close()


class TestCloseAnnouncement:
    """A closed peer reads nothing more, so its close ends the wait for
    ACKs it can no longer send; a live peer is retransmitted to."""

    def _delivered_but_unacked(self, tmp_path):
        sets = _open_mesh(tmp_path, {0: [1], 1: [0]}, rto=0.01)
        sets[0]._ack_ignore = 10**6  # every ACK to the sender is lost
        sets[0].send_data(1, b"last one", step=0, phase=0, axis=0, side=1)
        assert sets[1].recv_data({(0, 0, 0, 1, 0)}, timeout=5.0)
        return sets

    def test_peer_close_ends_the_flush(self, tmp_path):
        import time

        sets = self._delivered_but_unacked(tmp_path)
        sets[1].close()
        t0 = time.monotonic()
        sets[0].close(flush_timeout=10.0)
        assert time.monotonic() - t0 < 2.0

    def test_live_peer_is_retransmitted_to(self, tmp_path):
        import time

        sets = self._delivered_but_unacked(tmp_path)
        before = sets[0].retransmissions
        t0 = time.monotonic()
        sets[0].close(flush_timeout=0.3)
        assert time.monotonic() - t0 >= 0.3
        assert sets[0].retransmissions > before
        sets[1].close()

    def test_announcement_of_an_older_link_is_ignored(self, tmp_path):
        sets = self._delivered_but_unacked(tmp_path)
        sets[1].generation = -1  # an announcement from a stale incarnation
        sets[1].close()
        sets[0]._pump(0.2)
        assert sets[0]._unacked
        sets[0].close(flush_timeout=0.0)


class TestExchangerIntegration:
    def test_udp_exchange_matches_local(self, tmp_path):
        """The SocketExchanger drives UDP channels identically."""
        shape = (20, 16)
        rng = np.random.default_rng(2)
        a = rng.random(shape)
        d = Decomposition(shape, (2, 2))
        pad = 3
        subs_udp = make_subregions(d, pad, {"a": a})
        subs_loc = make_subregions(d, pad, {"a": a})
        for group in (subs_udp, subs_loc):
            for sub in group:
                mask = np.ones(sub.padded_shape, dtype=bool)
                mask[sub.interior] = False
                sub.fields["a"][mask] = -1.0
        LocalExchanger(d, subs_loc).exchange(["a"])

        reg = PortRegistry(tmp_path / "p.txt")
        plans = {s.block.rank: build_plan(d, s.block.rank, pad)
                 for s in subs_udp}
        errors = []

        def run(sub):
            rank = sub.block.rank
            nbrs = {
                op.neighbor_rank for op in plans[rank].recv_ops()
            } - {rank}
            cs = UdpChannelSet(rank, nbrs, reg, loss_rate=0.15,
                               loss_seed=11, rto=0.02)
            try:
                cs.open(0, timeout=10.0)
                SocketExchanger(sub, plans[rank], cs).exchange(
                    ["a"], phase=0
                )
                cs.close(flush_timeout=10.0)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(s,))
                   for s in subs_udp]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        for su, sl in zip(subs_udp, subs_loc):
            np.testing.assert_array_equal(su.fields["a"], sl.fields["a"])

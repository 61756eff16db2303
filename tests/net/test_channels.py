"""TCP channel management: handshake, FCFS receives, buffering."""

import threading

import pytest

from repro.net import ChannelSet, PortRegistry


def _open_mesh(tmp_path, neighbor_map, generation=0):
    """Open a mesh of ChannelSets concurrently (one thread per rank)."""
    reg = PortRegistry(tmp_path / "ports.txt")
    sets = {
        r: ChannelSet(r, nbrs, reg) for r, nbrs in neighbor_map.items()
    }
    errors = []

    def opener(cs):
        try:
            cs.open(generation, timeout=10.0)
        except Exception as exc:  # pragma: no cover - surfaced below
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


class TestHandshake:
    def test_pair(self, tmp_path):
        sets = _open_mesh(tmp_path, {0: [1], 1: [0]})
        sets[0].send_data(1, b"hello", step=0, phase=0, axis=0, side=1)
        got = sets[1].recv_data({(0, 0, 0, 1, 0)}, timeout=5.0)
        assert got[(0, 0, 0, 1, 0)] == b"hello"
        for cs in sets.values():
            cs.close()

    def test_chain_of_three(self, tmp_path):
        sets = _open_mesh(tmp_path, {0: [1], 1: [0, 2], 2: [1]})
        assert set(sets[1]._socks) == {0, 2}
        for cs in sets.values():
            cs.close()

    def test_self_neighbor_rejected(self, tmp_path):
        reg = PortRegistry(tmp_path / "ports.txt")
        with pytest.raises(ValueError):
            ChannelSet(0, [0, 1], reg)

    def test_reopen_next_generation(self, tmp_path):
        sets = _open_mesh(tmp_path, {0: [1], 1: [0]})
        for cs in sets.values():
            cs.close()
        # re-open under generation 1 (what happens after a migration)
        errors = []

        def reopen(cs):
            try:
                cs.open(1, timeout=10.0)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=reopen, args=(cs,))
            for cs in sets.values()
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        sets[1].send_data(0, b"again", step=5, phase=0, axis=0, side=-1)
        got = sets[0].recv_data({(5, 0, 0, -1, 1)}, timeout=5.0)
        assert got[(5, 0, 0, -1, 1)] == b"again"
        for cs in sets.values():
            cs.close()


class TestReceiveSemantics:
    def test_out_of_order_buffering(self, tmp_path):
        """Frames from a neighbour running ahead (App. A) are buffered
        until the receiver needs them."""
        sets = _open_mesh(tmp_path, {0: [1], 1: [0]})
        # rank 0 sends two steps' worth before rank 1 reads anything
        sets[0].send_data(1, b"s0", step=0, phase=0, axis=0, side=1)
        sets[0].send_data(1, b"s1", step=1, phase=0, axis=0, side=1)
        # rank 1 asks for step 1 *first*: step 0 frame gets buffered
        got1 = sets[1].recv_data({(1, 0, 0, 1, 0)}, timeout=5.0)
        assert got1[(1, 0, 0, 1, 0)] == b"s1"
        got0 = sets[1].recv_data({(0, 0, 0, 1, 0)}, timeout=5.0)
        assert got0[(0, 0, 0, 1, 0)] == b"s0"
        for cs in sets.values():
            cs.close()

    def test_fcfs_multiple_senders(self, tmp_path):
        sets = _open_mesh(tmp_path, {0: [1, 2], 1: [0], 2: [0]})
        sets[1].send_data(0, b"from1", step=0, phase=0, axis=0, side=-1)
        sets[2].send_data(0, b"from2", step=0, phase=0, axis=0, side=1)
        keys = {(0, 0, 0, -1, 1), (0, 0, 0, 1, 2)}
        got = sets[0].recv_data(keys, timeout=5.0)
        assert got[(0, 0, 0, -1, 1)] == b"from1"
        assert got[(0, 0, 0, 1, 2)] == b"from2"
        for cs in sets.values():
            cs.close()

    def test_recv_timeout(self, tmp_path):
        sets = _open_mesh(tmp_path, {0: [1], 1: [0]})
        with pytest.raises(TimeoutError):
            sets[0].recv_data({(9, 0, 0, 1, 1)}, timeout=0.2)
        for cs in sets.values():
            cs.close()

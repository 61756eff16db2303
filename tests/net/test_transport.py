"""SocketExchanger: ghost exchange over real TCP equals LocalExchanger."""

import threading

import numpy as np
import pytest

from repro.core import Decomposition, LocalExchanger, build_plan, make_subregions
from repro.net import ChannelSet, PortRegistry, SocketExchanger


def _socket_exchange(tmp_path, decomp, subs, field_names, pad):
    """Run one socket exchange across threads (one per subregion)."""
    reg = PortRegistry(tmp_path / "ports.txt")
    plans = {s.block.rank: build_plan(decomp, s.block.rank, pad)
             for s in subs}
    sets = {}
    for s in subs:
        nbrs = {op.neighbor_rank for op in plans[s.block.rank].recv_ops()}
        nbrs -= {s.block.rank}
        sets[s.block.rank] = ChannelSet(s.block.rank, nbrs, reg)
    errors = []

    def run(sub):
        rank = sub.block.rank
        cs = sets[rank]
        try:
            cs.open(0, timeout=10.0)
            ex = SocketExchanger(sub, plans[rank], cs)
            ex.exchange(field_names, phase=0)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)
        finally:
            cs.close()

    threads = [threading.Thread(target=run, args=(s,)) for s in subs]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors


@pytest.mark.parametrize(
    "blocks,periodic",
    [
        ((2, 1), (False, False)),
        ((2, 2), (False, False)),
        ((2, 2), (True, True)),
        ((3, 2), (True, False)),
    ],
    ids=["2x1", "2x2", "2x2per", "3x2mixed"],
)
def test_socket_matches_local(tmp_path, blocks, periodic):
    shape = (20, 16)
    rng = np.random.default_rng(5)
    a = rng.random(shape)
    b = rng.random((4,) + shape)  # component field, like LB populations
    d = Decomposition(shape, blocks, periodic=periodic)
    pad = 3

    subs_sock = make_subregions(d, pad, {"a": a, "b": b})
    subs_local = make_subregions(d, pad, {"a": a, "b": b})
    for group in (subs_sock, subs_local):
        for sub in group:
            mask = np.ones(sub.padded_shape, dtype=bool)
            mask[sub.interior] = False
            sub.fields["a"][mask] = -7.0
            sub.fields["b"][:, mask] = -7.0

    LocalExchanger(d, subs_local).exchange(["a", "b"])
    _socket_exchange(tmp_path, d, subs_sock, ["a", "b"], pad)

    for s_sock, s_loc in zip(subs_sock, subs_local):
        np.testing.assert_array_equal(s_sock.fields["a"], s_loc.fields["a"])
        np.testing.assert_array_equal(s_sock.fields["b"], s_loc.fields["b"])


def test_socket_extended_sweep_with_inactive_block(tmp_path):
    """Corner routing around an inactive block over real sockets."""
    shape = (16, 16)
    solid = np.zeros(shape, dtype=bool)
    solid[:8, :8] = True
    d = Decomposition(shape, (2, 2), solid=solid)
    rng = np.random.default_rng(6)
    a = rng.random(shape)
    pad = 2

    subs_sock = make_subregions(d, pad, {"a": a}, solid)
    subs_local = make_subregions(d, pad, {"a": a}, solid)
    for group in (subs_sock, subs_local):
        for sub in group:
            mask = np.ones(sub.padded_shape, dtype=bool)
            mask[sub.interior] = False
            # leave hold ghosts: scramble only exchanged regions by
            # scrambling everything, then the exchange must restore all
            # recv/replicate regions identically in both transports
            sub.fields["a"][mask] = -3.0

    LocalExchanger(d, subs_local).exchange(["a"])
    _socket_exchange(tmp_path, d, subs_sock, ["a"], pad)
    for s_sock, s_loc in zip(subs_sock, subs_local):
        np.testing.assert_array_equal(s_sock.fields["a"], s_loc.fields["a"])


def test_traffic_accounting(tmp_path):
    """Message and byte counters reflect the §6 pattern (one exchange =
    one message per neighbour per axis pass)."""
    shape = (20, 16)
    d = Decomposition(shape, (2, 1))
    a = np.random.default_rng(0).random(shape)
    subs = make_subregions(d, 3, {"a": a})
    reg = PortRegistry(tmp_path / "ports.txt")
    plans = {s.block.rank: build_plan(d, s.block.rank, 3) for s in subs}
    counters = {}
    errors = []

    def run(sub):
        rank = sub.block.rank
        cs = ChannelSet(rank, {1 - rank}, reg)
        try:
            cs.open(0, timeout=10.0)
            ex = SocketExchanger(sub, plans[rank], cs)
            ex.exchange(["a"], phase=0)
            counters[rank] = (ex.messages_sent, ex.bytes_sent)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)
        finally:
            cs.close()

    threads = [threading.Thread(target=run, args=(s,)) for s in subs]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    # one neighbour, on one axis: exactly 1 message per exchange
    assert counters[0][0] == 1
    # strip: 3 wide x (16 + 2*3) across x 8 bytes
    assert counters[0][1] == 3 * 22 * 8

"""SocketExchanger: ghost exchange over real sockets equals LocalExchanger."""

import os
import threading

import numpy as np
import pytest

from repro.core import Decomposition, LocalExchanger, build_plan, make_subregions
from repro.distrib import ProblemSpec
from repro.fluids.coupling import seam_wire_fields
from repro.net import ChannelSet, PortRegistry, SocketExchanger, UdpChannelSet

UDP_LOSS = float(os.environ.get("REPRO_UDP_LOSS", "0.05"))

#: channel set per transport, ``(rank, neighbours, registry) -> set``
CHANNELS = {
    "tcp": ChannelSet,
    "udp": lambda rank, nbrs, reg: UdpChannelSet(
        rank, nbrs, reg, rto=0.02, loss_rate=UDP_LOSS, loss_seed=11),
}


def _socket_exchange(tmp_path, decomp, subs, field_names, pad,
                     channels=ChannelSet, exchange=None):
    """Run one socket exchange across threads (one per subregion).

    ``exchange(sub, plan, channel_set)`` does the exchange; by default
    a plain one of ``field_names``.
    """
    if exchange is None:
        def exchange(sub, plan, cs):
            SocketExchanger(sub, plan, cs).exchange(field_names, phase=0)
    reg = PortRegistry(tmp_path / "ports.txt")
    plans = {s.block.rank: build_plan(decomp, s.block.rank, pad)
             for s in subs}
    sets = {}
    for s in subs:
        nbrs = {op.neighbor_rank for op in plans[s.block.rank].recv_ops()}
        nbrs -= {s.block.rank}
        sets[s.block.rank] = channels(s.block.rank, nbrs, reg)
    errors = []

    def run(sub):
        rank = sub.block.rank
        cs = sets[rank]
        try:
            cs.open(0, timeout=10.0)
            exchange(sub, plans[rank], cs)
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


def _field_case(blocks, periodic):
    """Two copies of a two-field state with scrambled ghosts: the local
    exchange, and the socket exchange of the same fields."""
    shape = (20, 16)
    rng = np.random.default_rng(5)
    a = rng.random(shape)
    b = rng.random((4,) + shape)  # component field, like LB populations
    d = Decomposition(shape, blocks, periodic=periodic)
    subs_sock = make_subregions(d, 3, {"a": a, "b": b})
    subs_local = make_subregions(d, 3, {"a": a, "b": b})
    for group in (subs_sock, subs_local):
        for sub in group:
            mask = np.ones(sub.padded_shape, dtype=bool)
            mask[sub.interior] = False
            sub.fields["a"][mask] = -7.0
            sub.fields["b"][:, mask] = -7.0
    local = LocalExchanger(d, subs_local)
    return (d, subs_local, lambda: local.exchange(["a", "b"]),
            subs_sock, ["a", "b"], None)


def _seam_case():
    """Two copies of an LB|FD channel two steps in (an x-periodic seam
    on both faces of each block): the local seam translation, and the
    socket one."""
    spec = ProblemSpec(
        method={"default": "lb",
                "regions": [{"box": [[16, 0], [32, 24]], "method": "fd"}]},
        grid_shape=(32, 24), blocks=(2, 1), periodic=(True, False),
        params={"nu": 0.1, "gravity": (1e-5, 0.0), "filter_eps": 0.0},
        geometry={"kind": "channel"},
    )
    local, sock = spec.build_simulation(), spec.build_simulation()
    local.step(2)
    sock.step(2)
    convs = sock.exchanger.converters

    def exchange(sub, plan, cs):
        rank = sub.block.rank
        SocketExchanger(
            sub, plan, cs,
            converters={src: c for (dst, src), c in convs.items()
                        if dst == rank},
            wire_fields=seam_wire_fields(sock.methods[rank]),
        ).exchange_seam()

    return (sock.decomp, local.subs, local.exchanger.exchange_seam,
            sock.subs, (), exchange)


#: layout -> case builder; the TCP cases keep their bare names
CASES = {
    "2x1": lambda: _field_case((2, 1), (False, False)),
    "2x2": lambda: _field_case((2, 2), (False, False)),
    "2x2per": lambda: _field_case((2, 2), (True, True)),
    "3x2mixed": lambda: _field_case((3, 2), (True, False)),
    "1x2wrap": lambda: _field_case((1, 2), (True, False)),
    "fd|lb": _seam_case,
}


@pytest.mark.parametrize(
    "transport,layout",
    [(t, c) for t in CHANNELS for c in CASES],
    ids=[c if t == "tcp" else f"{t}-{c}" for t in CHANNELS for c in CASES],
)
def test_socket_matches_local(tmp_path, transport, layout):
    """Each transport fills bitwise what the in-process exchanger fills
    — the periodic self-wrap of ``1x2wrap`` and the seam conversions of
    ``fd|lb`` included."""
    d, subs_local, run_local, subs_sock, names, exchange = CASES[layout]()
    before = [{k: v.copy() for k, v in s.fields.items()}
              for s in subs_local]
    run_local()
    _socket_exchange(tmp_path, d, subs_sock, names, subs_sock[0].pad,
                     CHANNELS[transport], exchange)

    assert any(not np.array_equal(v, old[k])
               for s, old in zip(subs_local, before)
               for k, v in s.fields.items())
    for s_sock, s_loc in zip(subs_sock, subs_local):
        assert s_sock.fields.keys() == s_loc.fields.keys()
        for name in s_loc.fields:
            np.testing.assert_array_equal(s_sock.fields[name],
                                          s_loc.fields[name])


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

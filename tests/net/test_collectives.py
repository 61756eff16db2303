"""The allreduce: bitwise against the serial fold on every transport.

allreduce(sum/max) of float64 scalars and 2-vectors across 2-8 ranks
matches the rank-ordered serial reduction bit-for-bit under TCP, UDP
with loss injection, and the in-process backend.
"""

import functools
import os
import threading

import numpy as np
import pytest

from repro.net import (
    ChannelSet,
    Communicator,
    LocalFabric,
    PortRegistry,
    UdpChannelSet,
)

UDP_LOSS = float(os.environ.get("REPRO_UDP_LOSS", "0.05"))


def _serial_fold(parts, ufunc):
    """Rank-ordered fold — the bitwise reference for every reduction."""
    return functools.reduce(ufunc, parts)


# ----------------------------------------------------------------------
# live Communicator over all three backends
# ----------------------------------------------------------------------
def _run_ranks(n, fn):
    """Run ``fn(rank)`` on one thread per rank; return results by rank."""
    results = [None] * n
    errors = []

    def run(r):
        try:
            results[r] = fn(r)
        except Exception as exc:
            errors.append((r, exc))

    threads = [threading.Thread(target=run, args=(r,)) for r in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    return results


def _with_comms(backend, n, tmp_path, fn):
    """Call ``fn(comm)`` per rank over the requested transport.

    TCP and UDP ranks start with only their ring neighbours connected —
    the tree must establish the missing links on demand through the
    port registry.
    """
    if backend == "local":
        fabric = LocalFabric(n)
        return _run_ranks(
            n, lambda r: fn(Communicator(fabric.channel_set(r), r, n))
        )

    reg = PortRegistry(tmp_path / "ports.txt")

    def worker(r):
        nbrs = {(r - 1) % n, (r + 1) % n} - {r}
        if backend == "tcp":
            cs = ChannelSet(r, nbrs, reg)
        else:
            cs = UdpChannelSet(
                r, nbrs, reg, rto=0.02,
                loss_rate=UDP_LOSS, loss_seed=11,
            )
        cs.open(0, timeout=15.0)
        try:
            comm = Communicator(cs, r, n, timeout=60.0, link_timeout=15.0)
            return fn(comm)
        finally:
            if backend == "udp":
                # every collective already completed; do not let a lost
                # final ACK stretch the flush
                cs.close(flush_timeout=1.0)
            else:
                cs.close()

    return _run_ranks(n, worker)


BACKEND_RANKS = [
    ("local", 2), ("local", 3), ("local", 5), ("local", 8),
    ("tcp", 2), ("tcp", 4), ("tcp", 8),
    ("udp", 2), ("udp", 4),
]


def _assert_bitwise(got, want):
    """Equality of float64 bit patterns, not approximate."""
    assert np.asarray(got, np.float64).tobytes() == \
        np.asarray(want, np.float64).tobytes()


@pytest.mark.parametrize("backend,n", BACKEND_RANKS)
class TestAllreduceEverywhere:
    def test_scalar_bitwise(self, backend, n, tmp_path):
        """Scalar sum and max equal the serial fold bit for bit."""
        values = [np.float64((-1.0) ** r * np.pi / (r + 1)) for r in range(n)]
        want_sum = _serial_fold(values, np.add)
        want_max = _serial_fold(values, np.maximum)

        def fn(comm):
            s = comm.allreduce(values[comm.rank], "sum")
            m = comm.allreduce(values[comm.rank], "max")
            return s, m

        for s, m in _with_comms(backend, n, tmp_path, fn):
            assert isinstance(s, float) and isinstance(m, float)
            _assert_bitwise(s, want_sum)
            _assert_bitwise(m, want_max)

    def test_vector_bitwise(self, backend, n, tmp_path):
        """The diagnostics' payload: 2-vectors, sum then max, as
        :class:`~repro.distrib.GlobalDiagnostics` sends them."""
        values = [np.array([1.0 / 3.0 ** r, (-1.0) ** r * np.e / (r + 1)])
                  for r in range(n)]
        want_sum = _serial_fold(values, np.add)
        want_max = _serial_fold(values, np.maximum)

        def fn(comm):
            s = comm.allreduce(values[comm.rank], "sum")
            m = comm.allreduce(values[comm.rank], "max")
            return s, m

        for s, m in _with_comms(backend, n, tmp_path, fn):
            assert s.shape == m.shape == (2,)
            _assert_bitwise(s, want_sum)
            _assert_bitwise(m, want_max)


def test_on_demand_links_really_missing(tmp_path):
    """A tree collective at n = 8 needs pairs (0,4), (0,2)... that a
    ring-neighbour topology does not have; ensure_links must build
    exactly those."""
    n = 8
    reg = PortRegistry(tmp_path / "ports.txt")
    extra_links = {}

    def worker(r):
        nbrs = {(r - 1) % n, (r + 1) % n}
        cs = ChannelSet(r, nbrs, reg)
        cs.open(0, timeout=15.0)
        try:
            comm = Communicator(cs, r, n)
            out = comm.allreduce(np.float64(r), "sum")
            extra_links[r] = sorted(
                p for p in range(n)
                if p != r and cs.has_link(p) and p not in nbrs
            )
            return out
        finally:
            cs.close()

    results = _run_ranks(n, worker)
    assert all(float(v) == float(sum(range(n))) for v in results)
    # rank 0 is the tree root: it talked to 2 and 4 beyond its ring
    # neighbours 1 and 7
    assert extra_links[0] == [2, 4]

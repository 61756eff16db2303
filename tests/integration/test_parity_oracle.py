"""The parity oracle: the support table decides, every backend agrees.

The system's core invariant (paper §4.2): ghost padding keeps
computation apart from communication, so a decomposed run reproduces
the serial program bit for bit.  Hypothesis draws a problem — 2D or 3D,
FD, LB or a hybrid map on block boundaries, random cuts of at most four
blocks, periodic axes, open, channel or cavity geometry with all-solid
blocks as in fig. 2 — and asks the one support check,
:func:`repro.distrib.settings.check_supported`, about every backend ×
transport under the drawn policy:

* an allowed run — serial, threaded, and distributed over TCP and
  over UDP — must return fields bitwise equal to the serial run with
  the same blocks; that run must in turn equal the one-block serial run
  on every node of an active block (only the don't-care values of
  all-solid blocks may differ);
* a refused run must raise the table's error from :func:`repro.run`
  before it creates a directory or spawns a process.

The ``@example`` cases pin what every run of the oracle must see: each
refused rebalance row, an unknown policy, the hybrid seam and the
fig. 2 layout on both transports, and a TCP run whose periodic axis has
one block (the rank is its own neighbour there).
"""

import itertools
import math
import re
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro
from repro.balance import RecutError
from repro.distrib import (
    DistributedRun,
    ProblemSpec,
    RunSettings,
    initial_fields,
)
from repro.distrib import rankhost
from repro.distrib.settings import (
    BACKENDS,
    POLICIES,
    TRANSPORTS,
    check_supported,
)

pytestmark = pytest.mark.slow

#: the widest ghost any method needs (FD): no block may be thinner
PAD = 4
#: a transport and a policy no run accepts
BAD_TRANSPORT = "tpc"
BAD_POLICY = "reshuffle"


@st.composite
def _cut(draw, n, parts):
    """Per-axis weights: ``None`` (even split) or random integer extents
    of at least :data:`PAD` nodes summing to ``n``."""
    if parts == 1 or draw(st.booleans()):
        return None
    spare = n - parts * PAD
    marks = sorted(draw(st.lists(
        st.integers(0, spare), min_size=parts - 1, max_size=parts - 1,
    )))
    bounds = [0] + marks + [spare]
    return tuple(PAD + hi - lo for lo, hi in zip(bounds, bounds[1:]))


@st.composite
def problems(draw):
    """A spec of at most 64² (2D) or 16³ (3D) nodes in at most 4 blocks."""
    ndim = draw(st.sampled_from((2, 3)))
    low, high = (16, 64) if ndim == 2 else (8, 16)
    shape = tuple(draw(st.integers(low, high)) for _ in range(ndim))
    blocks = draw(st.sampled_from([
        b for b in itertools.product(range(1, 5), repeat=ndim)
        if math.prod(b) <= 4
        and all(n >= k * PAD for n, k in zip(shape, b))
    ]))
    weights = tuple(draw(_cut(n, k)) for n, k in zip(shape, blocks))
    weights = None if weights == (None,) * ndim else weights
    periodic = tuple(draw(st.booleans()) for _ in range(ndim))
    gravity = (draw(st.sampled_from((0.0, 1e-5))),) + (0.0,) * (ndim - 1)
    params = {
        "nu": draw(st.sampled_from((0.05, 0.1))),
        "gravity": gravity,
        "filter_eps": draw(st.sampled_from((0.0, 0.02))),
    }
    spec = ProblemSpec("fd", shape, blocks, periodic, params,
                       weights=weights)
    first = spec.build_decomposition()[(0,) * ndim].hi
    kind = draw(st.sampled_from(
        ("open", "channel", "cavity") if ndim == 2 else ("open", "channel")
    ))
    if kind != "open":
        # walls as thick as the first block make it all solid (fig. 2)
        axis = 0 if kind == "cavity" else 1
        walls = [w for w in (1, first[axis])
                 if all(shape[d] - 2 * w >= PAD for d in range(ndim))]
        spec = replace(spec, geometry={
            "kind": kind, "wall_nodes": draw(st.sampled_from(walls)),
        })
    method = draw(st.sampled_from(("fd", "lb", "hybrid")))
    if method == "hybrid" and math.prod(blocks) > 1:
        spec = replace(spec, method=_hybrid_map(draw, spec))
    elif method != "hybrid":
        spec = replace(spec, method=method)
    return spec


def _hybrid_map(draw, spec):
    """A method map whose region box is a box of whole blocks."""
    decomp = spec.build_decomposition()
    edges = [
        sorted({b.lo[d] for b in decomp} | {spec.grid_shape[d]})
        for d in range(spec.ndim)
    ]
    lo, hi = [], []
    for axis_edges in edges:
        i = draw(st.integers(0, len(axis_edges) - 2))
        j = draw(st.integers(i + 1, len(axis_edges) - 1))
        lo.append(axis_edges[i])
        hi.append(axis_edges[j])
    default = draw(st.sampled_from(("fd", "lb")))
    inner = "lb" if default == "fd" else "fd"
    return {"default": default,
            "regions": [{"box": [lo, hi], "method": inner}]}


def _assert_same(out, ref, where=None):
    assert sorted(out) == sorted(ref)
    for name in ref:
        a, b = out[name], ref[name]
        if where is not None:
            a, b = a[..., where], b[..., where]
        assert np.array_equal(a, b), f"field {name!r} diverged"


def _active_nodes(spec):
    decomp = spec.build_decomposition()
    active = np.zeros(spec.grid_shape, dtype=bool)
    for blk in decomp.active_blocks():
        active[blk.slices] = True
    return active


def _assert_refused(spec, backend, rs, fields, exc, workdir):
    """``repro.run`` raises the table's error and leaves no trace; a
    refused :class:`DistributedRun` configures and spawns no worker.
    Every rank starts as one request to the rank host, so that request
    is the one launch entry to watch."""
    refused = pytest.raises(type(exc), match=re.escape(str(exc)))
    with mock.patch.object(
        rankhost, "fork_rank", side_effect=AssertionError("spawned"),
    ) as fork_rank, mock.patch.object(
        tempfile, "mkdtemp", side_effect=AssertionError("made a dir"),
    ):
        with refused:
            repro.run(spec, backend, rs, fields=fields, workdir=workdir)
        assert not workdir.exists()
        if backend == "distributed":
            run = DistributedRun(spec, fields, workdir, rs)
            with refused:
                run.start()
            assert not list(workdir.glob("cfg_rank*.json"))
    assert not fork_rank.called


HYBRID = {"default": "lb",
          "regions": [{"box": [[16, 0], [32, 24]], "method": "fd"}]}


def _channel(method="lb", blocks=(2, 1), **kw):
    return ProblemSpec(
        method, (32, 24), blocks, (True, False),
        {"nu": 0.1, "gravity": (1e-5, 0.0), "filter_eps": 0.02},
        geometry={"kind": "channel"}, **kw,
    )


@settings(
    max_examples=8, derandomize=True, deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    spec=problems(),
    seed=st.integers(0, 2**16),
    steps=st.integers(1, 4),
    # two draws in three run every backend; the rest rebalance (refused
    # on most specs) or name an unknown policy
    policy=st.sampled_from(POLICIES[:1] * 4 + POLICIES[1:] + (BAD_POLICY,)),
)
# fig. 2: two all-solid blocks, uneven cuts, FD on both transports
@example(spec=ProblemSpec(
    "fd", (40, 32), (2, 2), (False, False), {"nu": 0.1},
    geometry={"kind": "cavity", "wall_nodes": 10},
    weights=((10, 30), (12, 20)),
), seed=8, steps=4, policy="migrate")
# a periodic axis one block spans: the rank is its own neighbour
@example(spec=ProblemSpec("lb", (32, 24), (2, 1), (False, True)),
         seed=1, steps=4, policy="migrate")
# four LB ranks over TCP and UDP
@example(spec=_channel(blocks=(2, 2)), seed=2, steps=4, policy="migrate")
# rebalance refused: blocks are no chain
@example(spec=_channel(blocks=(2, 2)), seed=3, steps=2, policy="rebalance")
# an unknown policy: every backend refuses
@example(spec=_channel(), seed=4, steps=2, policy=BAD_POLICY)
# rebalance refused: a hybrid run would move its seam
@example(spec=_channel(HYBRID), seed=5, steps=2, policy="rebalance")
# the LB|FD seam on both transports
@example(spec=_channel(HYBRID), seed=6, steps=4, policy="migrate")
# rebalance refused: two blocks are all solid
@example(spec=replace(_channel(blocks=(4, 1)), grid_shape=(48, 48),
                      geometry={"kind": "cavity", "wall_nodes": 12}),
         seed=7, steps=2, policy="rebalance")
def test_parity_oracle(spec, seed, steps, policy):
    fields = initial_fields(spec, "random", seed=seed)
    ref = None
    with tempfile.TemporaryDirectory() as tmp:
        for backend, transport in itertools.product(
            BACKENDS, TRANSPORTS + (BAD_TRANSPORT,)
        ):
            rs = RunSettings(steps=steps, transport=transport, policy=policy)
            workdir = Path(tmp) / f"{backend}-{transport}" / "run"
            try:
                check_supported(spec, backend, rs, fields=fields)
            except (ValueError, RecutError) as exc:
                _assert_refused(spec, backend, rs, fields, exc, workdir)
                continue
            if backend == "serial" and ref is None:
                ref = repro.run(spec, "serial", rs, fields=fields).fields
                if not spec.is_hybrid:
                    one = replace(spec, blocks=(1,) * spec.ndim,
                                  weights=None)
                    _assert_same(
                        repro.run(one, "serial", rs, fields=fields).fields,
                        ref, where=_active_nodes(spec),
                    )
            elif backend == "threaded" and transport == TRANSPORTS[0]:
                _assert_same(
                    repro.run(spec, "threaded", rs, fields=fields).fields,
                    ref,
                )
            elif backend == "distributed":
                _assert_same(
                    repro.run(spec, "distributed", rs, fields=fields,
                              workdir=workdir).fields,
                    ref,
                )

"""Per-rank effective-speed estimation from signals the monitor already has.

Nothing new flows over the network for load balancing: the estimator
consumes the heartbeat files every worker writes anyway (now carrying a
smoothed per-step compute time next to the step counter and wall
stamp), plus the five-minute load averages in the virtual
:class:`~repro.distrib.hostdb.HostDB`.  Both signals are exponentially
smoothed; the result is a per-rank *effective* processing rate in
nodes/second, the unit :class:`~repro.balance.planner.RebalancePlanner`
divides shares by.

Two signals compose multiplicatively, mirroring the §5 machine model
(``speed = base / (1 + load)``):

* **measured compute seconds** give the per-node rate the worker
  actually achieves — this folds in heterogeneous hardware and any real
  contention the process experienced;
* **host load averages** scale that rate down by ``1 / (1 + load)`` —
  this anticipates contention the virtual host database *declares*
  (the emulated `uptime` numbers of the test cluster) before it shows
  up in measured step times.
"""

from __future__ import annotations

__all__ = ["LoadEstimator"]

#: per-node compute seconds assumed before any measurement arrives
_NOMINAL_NODE_SECONDS = 1e-5


class LoadEstimator:
    """Exponentially smoothed per-rank effective speeds.

    Parameters
    ----------
    nodes:
        Nodes currently owned per rank (updated with :meth:`set_nodes`
        after every re-cut) — needed to turn per-step compute seconds
        into a per-node rate.
    alpha:
        Smoothing factor of the monitor-side EMAs; the workers smooth
        their own compute times before publishing, so this is a second,
        slower pole damping heartbeat jitter.
    """

    def __init__(self, nodes: list[int], alpha: float = 0.3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.nodes = [int(n) for n in nodes]
        self.alpha = float(alpha)
        self._node_seconds: dict[int, float] = {}   # EMA s/node/step
        self._load: dict[int, float] = {}           # host load average
        self._last_hb: dict[int, tuple[int, float]] = {}
        self._pace: dict[int, float] = {}           # EMA wall s/step

    # ------------------------------------------------------------------
    # observations
    # ------------------------------------------------------------------
    def _ema(self, store: dict, key: int, sample: float) -> None:
        prev = store.get(key)
        store[key] = sample if prev is None else (
            self.alpha * sample + (1.0 - self.alpha) * prev
        )

    def observe_heartbeat(
        self,
        rank: int,
        step: int,
        wall: float,
        comp_seconds: float | None = None,
    ) -> None:
        """Feed one heartbeat record (step counter, wall stamp, and the
        worker's smoothed per-step compute seconds when present)."""
        if comp_seconds is not None and comp_seconds > 0.0:
            if 0 <= rank < len(self.nodes) and self.nodes[rank] > 0:
                self._ema(
                    self._node_seconds, rank,
                    comp_seconds / self.nodes[rank],
                )
        last = self._last_hb.get(rank)
        if last is not None:
            dstep = step - last[0]
            dwall = wall - last[1]
            if dstep > 0 and dwall > 0:
                self._ema(self._pace, rank, dwall / dstep)
        self._last_hb[rank] = (step, wall)

    def observe_load(self, rank: int, load: float) -> None:
        """Feed a host load average for the rank currently on it."""
        self._load[rank] = max(float(load), 0.0)

    def set_nodes(self, nodes: list[int]) -> None:
        """Adopt the node counts of a freshly re-cut decomposition.

        The per-node EMAs survive (they are per node, not per block);
        only samples arriving later, measured against the new blocks,
        refine them.
        """
        self.nodes = [int(n) for n in nodes]

    # ------------------------------------------------------------------
    # estimates
    # ------------------------------------------------------------------
    @property
    def n_ranks(self) -> int:
        """Number of ranks the estimator tracks."""
        return len(self.nodes)

    def measured(self) -> bool:
        """True once every rank has published a compute-time sample."""
        return all(
            r in self._node_seconds for r in range(self.n_ranks)
        )

    def speeds(self) -> list[float]:
        """Effective processing rate per rank, nodes/second.

        Ranks without a measurement yet borrow the mean measured
        per-node time (same-hardware prior), or a nominal constant when
        nothing is measured — in that regime only the declared host
        loads differentiate the ranks.
        """
        known = list(self._node_seconds.values())
        default = (
            sum(known) / len(known) if known else _NOMINAL_NODE_SECONDS
        )
        out = []
        for rank in range(self.n_ranks):
            per_node = self._node_seconds.get(rank, default)
            rate = 1.0 / max(per_node, 1e-12)
            rate /= 1.0 + self._load.get(rank, 0.0)
            out.append(rate)
        return out

    def seconds_per_step(self) -> float | None:
        """Observed wall seconds per step (slowest rank's pace)."""
        if not self._pace:
            return None
        return max(self._pace.values())

    def min_step(self) -> int | None:
        """The slowest rank's last reported step (None before any)."""
        if len(self._last_hb) < self.n_ranks:
            return None
        return min(s for s, _ in self._last_hb.values())


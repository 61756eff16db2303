"""Virtual host registry: the cluster of non-dedicated workstations.

The paper's job-submit program separates workstations into idle-user and
active-user groups, examines the fifteen-minute CPU load average (via
``uptime``), and selects hosts whose load is below 0.6 — idle-user hosts
first, 715/50 models before the slightly slower 710 and 720 models.
The monitoring program later watches the five-minute average and
requests a migration when it exceeds 1.5 (a second full-time process).

We reproduce the whole decision logic against a *virtual* table held by
the one process that submits and monitors (the paper's designated
workstation): per host, the machine model, emulated load averages and
user idle time, plus the rank currently assigned to it.  Tests and the
load generator perturb the emulated loads exactly the way real users
would perturb ``uptime``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Iterable

__all__ = ["HostInfo", "HostDB", "paper_cluster"]

#: §4.1 — submit-time load ceiling ("the load must be less than 0.6").
SUBMIT_LOAD_LIMIT = 0.6
#: §5.1 — migration trigger ("exceeds a pre-set value, typically 1.5").
MIGRATE_LOAD_LIMIT = 1.5
#: §4.1 — "more than 20 minutes idle time" marks an idle-user host.
IDLE_USER_MINUTES = 20.0

#: Paper's model preference order (§7: "choose 715 models first before
#: choosing the slightly slower 710 and 720 models").
_MODEL_PREFERENCE = {"715/50": 0, "720": 1, "710": 2}


@dataclass
class HostInfo:
    """One workstation's registry entry."""

    name: str
    model: str = "715/50"
    load5: float = 0.0          # five-minute CPU load average
    load15: float = 0.0         # fifteen-minute CPU load average
    idle_minutes: float = 60.0  # console idle time of the regular user
    rank: int | None = None     # parallel subprocess currently hosted

    @property
    def idle_user(self) -> bool:
        return self.idle_minutes > IDLE_USER_MINUTES


class HostDB:
    """The in-memory host table, in host-name order.

    Built from a copy of the caller's entries, so no mutation reaches
    them, and every query returns copies.  One lock makes each mutation
    atomic with respect to the queries: a load generator may call
    :meth:`set_load` from another thread while the monitor polls.
    """

    def __init__(self, hosts: Iterable[HostInfo] = ()):
        hosts = sorted(hosts, key=lambda h: h.name)
        self._hosts = {h.name: replace(h) for h in hosts}
        if len(self._hosts) != len(hosts):
            raise ValueError("host names must be unique")
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def hosts(self) -> list[HostInfo]:
        """All registered workstations."""
        with self._lock:
            return [replace(h) for h in self._hosts.values()]

    def get(self, name: str) -> HostInfo:
        """One workstation's entry by name."""
        with self._lock:
            return replace(self._hosts[name])

    def host_of_rank(self, rank: int) -> HostInfo | None:
        """The workstation currently running ``rank``, if any."""
        for h in self.hosts():
            if h.rank == rank:
                return h
        return None

    def select_free(
        self,
        n: int,
        exclude: set[str] = frozenset(),
        load_limit: float = SUBMIT_LOAD_LIMIT,
    ) -> list[HostInfo]:
        """The §4.1 free-workstation search.

        Examine idle-user workstations first, then active-user ones;
        within each group prefer the fastest model class; accept a host
        when its fifteen-minute load average is below ``load_limit`` and
        it does not already run a parallel subprocess.
        """
        candidates = [
            h
            for h in self.hosts()
            if h.name not in exclude
            and h.rank is None
            and h.load15 < load_limit
        ]
        candidates.sort(
            key=lambda h: (
                0 if h.idle_user else 1,
                _MODEL_PREFERENCE.get(h.model, 99),
                h.load15,
                h.name,
            )
        )
        if len(candidates) < n:
            raise RuntimeError(
                f"need {n} free workstations, only {len(candidates)} "
                "satisfy the §4.1 criteria"
            )
        return candidates[:n]

    def overloaded(self, limit: float = MIGRATE_LOAD_LIMIT) -> list[HostInfo]:
        """Hosts whose five-minute load demands a migration (§5.1).

        The monitor asks on every poll, so only the matches are copied.
        """
        with self._lock:
            return [
                replace(h) for h in self._hosts.values()
                if h.rank is not None and h.load5 > limit
            ]

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def assign(self, name: str, rank: int | None) -> None:
        """Record (or clear, with None) a rank's placement on a host."""
        with self._lock:
            self._hosts[name].rank = rank

    def set_load(
        self,
        name: str,
        load5: float | None = None,
        load15: float | None = None,
        idle_minutes: float | None = None,
    ) -> None:
        """Perturb a host's emulated ``uptime`` numbers."""
        with self._lock:
            h = self._hosts[name]
            if load5 is not None:
                h.load5 = load5
            if load15 is not None:
                h.load15 = load15
            if idle_minutes is not None:
                h.idle_minutes = idle_minutes


def paper_cluster(prefix: str = "hp") -> list[HostInfo]:
    """The paper's 25-workstation cluster (§7).

    Sixteen 715/50 models, six 720 models, three 710 models, all idle.
    """
    hosts = []
    for i in range(16):
        hosts.append(HostInfo(name=f"{prefix}715-{i:02d}", model="715/50"))
    for i in range(6):
        hosts.append(HostInfo(name=f"{prefix}720-{i:02d}", model="720"))
    for i in range(3):
        hosts.append(HostInfo(name=f"{prefix}710-{i:02d}", model="710"))
    return hosts

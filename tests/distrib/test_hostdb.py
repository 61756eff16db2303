"""Virtual host table and the §4.1 / §5.1 selection policies."""

import sys
import threading
import time

import pytest

from repro.distrib import (
    HostDB,
    HostInfo,
    IDLE_USER_MINUTES,
    MIGRATE_LOAD_LIMIT,
    SUBMIT_LOAD_LIMIT,
    paper_cluster,
)


@pytest.fixture
def db():
    return HostDB(paper_cluster())


class TestPaperCluster:
    def test_composition(self):
        hosts = paper_cluster()
        assert len(hosts) == 25
        by_model = {}
        for h in hosts:
            by_model[h.model] = by_model.get(h.model, 0) + 1
        assert by_model == {"715/50": 16, "720": 6, "710": 3}

    def test_limits_match_paper(self):
        assert SUBMIT_LOAD_LIMIT == 0.6
        assert MIGRATE_LOAD_LIMIT == 1.5
        assert IDLE_USER_MINUTES == 20.0


class TestSelection:
    def test_prefers_715_models(self, db):
        """§7: 'our strategy is to choose 715 models first'."""
        picked = db.select_free(20)
        assert [h.model for h in picked[:16]] == ["715/50"] * 16
        assert all(h.model in ("720", "710") for h in picked[16:])

    def test_idle_users_first(self, db):
        """§4.1: idle-user workstations are examined before active-user
        ones, even when the active ones are faster."""
        for h in db.hosts():
            if h.model == "715/50":
                db.set_load(h.name, idle_minutes=1.0)  # active users
        picked = db.select_free(5)
        assert all(h.model != "715/50" for h in picked)

    def test_load_limit(self, db):
        busy = [h.name for h in db.hosts()][:20]
        for name in busy:
            db.set_load(name, load15=0.9)
        picked = db.select_free(5)
        assert all(h.load15 < SUBMIT_LOAD_LIMIT for h in picked)

    def test_active_user_accepted_when_needed(self, db):
        for h in db.hosts():
            db.set_load(h.name, idle_minutes=0.0)
        assert len(db.select_free(10)) == 10

    def test_insufficient_hosts(self, db):
        for h in db.hosts():
            db.set_load(h.name, load15=2.0)
        with pytest.raises(RuntimeError, match="free workstations"):
            db.select_free(1)

    def test_excludes_assigned(self, db):
        names = [h.name for h in db.select_free(25)]
        assert len(names) == 25
        db.assign(names[0], 0)
        remaining = db.select_free(24)
        assert names[0] not in [h.name for h in remaining]

    def test_exclude_parameter(self, db):
        first = db.select_free(1)[0]
        second = db.select_free(1, exclude={first.name})[0]
        assert second.name != first.name


class TestOverload:
    def test_overloaded_detection(self, db):
        h = db.hosts()[0]
        db.assign(h.name, 3)
        db.set_load(h.name, load5=2.0)
        over = db.overloaded()
        assert [x.rank for x in over] == [3]

    def test_unassigned_hosts_never_reported(self, db):
        h = db.hosts()[0]
        db.set_load(h.name, load5=5.0)
        assert db.overloaded() == []

    def test_threshold_is_exclusive(self, db):
        h = db.hosts()[0]
        db.assign(h.name, 1)
        db.set_load(h.name, load5=1.5)
        assert db.overloaded() == []
        db.set_load(h.name, load5=1.6)
        assert len(db.overloaded()) == 1


class TestBookkeeping:
    def test_assign_release(self, db):
        h = db.hosts()[0]
        db.assign(h.name, 7)
        assert db.host_of_rank(7).name == h.name
        db.assign(h.name, None)
        assert db.host_of_rank(7) is None

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            HostDB([HostInfo("a"), HostInfo("a")])

    def test_get(self, db):
        h = db.hosts()[3]
        assert db.get(h.name).name == h.name

    def test_entries_are_copies(self):
        hosts = paper_cluster()
        db = HostDB(hosts)
        db.set_load(hosts[0].name, load5=3.0)
        assert hosts[0].load5 == 0.0
        db.get(hosts[0].name).load5 = 9.0
        assert db.get(hosts[0].name).load5 == 3.0


def test_readers_never_see_half_a_set_load(db):
    """A load generator thread and the monitor's poll share the table:
    no snapshot holds one half of a two-field ``set_load``."""
    names = [h.name for h in db.hosts()][:4]
    stop = threading.Event()
    torn = []

    def write(name):
        i = 0
        while not stop.is_set():
            i += 1
            db.set_load(name, load5=float(i), load15=float(i))

    def read():
        while not stop.is_set():
            torn.extend(h for h in db.hosts() if h.load5 != h.load15)

    threads = ([threading.Thread(target=write, args=(n,)) for n in names]
               + [threading.Thread(target=read) for _ in range(2)])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        time.sleep(0.3)
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not torn

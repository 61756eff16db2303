"""The result cache: an index over the job table that survives restarts.

A job that finished with a ``fields.npz`` answers every later identical
submission from its own artifacts; nothing is copied, and a new
scheduler over the same serve dir rebuilds the index from the history.
"""

from tests.serve.test_scheduler import _finish, _scheduler, _spec

STEPS = {"steps": 5}


def _computed(tmp_path):
    """A scheduler whose first job finished with its fields."""
    sched, pool = _scheduler(tmp_path)
    rec = sched.submit(_spec(), settings=STEPS)
    sched.tick()
    _finish(sched, pool, rec, fields=True)
    sched.tick()
    assert rec.state == "done"
    return sched, pool, rec


class TestResultCache:
    def test_put_get_roundtrip(self, tmp_path):
        """A hit is answered at submit and serves the computing job's
        own result, fields, workdir and diagnostics."""
        sched, pool, first = _computed(tmp_path)
        hit = sched.submit(_spec(), settings=STEPS)
        assert hit.cached and hit.state == "done" and hit.elapsed == 0.0
        assert not sched.job_dir(hit.job_id).exists()
        source = sched.job_dir(first.job_id)
        payload = sched.result_payload(hit.job_id)
        assert payload["computed_by"] == first.job_id
        assert payload["result"]["job_id"] == first.job_id
        assert payload["fields"] == str(source / "fields.npz")
        assert payload["workdir"] == str(source / "run")
        assert sched.fields_file(hit.job_id) == source / "fields.npz"
        assert sched.diagnostics_file(hit.job_id) == \
            sched.diagnostics_file(first.job_id)
        assert len(pool.sent) == 1

    def test_miss_and_hit_counters(self, tmp_path):
        """Counted at submit only: reading a hit's artifacts is no hit."""
        sched, _, _ = _computed(tmp_path)
        assert (sched.hits, sched.misses) == (0, 1)
        hit = sched.submit(_spec(), settings=STEPS)
        sched.result_payload(hit.job_id)
        sched.fields_file(hit.job_id)
        sched.diagnostics_file(hit.job_id)
        assert (sched.hits, sched.misses) == (1, 1)

    def test_first_writer_wins(self, tmp_path):
        """Two identical jobs in flight: the first to finish answers."""
        sched, pool = _scheduler(tmp_path, n_workers=2)
        a = sched.submit(_spec(), settings=STEPS)
        b = sched.submit(_spec(), settings=STEPS)
        assert not a.cached and not b.cached
        sched.tick()
        _finish(sched, pool, b, fields=True)
        sched.tick()
        _finish(sched, pool, a, fields=True)
        sched.tick()
        assert sched.computed == {a.fingerprint: b.job_id}
        hit = sched.submit(_spec(), settings=STEPS)
        assert sched.result_payload(hit.job_id)["computed_by"] == b.job_id

    def test_survives_reinstantiation(self, tmp_path):
        """A new scheduler over the same serve dir (a gateway restart)
        rebuilds the index from the job history."""
        _, _, first = _computed(tmp_path)
        fresh, pool = _scheduler(tmp_path)
        assert fresh.computed == {first.fingerprint: first.job_id}
        hit = fresh.submit(_spec(), settings=STEPS)
        assert hit.cached
        assert fresh.result_payload(hit.job_id)["computed_by"] == \
            first.job_id
        assert pool.sent == []
        # a replayed hit still serves the computing job's artifacts
        again, _ = _scheduler(tmp_path)
        assert again.fields_file(hit.job_id) == \
            again.job_dir(first.job_id) / "fields.npz"

    def test_put_without_fields_refuses(self, tmp_path):
        """A job whose fields.npz is gone answers nothing: the next
        identical submission is a miss that recomputes, and the
        recompute answers from then on, across a restart too."""
        sched, pool, first = _computed(tmp_path)
        (sched.job_dir(first.job_id) / "fields.npz").unlink()
        again = sched.submit(_spec(), settings=STEPS)
        assert not again.cached and again.state == "queued"
        assert (sched.hits, sched.misses) == (0, 2)
        sched.tick()
        _finish(sched, pool, again, fields=True)
        sched.tick()
        assert sched.computed == {first.fingerprint: again.job_id}
        fresh, _ = _scheduler(tmp_path)
        assert fresh.computed == {first.fingerprint: again.job_id}

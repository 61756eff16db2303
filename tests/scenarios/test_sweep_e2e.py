"""The sweep engine against a live gateway (the cluster executor).

The contract under test: a sweep fans its grid through the service as
one batch, every point comes back scored, and re-running the same
sweep computes nothing — identical points are answered entirely from
the gateway's result cache, diagnostics included (the scores must come
out identical to the computed pass).
"""

import pytest

from repro.scenarios import get, run_sweep, write_report

pytestmark = pytest.mark.slow

# steps=100 gives the conservation scorer two mass samples (its
# diag_every is 50), so the mass-drift gate engages
GRID = {"method": ["lb", "fd"], "n": [16], "steps": [100]}


@pytest.fixture(scope="module")
def gateway(tmp_path_factory):
    from repro.serve import Gateway

    gw = Gateway(tmp_path_factory.mktemp("serve"), workers=2)
    gw.start_background()
    yield gw
    gw.shutdown()


class TestSweepThroughGateway:
    def test_second_sweep_is_fully_cached(self, gateway, tmp_path):
        from repro.serve import ServeClient

        scenario = get("conservation")
        first = run_sweep(scenario, GRID, server=gateway.address,
                          out_dir=tmp_path / "first")
        assert [p.state for p in first] == ["done", "done"]
        assert all(p.passed for p in first), \
            [p.score for p in first]
        assert not any(p.cached for p in first)
        assert all(p.job_id for p in first)
        assert all(p.nodes_per_sec > 0 for p in first)

        # a fresh manifest directory, so the cache (not the resume
        # journal) must answer
        second = run_sweep(scenario, GRID, server=gateway.address,
                           out_dir=tmp_path / "second")
        assert all(p.cached for p in second), \
            "identical points must be cache hits on the second sweep"
        assert all(p.passed for p in second)
        # cached diagnostics replay must reproduce the exact score
        for a, b in zip(first, second):
            assert a.score["residuals"] == b.score["residuals"]

        # the gateway computed each distinct point exactly once
        client = ServeClient(gateway.address)
        jobs = client.jobs()
        computed = [j for j in jobs if not j.get("cached")]
        assert len(computed) == len(first)
        assert all(j["state"] == "done" for j in jobs)

    def test_reports_from_a_service_sweep(self, gateway, tmp_path):
        scenario = get("conservation")
        points = run_sweep(scenario, GRID, server=gateway.address,
                           out_dir=tmp_path)
        md = write_report(points, tmp_path, scenario)
        text = md.read_text()
        assert "mass_drift" in text
        assert "cached" in text  # cache hits show in the nodes/s column

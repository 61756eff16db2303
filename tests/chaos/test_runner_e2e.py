"""End-to-end chaos scenarios: faulted runs must heal bit-for-bit.

Each test launches a real two-rank distributed run under a seeded
fault plan and requires the runner's classification to be ``match`` —
the recovery machinery (checkpoint restart, checksum fallback,
reconnect with backoff, §5.1 migration) produced exactly the fields of
the fault-free serial run.
"""

import pytest

from repro.chaos import run_scenario
from repro.distrib import read_journal

pytestmark = pytest.mark.slow


def test_kill_recovers_via_checkpoint_restart(tmp_path):
    out = run_scenario("kill", 0, tmp_path)
    assert out.outcome == "match", out.detail
    assert out.restarts == 1


def test_corruption_falls_back_one_checkpoint(tmp_path):
    out = run_scenario("corruption", 0, tmp_path)
    assert out.outcome == "match", out.detail
    # one restart heals it: the rejected checkpoint must not cost a
    # second crash (stale save tokens are reset on restart)
    assert out.restarts == 1
    assert any("rejected, falling back one" in rec["msg"]
               for rec in read_journal(tmp_path))


def test_spike_migrates_instead_of_restarting(tmp_path):
    out = run_scenario("spike", 0, tmp_path)
    assert out.outcome == "match", out.detail
    assert out.migrations >= 1
    assert out.restarts == 0


def test_break_heals_by_reconnecting(tmp_path):
    out = run_scenario("break", 0, tmp_path)
    assert out.outcome == "match", out.detail
    # the broken link is re-dialed with backoff; no restart needed
    assert out.restarts == 0

"""The rank host: forked ranks behave as spawned ones, no process
outlives its submitter, and the report stream rejects damage."""

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.distrib import (
    EXIT_MIGRATED,
    EXIT_REBALANCED,
    DistributedRun,
    MonitorError,
    ProblemSpec,
    RunSettings,
    SaveTurns,
    WorkerConfig,
    decompose_problem,
    initial_fields,
    rankhost,
    read_journal,
)
from repro.distrib.monitor import _proc_state
from repro.distrib.rankhost import (
    RankHost,
    Report,
    ReportDamaged,
    encode_report,
    parse_report,
)
from repro.distrib.submit import _worker_env, spawn_worker

SRC = Path(__file__).resolve().parents[2] / "src"

#: A stand-in for ``worker.main``: records what the rank sees, prints
#: a line, sleeps if asked and exits with the code its config names.
PROBE = textwrap.dedent('''
    import json, os, signal, sys, time

    import repro
    from repro.distrib import worker

    real_main = worker.main

    def probe(argv):
        cfg = json.loads(open(argv[0]).read())
        with open(cfg["out"], "w") as fh:
            json.dump({
                "environ": dict(os.environ),
                "cwd": os.getcwd(),
                "path": sys.path,
                "repro": repro.__file__,
                "fds": [os.readlink(f"/proc/self/fd/{fd}")
                        for fd in (0, 1, 2)],
            }, fh)
        print("probe ran")
        time.sleep(cfg.get("sleep", 0))
        return cfg["code"]

    def usr2_then_main(argv):
        # lands before worker.main has installed its early catcher
        os.kill(os.getpid(), signal.SIGUSR2)
        return real_main(argv)

    if __name__ == "__main__":
        sys.exit(probe(sys.argv[1:]))
''')


def _probe_host(tmp_path, main="probe"):
    """A rank host whose ranks run ``probe_rank.<main>``."""
    (tmp_path / "probe").mkdir(exist_ok=True)
    (tmp_path / "probe" / "probe_rank.py").write_text(PROBE)
    code = ("import probe_rank; from repro.distrib import rankhost, worker; "
            f"worker.main = probe_rank.{main}; rankhost.main()")
    env = _worker_env()
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tmp_path / "probe"), env["PYTHONPATH"]])
    return RankHost(env, argv=(sys.executable, "-c", code)), env


def _request(workdir, env, **cfg):
    workdir.mkdir(parents=True, exist_ok=True)
    cfg_path = workdir / "cfg.json"
    cfg_path.write_text(json.dumps({"out": str(workdir / "seen.json"),
                                    "code": 0, **cfg}))
    return {"cfg": str(cfg_path), "cwd": str(workdir),
            "log": str(workdir / "rank.stdout"), "env": env}


class TestForkedRankEnvironment:
    def test_same_view_as_a_spawned_rank(self, tmp_path, monkeypatch):
        """Environment, cwd, ``sys.path``, stdio and log file match a
        fresh ``python -m`` rank; relative ``PYTHONPATH`` entries reach
        the rank absolute (the submitter's cwd is not the rank's)."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("PYTHONPATH", os.path.relpath(SRC, tmp_path))
        host, env = _probe_host(tmp_path)
        try:
            proc = host.spawn(_request(tmp_path / "forked", env))
            assert proc.wait(timeout=30) == 0
        finally:
            host.stop()
        req = _request(tmp_path / "spawned", env)
        with open(req["log"], "ab") as log:
            subprocess.run(
                [sys.executable, "-m", "probe_rank", req["cfg"]],
                cwd=req["cwd"], env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT, check=True, timeout=60,
            )
        seen = {name: json.loads((tmp_path / name / "seen.json").read_text())
                for name in ("forked", "spawned")}
        forked, spawned = seen["forked"], seen["spawned"]
        assert forked["environ"] == spawned["environ"] == env
        assert all(os.path.isabs(p) for p in
                   forked["environ"]["PYTHONPATH"].split(os.pathsep))
        assert forked["repro"] == spawned["repro"]
        for name, view in seen.items():
            workdir = str(tmp_path / name)
            assert view["cwd"] == workdir
            assert view["path"][0] == workdir
            assert view["fds"] == [os.devnull] + [workdir + "/rank.stdout"] * 2
            assert (tmp_path / name / "rank.stdout").read_text() == \
                "probe ran\n"
        assert forked["path"][1:] == spawned["path"][1:]


class TestExitCodes:
    @pytest.mark.parametrize("code", [0, 1, EXIT_MIGRATED, EXIT_REBALANCED])
    def test_codes_pass_through(self, tmp_path, code):
        host, env = _probe_host(tmp_path)
        try:
            proc = host.spawn(_request(tmp_path / "w", env, code=code))
            assert proc.wait(timeout=30) == code
            assert proc.poll() == code
            assert proc.maxrss_kb > 0
        finally:
            host.stop()

    def test_kill_reads_as_sigkill(self, tmp_path):
        host, env = _probe_host(tmp_path)
        try:
            proc = host.spawn(_request(tmp_path / "w", env, sleep=60))
            assert proc.poll() is None
            with pytest.raises(subprocess.TimeoutExpired):
                proc.wait(timeout=0.05)
            proc.kill()
            assert proc.wait(timeout=30) == -signal.SIGKILL
            proc.kill()  # a reported exit is never signalled again
        finally:
            host.stop()

    def test_worker_construction_failure_exits_1(self, tmp_path):
        """No spec.json: the real worker journals ``fatal`` and exits 1."""
        cfg = WorkerConfig(workdir=str(tmp_path), rank=0, host="h",
                           steps_total=1)
        assert spawn_worker(cfg).wait(timeout=60) == 1
        assert [rec["kind"] for rec in read_journal(tmp_path)] == ["fatal"]


def _one_block(tmp_path, steps=2):
    spec = ProblemSpec("lb", (24, 16), (1, 1), (True, False),
                       {"nu": 0.1}, geometry={"kind": "channel"})
    decompose_problem(spec, initial_fields(spec, "rest"), tmp_path)
    cfg = WorkerConfig(workdir=str(tmp_path), rank=0, host="h",
                       steps_total=steps)
    cfg_path = cfg.path(tmp_path, 0)
    cfg_path.write_text(cfg.to_json())
    return cfg_path


def test_early_migration_request_is_kept_not_fatal(tmp_path):
    """A SIGUSR2 sent between the fork and ``worker.main``'s catcher
    waits, blocked, for that catcher: the rank lives, and the request
    reaches its handler (no sync epoch is open, so it leaves a wish)."""
    cfg_path = _one_block(tmp_path)
    host, env = _probe_host(tmp_path, main="usr2_then_main")
    try:
        proc = host.spawn({"cfg": str(cfg_path), "cwd": str(tmp_path),
                           "log": str(tmp_path / "rank.stdout"), "env": env})
        assert proc.wait(timeout=60) == 0
    finally:
        host.stop()
    assert (tmp_path / "sync" / "wish_rank0000").exists()


# ----------------------------------------------------------------------
# lifetime: no process outlives its submitter
# ----------------------------------------------------------------------
SUBMITTER = textwrap.dedent('''
    import json, sys, time
    from repro.distrib import (
        DistributedRun, ProblemSpec, RunSettings, initial_fields, rankhost)

    workdir, steps, how = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    spec = ProblemSpec("fd", (32, 24), (2, 1), (True, False),
                       {"nu": 0.05}, geometry={"kind": "channel"})
    run = DistributedRun(spec, initial_fields(spec, "rest"), workdir,
                         RunSettings(steps=steps))
    mon = run.start()
    print(json.dumps([rankhost._host.pid]
                     + [p.pid for p in mon.procs.values()]), flush=True)
    if how == "finish":
        run.wait()
    elif how == "hang":
        time.sleep(600)
''')


def _submitter(tmp_path, steps, how):
    script = tmp_path / "submitter.py"
    script.write_text(SUBMITTER)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen(
        [sys.executable, str(script), str(tmp_path / "run"), str(steps), how],
        stdout=subprocess.PIPE, env=env, text=True,
    )


def _running(pid):
    """Whether ``pid`` exists and is not a zombie."""
    return _proc_state(pid) not in ("X", "Z")


@pytest.mark.parametrize("steps,how", [(1, "finish"), (10**6, "leave")])
def test_exit_leaves_no_host_or_rank(tmp_path, steps, how):
    """Checked the moment the submitter is gone, with no grace period:
    a finished run and one abandoned mid-run alike."""
    sub = _submitter(tmp_path, steps, how)
    pids = json.loads(sub.stdout.readline())
    assert sub.wait(timeout=120) == 0
    assert len(pids) == 3
    assert [pid for pid in pids if Path(f"/proc/{pid}").exists()] == []


def test_killed_submitter_takes_host_and_ranks_along(tmp_path):
    sub = _submitter(tmp_path, 10**6, "hang")
    pids = json.loads(sub.stdout.readline())
    assert all(_running(pid) for pid in pids)
    sub.kill()
    sub.wait(timeout=30)
    deadline = time.monotonic() + 10.0
    while any(_running(pid) for pid in pids):
        assert time.monotonic() < deadline, "host or rank outlived it"
        time.sleep(0.05)


@pytest.mark.slow
def test_killed_host_ends_in_restart_or_monitor_error(tmp_path):
    """A host SIGKILLed mid-run takes its ranks along; they read as
    crashed, and the monitor restarts from a checkpoint on a new host
    (or gives up with MonitorError) instead of waiting forever."""
    spec = ProblemSpec("lb", (32, 24), (2, 1), (True, False),
                       {"nu": 0.1, "gravity": (1e-5, 0.0)},
                       geometry={"kind": "channel"})
    fields = initial_fields(spec, "rest")
    run = DistributedRun(spec, fields, tmp_path / "run", RunSettings(
        steps=200, save_every=50, step_delays=[0.003] * 2, run_timeout=120,
    ))
    mon = run.start()
    host = rankhost._host

    def kill_host():
        deadline = time.monotonic() + 60
        while SaveTurns.latest_complete_step(tmp_path / "run") is None:
            if time.monotonic() > deadline:  # pragma: no cover
                return
            time.sleep(0.01)
        os.kill(host.pid, signal.SIGKILL)

    killer = threading.Thread(target=kill_host)
    killer.start()
    try:
        run.wait()
    except MonitorError:
        return
    finally:
        killer.join()
    assert mon.restarts >= 1
    assert rankhost._host is not host
    serial = spec.build_simulation(fields)
    serial.step(200)
    out = run.collect()
    for name in serial.method.field_names:
        assert np.array_equal(out[name], serial.global_field(name)), name


# ----------------------------------------------------------------------
# the report wire format
# ----------------------------------------------------------------------
reports = st.builds(
    Report,
    st.sampled_from(rankhost.REPORT_KINDS),
    st.integers(1, 2**22),
    st.integers(-64, 255),
    st.integers(0, 2**40),
)


class TestReportFuzz:
    @given(st.binary(max_size=rankhost.MAX_REPORT + 8))
    @example(encode_report(Report("exited", 4242, -9, 44_700)))
    @example(b"started 1 0 0 00000000\n")
    @settings(max_examples=200, deadline=None)
    def test_any_bytes_parse_or_raise_damaged(self, blob):
        """Bytes parse to a report only in its canonical form; anything
        else raises ReportDamaged, never another exception."""
        try:
            report = parse_report(blob)
        except ReportDamaged:
            return
        assert encode_report(report) == blob

    @given(reports)
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, report):
        assert parse_report(encode_report(report)) == report

    @given(reports, st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_changed_byte_is_rejected(self, report, data):
        line = encode_report(report)
        at = data.draw(st.integers(0, len(line) - 1))
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != line[at]))
        with pytest.raises(ReportDamaged):
            parse_report(line[:at] + bytes([byte]) + line[at + 1:])

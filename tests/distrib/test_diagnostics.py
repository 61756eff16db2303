"""In-flight global diagnostics: records, log, abort semantics, parity.

Fast tests exercise the partials, the diagnostics slots and the
monitor's fold in-process; the ``slow``-marked ones spawn real
distributed runs: a NaN injected into one rank stops the whole run
diagnosed, with :data:`EXIT_DIAGNOSTIC`, not stalled out.
"""

import json
import signal

import numpy as np
import pytest

import repro
from repro._jsonl import LogDamaged
from repro.chaos import Fault, FaultPlan
from repro.core import Decomposition, Simulation, ThreadedSimulation
from repro.distrib import (
    DiagnosticsLog,
    DiagRecord,
    DistributedRun,
    EXIT_DIAGNOSTIC,
    MonitorError,
    ProblemSpec,
    RunSettings,
    fold_partials,
    initial_fields,
    local_partials,
    read_journal,
    serial_diagnostics,
)
from repro.distrib.heartbeat import (
    SLOT_SIZE,
    decode_partials,
    encode_partials,
    open_partials,
    read_partials,
)
from repro.distrib.hostdb import HostDB
from repro.distrib.monitor import Monitor
from repro.fluids import FluidParams, LBMethod


def _small_sim(blocks=(2, 2), shape=(16, 12), seed=3):
    rng = np.random.default_rng(seed)
    params = FluidParams.lattice(2, nu=0.1, gravity=(1e-5, 0.0),
                                 filter_eps=0.02)
    fields = {
        "rho": 1.0 + 0.01 * rng.standard_normal(shape),
        "u": 0.01 * rng.standard_normal(shape),
        "v": 0.01 * rng.standard_normal(shape),
    }
    d = Decomposition(shape, blocks, periodic=(True, False))
    return Simulation(LBMethod(params, 2), d, fields), fields, d


# ----------------------------------------------------------------------
# records and the log
# ----------------------------------------------------------------------
class TestRecordAndLog:
    def test_roundtrip(self):
        rec = DiagRecord(step=40, total_mass=192.5, kinetic_energy=1e-4,
                         max_speed=0.03, n_nonfinite=0, wall_time=12.5)
        assert DiagRecord.from_dict(json.loads(rec.to_line())) == rec

    def test_roundtrip_nan(self):
        """A blown-up run serializes NaN diagnostics without crashing."""
        rec = DiagRecord(step=7, total_mass=float("nan"),
                         kinetic_energy=float("inf"), max_speed=float("nan"),
                         n_nonfinite=12)
        back = DiagRecord.from_dict(json.loads(rec.to_line()))
        assert np.isnan(back.total_mass)
        assert np.isinf(back.kinetic_energy)
        assert back.n_nonfinite == 12

    def test_log_append_read(self, tmp_path):
        log = DiagnosticsLog.for_workdir(tmp_path)
        for s in (10, 20, 30):
            log.append(DiagRecord(step=s, total_mass=1.0, kinetic_energy=0.0,
                                  max_speed=0.0, n_nonfinite=0))
        assert [r.step for r in log.read()] == [10, 20, 30]

    def test_log_tolerates_torn_tail(self, tmp_path):
        log = DiagnosticsLog.for_workdir(tmp_path)
        log.append(DiagRecord(step=10, total_mass=1.0, kinetic_energy=0.0,
                              max_speed=0.0, n_nonfinite=0))
        with open(log.path, "a") as f:
            f.write('{"step": 20, "total_ma')  # crash mid-append
        assert [r.step for r in log.read()] == [10]

    @pytest.mark.parametrize("damage", ["{not json", '{"step": 20}'])
    def test_log_refuses_a_damaged_middle_line(self, tmp_path, damage):
        log = DiagnosticsLog.for_workdir(tmp_path)
        for s in (10, 30):
            log.append(DiagRecord(step=s, total_mass=1.0, kinetic_energy=0.0,
                                  max_speed=0.0, n_nonfinite=0))
        first, last = log.path.read_text().splitlines()
        log.path.write_text(f"{first}\n{damage}\n{last}\n")
        with pytest.raises(LogDamaged, match="diagnostics.jsonl, line 2"):
            log.read()

    def test_empty_log(self, tmp_path):
        log = DiagnosticsLog.for_workdir(tmp_path)
        assert log.read() == []


# ----------------------------------------------------------------------
# partials and the serial reference
# ----------------------------------------------------------------------
class TestPartials:
    def test_partials_match_global_arrays(self):
        sim, fields, _ = _small_sim(blocks=(1, 1))
        p = local_partials(sim.subs[0])
        rho, u, v = fields["rho"], fields["u"], fields["v"]
        assert p[0] == pytest.approx(rho.sum(), rel=1e-15)
        assert p[1] == pytest.approx(
            (0.5 * rho * (u * u + v * v)).sum(), rel=1e-12)
        assert p[2] == pytest.approx(np.sqrt(u * u + v * v).max(), rel=1e-15)
        assert p[3] == 0.0

    def test_partials_count_nonfinite(self):
        sim, _, _ = _small_sim(blocks=(1, 1))
        view = sim.subs[0].interior_view("rho")
        view[2, 3] = np.nan
        view[4, 5] = np.inf
        assert local_partials(sim.subs[0])[3] == 2.0

    def test_fold_is_rank_ordered(self):
        parts = [np.array([0.1 * r, 0.01 * r, 0.3 - 0.01 * r, 0.0])
                 for r in range(5)]
        folded = fold_partials(parts)
        s = parts[0][:2]
        for p in parts[1:]:
            s = np.add(s, p[:2])
        assert folded[:2].tobytes() == s.tobytes()
        assert folded[2] == 0.3

    def test_serial_diagnostics_decomposition_invariant(self):
        """The reduced record is identical however the domain is cut."""
        sim1, _, _ = _small_sim(blocks=(1, 1))
        sim4, _, _ = _small_sim(blocks=(2, 2))
        sim1.step(4)
        sim4.step(4)
        r1 = serial_diagnostics(sim1.subs)
        r4 = serial_diagnostics(sim4.subs)
        # same fold shape: one partial vs four folded in rank order —
        # the parallel-equivalence suite guarantees the fields agree
        # bitwise; diagnostics sums may differ only by fold order, which
        # the rank-ordered fold pins down for the 2x2 case
        assert r1.step == r4.step
        assert r1.n_nonfinite == r4.n_nonfinite == 0
        assert r4.total_mass == pytest.approx(r1.total_mass, rel=1e-13)
        assert r4.max_speed == r1.max_speed

    def test_simulation_global_diagnostics_method(self):
        sim, _, _ = _small_sim(blocks=(2, 2))
        sim.step(2)
        rec = sim.global_diagnostics()
        ref = serial_diagnostics(sim.subs)
        assert rec.total_mass == ref.total_mass
        assert rec.kinetic_energy == ref.kinetic_energy
        assert rec.max_speed == ref.max_speed


# ----------------------------------------------------------------------
# the diagnostics slots and the monitor's fold
# ----------------------------------------------------------------------
class TestSlots:
    def test_roundtrip_is_bit_exact(self):
        parts = (0.1 + 0.2, 1e-300, float("inf"), 3.0)
        slot = encode_partials(40, parts)
        assert len(slot) == SLOT_SIZE
        step, got = decode_partials(slot)
        assert step == 40
        assert np.array(got).tobytes() == np.array(parts).tobytes()

    def test_unwritten_slot_reads_none(self, tmp_path):
        open_partials(tmp_path, 0, 3).close()
        assert [read_partials(tmp_path, 0, k) for k in range(3)] == [None] * 3
        assert read_partials(tmp_path, 1, 0) is None  # no file yet

    def test_slots_survive_a_reopen(self, tmp_path):
        """A restarted incarnation keeps the samples already written;
        a file of the wrong size is resized."""
        slots = open_partials(tmp_path, 0, 2)
        slots[SLOT_SIZE:] = encode_partials(10, (1.0, 2.0, 3.0, 0.0))
        slots.close()
        open_partials(tmp_path, 0, 2).close()
        assert read_partials(tmp_path, 0, 1) == (10, (1.0, 2.0, 3.0, 0.0))
        open_partials(tmp_path, 0, 4).close()
        assert (tmp_path / "hb" / "diag0000.bin").stat().st_size \
            == 4 * SLOT_SIZE


class _RunningProc:
    """A live worker that exits ``EXIT_DIAGNOSTIC`` on SIGTERM."""

    pid = 99997
    maxrss_kb = 0

    def __init__(self):
        self.returncode = None
        self.signals = []

    def poll(self):
        return self.returncode

    def send_signal(self, sig):
        self.signals.append(sig)
        if sig == signal.SIGTERM:
            self.returncode = EXIT_DIAGNOSTIC

    def wait(self, timeout=None):
        return self.returncode

    def kill(self):  # pragma: no cover - exits on SIGTERM
        self.returncode = -9


def _fold_monitor(tmp_path, n_ranks, every, steps_total=40):
    return Monitor(
        tmp_path, HostDB(),
        {rank: _RunningProc() for rank in range(n_ranks)},
        {"steps_total": steps_total, "diag_every": every},
    )


def _write_sample(workdir, subs, every, steps_total=40):
    """Every rank stores its partials of the subs' current step."""
    step = subs[0].step
    at = (step // every - 1) * SLOT_SIZE
    for sub in subs:
        slots = open_partials(workdir, sub.block.rank, steps_total // every)
        slots[at:at + SLOT_SIZE] = encode_partials(step, local_partials(sub))
        slots.close()


def _stop_record(workdir) -> tuple[dict, DiagRecord]:
    """The journal's one ``stop`` record and the ``diagnostics.jsonl``
    sample of the step it names."""
    (stop,) = [r for r in read_journal(workdir) if r["kind"] == "stop"]
    (sample,) = [r for r in DiagnosticsLog.for_workdir(workdir).read()
                 if r.step == stop["step"]]
    return stop, sample


class TestMonitorFold:
    def test_matches_serial_bitwise(self, tmp_path):
        sim, _, _ = _small_sim(blocks=(2, 2))
        mon = _fold_monitor(tmp_path, 4, every=3)
        refs = []
        for _ in range(2):
            sim.step(3)
            _write_sample(tmp_path, sim.subs, 3)
            refs.append(serial_diagnostics(sim.subs))
        mon._fold_diagnostics()
        recs = DiagnosticsLog.for_workdir(tmp_path).read()
        assert [r.step for r in recs] == [3, 6]
        for rec, ref in zip(recs, refs):
            assert rec.total_mass == ref.total_mass
            assert rec.kinetic_energy == ref.kinetic_energy
            assert rec.max_speed == ref.max_speed
            assert rec.n_nonfinite == ref.n_nonfinite == 0

    def test_folds_each_sample_once_in_step_order(self, tmp_path):
        """A sample waits until every rank has written it, and a sample
        rewritten by a replay after a restart is not folded again."""
        sim, _, _ = _small_sim(blocks=(2, 2))
        mon = _fold_monitor(tmp_path, 4, every=5)
        log = DiagnosticsLog.for_workdir(tmp_path)
        sim.step(5)
        _write_sample(tmp_path, sim.subs[:3], 5)
        mon._fold_diagnostics()
        assert log.read() == []
        _write_sample(tmp_path, sim.subs[3:], 5)
        sim.step(5)
        _write_sample(tmp_path, sim.subs, 5)
        mon._fold_diagnostics()
        _write_sample(tmp_path, sim.subs, 5)  # the replay
        mon._fold_diagnostics()
        assert [r.step for r in log.read()] == [5, 10]

    def test_nan_stops_the_run(self, tmp_path):
        """A NaN on one rank stops every running rank, diagnosed."""
        sim, _, _ = _small_sim(blocks=(2, 2))
        mon = _fold_monitor(tmp_path, 4, every=2)
        sim.step(2)
        sim.subs[2].interior_view("rho")[1, 1] = np.nan
        _write_sample(tmp_path, sim.subs, 2)
        with pytest.raises(MonitorError, match="non-finite"):
            mon._fold_diagnostics()
        stop, sample = _stop_record(tmp_path)
        assert stop["step"] == 2
        assert sample.n_nonfinite == 1
        assert all(p.signals == [signal.SIGTERM]
                   for p in mon.procs.values())
        assert {p.poll() for p in mon.procs.values()} == {EXIT_DIAGNOSTIC}
        assert [r.step for r in DiagnosticsLog.for_workdir(tmp_path)
                .read()] == [2]

    def test_cfl_sentinel(self, tmp_path):
        sim, _, _ = _small_sim(blocks=(2, 2))
        mon = _fold_monitor(tmp_path, 4, every=1)
        sim.step(1)
        sim.subs[1].interior_view("u")[0, 0] = 0.9  # > c_s
        _write_sample(tmp_path, sim.subs, 1)
        with pytest.raises(MonitorError, match="CFL"):
            mon._fold_diagnostics()

    def test_disabled_period(self, tmp_path):
        mon = _fold_monitor(tmp_path, 1, every=0)
        mon._fold_diagnostics()
        assert not (tmp_path / DiagnosticsLog.FILENAME).exists()

    def test_negative_period_is_off(self, tmp_path):
        mon = _fold_monitor(tmp_path, 1, every=-1)
        mon._fold_diagnostics()
        assert not (tmp_path / DiagnosticsLog.FILENAME).exists()


class TestThreadedRunnerDiagnostics:
    def test_threaded_stream_matches_serial(self):
        """ThreadedSimulation's global_diagnostics equal the serial
        runner's at the same steps, bit for bit."""
        shape, blocks = (16, 12), (2, 2)
        rng = np.random.default_rng(9)
        params = FluidParams.lattice(2, nu=0.1, gravity=(1e-5, 0.0),
                                     filter_eps=0.02)
        fields = {
            "rho": 1.0 + 0.01 * rng.standard_normal(shape),
            "u": np.zeros(shape),
            "v": np.zeros(shape),
        }
        d = Decomposition(shape, blocks, periodic=(True, False))
        ssim = Simulation(LBMethod(params, 2),
                          Decomposition(shape, blocks,
                                        periodic=(True, False)), fields)
        tsim = ThreadedSimulation(LBMethod(params, 2), d, fields)
        for step in (4, 8, 12):
            tsim.step(4)
            ssim.step(4)
            got = tsim.global_diagnostics()
            ref = ssim.global_diagnostics()
            assert got.step == ref.step == step
            assert got.total_mass == ref.total_mass
            assert got.kinetic_energy == ref.kinetic_energy
            assert got.max_speed == ref.max_speed


# ----------------------------------------------------------------------
# end-to-end distributed runs
# ----------------------------------------------------------------------
def _spec(blocks=(2, 2)):
    return ProblemSpec(
        method="lb",
        grid_shape=(32, 24),
        blocks=blocks,
        periodic=(True, False),
        params={"nu": 0.1, "gravity": (1e-5, 0.0), "filter_eps": 0.02},
        geometry={"kind": "channel"},
    )


def _assert_serial_stream(spec, fields, recs, every):
    """``recs`` are bit-for-bit the serial runner's records."""
    solid, _, _ = spec.build_geometry()
    d = Decomposition(spec.grid_shape, spec.blocks,
                      periodic=spec.periodic, solid=solid)
    sim = Simulation(spec.build_method(), d, fields, solid)
    for rec in recs:
        sim.step(every)
        ref = sim.global_diagnostics()
        assert rec.total_mass == ref.total_mass
        assert rec.kinetic_energy == ref.kinetic_energy
        assert rec.max_speed == ref.max_speed


@pytest.mark.slow
class TestDistributedDiagnostics:
    def test_clean_run_streams_diagnostics(self, tmp_path):
        """A healthy run logs a record every N steps, and the stream is
        bit-for-bit the serial runner's."""
        spec = _spec()
        fields = initial_fields(spec, "rest")
        out = repro.run(
            spec, "distributed", RunSettings(steps=20, diag_every=10),
            fields=fields, workdir=tmp_path / "run",
        ).fields
        assert "rho" in out
        log = DiagnosticsLog.for_workdir(tmp_path / "run")
        recs = log.read()
        assert [r.step for r in recs] == [10, 20]
        _assert_serial_stream(spec, fields, recs, 10)

    def test_nan_aborts_diagnosed_within_2n(self, tmp_path):
        """A NaN injected at step 12 on rank 1 stops every worker with
        EXIT_DIAGNOSTIC, the failure diagnosed in the journal at
        a step by 12 + 2*5 — no stall timeout.  The ranks stop within
        one monitor poll of the failing sample, so the run is long
        enough that none can finish first."""
        every, nan_step = 5, 12
        spec = _spec()
        fields = initial_fields(spec, "rest")
        plan = FaultPlan(faults=(Fault("nan", rank=1, step=nan_step),))
        run = DistributedRun(
            spec, fields, tmp_path / "run",
            RunSettings(steps=200, diag_every=every,
                        fault_plan=plan.to_json(),
                        stall_timeout=120, run_timeout=240),
        )
        mon = run.start()
        with pytest.raises(MonitorError) as err:
            run.wait()
        assert "diagnostic" in str(err.value).lower()
        assert "non-finite" in str(err.value)
        # all workers exited with the diagnostic code, none were killed
        # by a stall timeout
        codes = {p.poll() for p in mon.procs.values()}
        assert codes == {EXIT_DIAGNOSTIC}

        stop, sample = _stop_record(tmp_path / "run")
        assert stop["msg"].startswith("non-finite")
        assert sample.n_nonfinite >= 1
        assert stop["step"] <= nan_step + 2 * every

    def test_diagnostics_over_udp_with_loss(self, tmp_path):
        """The diagnostics stream of a run over the lossy datagram
        transport (acks + retransmission underneath) is the serial
        one, bit for bit."""
        spec = _spec()
        fields = initial_fields(spec, "rest")
        out = repro.run(
            spec, "distributed",
            RunSettings(steps=20, diag_every=10, transport="udp",
                        udp_loss=0.05, run_timeout=240),
            fields=fields, workdir=tmp_path / "run",
        ).fields
        assert "rho" in out
        recs = DiagnosticsLog.for_workdir(tmp_path / "run").read()
        assert [r.step for r in recs] == [10, 20]
        _assert_serial_stream(spec, fields, recs, 10)

    def test_nan_in_the_last_period_is_diagnosed(self, tmp_path):
        """The ranks may finish before the monitor folds the last
        sample; the run still ends in the diagnosis, not a success."""
        spec = _spec()
        plan = FaultPlan(faults=(Fault("nan", rank=1, step=17),))
        run = DistributedRun(
            spec, initial_fields(spec, "rest"), tmp_path / "run",
            RunSettings(steps=20, diag_every=5, fault_plan=plan.to_json(),
                        stall_timeout=120, run_timeout=240),
        )
        run.start()
        with pytest.raises(MonitorError, match="non-finite"):
            run.wait()
        stop, _ = _stop_record(tmp_path / "run")
        assert stop["step"] == 20

    def test_checkpoint_restart_logs_each_step_once(self, tmp_path):
        """A rank killed at step 17 restarts everyone from the step-10
        checkpoint; the replayed step 15 is folded once."""
        spec = _spec()
        fields = initial_fields(spec, "rest")
        plan = FaultPlan(faults=(Fault("kill", rank=1, step=17),))
        result = repro.run(
            spec, "distributed",
            RunSettings(steps=30, diag_every=5, save_every=10,
                        fault_plan=plan.to_json(), run_timeout=240),
            fields=fields, workdir=tmp_path / "run",
        )
        recs = DiagnosticsLog.for_workdir(tmp_path / "run").read()
        assert [r.step for r in recs] == [5, 10, 15, 20, 25, 30]
        assert [r.step for r in result.diagnostics] == [5, 10, 15, 20, 25, 30]
        _assert_serial_stream(spec, fields, recs, 5)

    def test_migration_keeps_the_stream(self, tmp_path):
        """A rank that migrates mid-run keeps writing its slots: the
        stream lists each step once and stays the serial one."""
        spec = _spec()
        fields = initial_fields(spec, "rest")
        run = DistributedRun(
            spec, fields, tmp_path / "run",
            RunSettings(steps=60, diag_every=5, step_delays=[0.005] * 4,
                        run_timeout=240),
        )
        mon = run.start()
        mon.request_migration(1)
        run.wait()
        assert mon.migrations == 1
        recs = DiagnosticsLog.for_workdir(tmp_path / "run").read()
        assert [r.step for r in recs] == list(range(5, 61, 5))
        _assert_serial_stream(spec, fields, recs, 5)

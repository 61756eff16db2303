"""In-flight global diagnostics: records, log, abort semantics, parity.

Fast tests exercise the partials/fold/collective machinery in-process;
the ``slow``-marked ones spawn real distributed runs and assert the
ISSUE acceptance bar — a NaN injected into one rank aborts the whole
run with :data:`EXIT_DIAGNOSTIC` within ``2 * N`` steps, diagnosed, not
stalled out.
"""

import json
import threading

import numpy as np
import pytest

import repro
from repro._jsonl import LogDamaged
from repro.chaos import Fault, FaultPlan
from repro.core import Decomposition, Simulation, ThreadedSimulation
from repro.distrib import (
    DiagnosticsFailure,
    DiagnosticsLog,
    DiagRecord,
    DistributedRun,
    EXIT_DIAGNOSTIC,
    GlobalDiagnostics,
    MonitorError,
    ProblemSpec,
    RunSettings,
    fold_partials,
    initial_fields,
    local_partials,
    serial_diagnostics,
)
from repro.fluids import FluidParams, LBMethod
from repro.net import Communicator, LocalFabric


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
        assert log.last_step() == 30

    def test_log_tolerates_torn_tail(self, tmp_path):
        log = DiagnosticsLog.for_workdir(tmp_path)
        log.append(DiagRecord(step=10, total_mass=1.0, kinetic_energy=0.0,
                              max_speed=0.0, n_nonfinite=0))
        with open(log.path, "a") as f:
            f.write('{"step": 20, "total_ma')  # crash mid-append
        assert [r.step for r in log.read()] == [10]
        assert log.last_step() == 10

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
        with pytest.raises(LogDamaged):
            log.last_step()

    def test_empty_log(self, tmp_path):
        log = DiagnosticsLog.for_workdir(tmp_path)
        assert log.read() == []
        assert log.last() is None
        assert log.last_step() is None


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
# GlobalDiagnostics over the in-process backend (threads)
# ----------------------------------------------------------------------
def _run_diags(subs, every=1, log=None):
    """One GlobalDiagnostics.check per sub, threaded; returns results
    (DiagRecord or the raised DiagnosticsFailure) by rank."""
    n = len(subs)
    fabric = LocalFabric(n)
    out = [None] * n

    def run(r):
        comm = Communicator(fabric.channel_set(r), r, n)
        diag = GlobalDiagnostics(comm, every=every,
                                 log=log if r == 0 else None)
        try:
            out[r] = diag.check(subs[r])
        except DiagnosticsFailure as exc:
            out[r] = exc

    threads = [threading.Thread(target=run, args=(r,)) for r in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return out


class TestGlobalDiagnostics:
    def test_matches_serial_bitwise(self, tmp_path):
        sim, _, _ = _small_sim(blocks=(2, 2))
        sim.step(3)
        ref = serial_diagnostics(sim.subs)
        log = DiagnosticsLog.for_workdir(tmp_path)
        results = _run_diags(sim.subs, log=log)
        for rec in results:
            assert isinstance(rec, DiagRecord)
            assert rec.total_mass == ref.total_mass
            assert rec.kinetic_energy == ref.kinetic_energy
            assert rec.max_speed == ref.max_speed
        # rank 0 appended the record
        assert log.last_step() == sim.subs[0].step

    def test_nan_raises_on_every_rank(self):
        sim, _, _ = _small_sim(blocks=(2, 2))
        sim.subs[2].interior_view("rho")[1, 1] = np.nan
        results = _run_diags(sim.subs)
        assert all(isinstance(r, DiagnosticsFailure) for r in results)
        assert all("non-finite" in r.reason for r in results)
        # every rank computed the same reduced record
        steps = {r.record.n_nonfinite for r in results}
        assert steps == {1}

    def test_cfl_sentinel(self):
        sim, _, _ = _small_sim(blocks=(2, 2))
        sim.subs[1].interior_view("u")[0, 0] = 0.9  # > c_s
        results = _run_diags(sim.subs)
        assert all(isinstance(r, DiagnosticsFailure) for r in results)
        assert all("CFL" in r.reason for r in results)

    def test_maybe_check_cadence(self):
        sim, _, _ = _small_sim(blocks=(1, 1))
        fabric = LocalFabric(1)
        diag = GlobalDiagnostics(
            Communicator(fabric.channel_set(0), 0, 1), every=5)
        sub = sim.subs[0]
        checked = []
        for _ in range(11):
            sim.step(1)
            rec = diag.maybe_check(sub)
            if rec is not None:
                checked.append(rec.step)
        assert checked == [5, 10]

    def test_disabled_period(self):
        sim, _, _ = _small_sim(blocks=(1, 1))
        fabric = LocalFabric(1)
        diag = GlobalDiagnostics(
            Communicator(fabric.channel_set(0), 0, 1), every=0)
        sim.step(1)
        assert diag.maybe_check(sim.subs[0]) is None

    def test_negative_period_rejected(self):
        fabric = LocalFabric(1)
        with pytest.raises(ValueError):
            GlobalDiagnostics(
                Communicator(fabric.channel_set(0), 0, 1), every=-1)


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
        """The acceptance criterion: a NaN injected at step 12 on rank 1
        aborts every worker with EXIT_DIAGNOSTIC by step 12 + 2*5, with
        the failure diagnosed in diag_failure.json — no stall timeout."""
        every, nan_step = 5, 12
        spec = _spec()
        fields = initial_fields(spec, "rest")
        plan = FaultPlan(faults=(Fault("nan", rank=1, step=nan_step),))
        run = DistributedRun(
            spec, fields, tmp_path / "run",
            RunSettings(steps=60, diag_every=every,
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

        failure = json.loads((tmp_path / "run" / "diag_failure.json")
                             .read_text())
        assert failure["reason"].startswith("non-finite")
        assert failure["record"]["n_nonfinite"] >= 1
        assert failure["record"]["step"] <= nan_step + 2 * every

    def test_diagnostics_over_udp_with_loss(self, tmp_path):
        """The diagnostic collective survives the lossy datagram
        transport (acks + retransmission underneath), bit for bit."""
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

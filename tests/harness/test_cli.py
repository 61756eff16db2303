"""The repro.tools command-line interface."""

import numpy as np
import pytest

from repro.tools import main


class TestSimulate:
    def test_channel(self, tmp_path, capsys):
        out = tmp_path / "run.npz"
        rc = main([
            "simulate", "channel", "--shape", "32", "24",
            "--blocks", "2", "1", "--steps", "10", "--out", str(out),
        ])
        assert rc == 0
        data = np.load(out)
        assert set(data.files) >= {"rho", "u", "v", "solid"}
        assert data["rho"].shape == (32, 24)
        text = capsys.readouterr().out
        assert "channel" in text and "2 active" in text

    def test_cylinder_fd(self, tmp_path):
        out = tmp_path / "cyl.npz"
        rc = main([
            "simulate", "cylinder", "--method", "fd", "--shape", "64",
            "32", "--blocks", "2", "2", "--steps", "5",
            "--out", str(out),
        ])
        assert rc == 0
        assert np.isfinite(np.load(out)["u"]).all()

    def test_flue_pipe(self, tmp_path):
        out = tmp_path / "flue.npz"
        rc = main([
            "simulate", "flue_pipe", "--shape", "96", "64",
            "--blocks", "2", "2", "--steps", "5", "--out", str(out),
        ])
        assert rc == 0
        assert np.load(out)["solid"].any()


#: ``repro simulate`` argument sets and the spec each must run, written
#: out by hand (defaults: LB, nu 0.05, force 1e-5, jet 0.08, filter 0.02)
SIMULATE_SPECS = {
    "channel": (
        ["channel", "--shape", "32", "24", "--blocks", "2", "1"],
        dict(method="lb", grid_shape=(32, 24), blocks=(2, 1),
             periodic=(True, False),
             params={"nu": 0.05, "gravity": (1e-5, 0.0),
                     "filter_eps": 0.02},
             geometry={"kind": "channel"}),
    ),
    "cylinder_fd": (
        ["cylinder", "--method", "fd", "--shape", "64", "32",
         "--blocks", "2", "2"],
        dict(method="fd", grid_shape=(64, 32), blocks=(2, 2),
             periodic=(True, False),
             params={"nu": 0.05, "gravity": (1e-5, 0.0),
                     "filter_eps": 0.02},
             geometry={"kind": "cylinder"}),
    ),
    "flue_pipe": (
        ["flue_pipe", "--shape", "96", "64", "--blocks", "2", "2"],
        dict(method="lb", grid_shape=(96, 64), blocks=(2, 2),
             periodic=(False, False),
             params={"nu": 0.05, "gravity": (0.0, 0.0),
                     "filter_eps": 0.02},
             geometry={"kind": "flue_pipe", "jet_speed": 0.08}),
    ),
}


@pytest.mark.parametrize("case", sorted(SIMULATE_SPECS))
def test_simulate_runs_the_equivalent_spec(case, tmp_path, capsys):
    """The arguments map onto the spec: the written fields are bitwise
    those of ``repro.run`` on it, and the solid mask is its geometry."""
    import repro
    from repro.distrib import ProblemSpec

    argv, kw = SIMULATE_SPECS[case]
    out = tmp_path / "run.npz"
    assert main(["simulate", *argv, "--steps", "7", "--out", str(out)]) == 0
    spec = ProblemSpec(**kw)
    ref = repro.run(spec, "serial", steps=7).fields
    data = np.load(out)
    assert set(data.files) == set(ref) | {"solid"}
    for name, want in ref.items():
        assert np.array_equal(data[name], want), name
    assert np.array_equal(data["solid"], spec.build_geometry()[0])


class TestCluster:
    def test_basic_run(self, capsys):
        rc = main([
            "cluster", "--blocks", "4", "1", "--side", "100",
            "--steps", "10",
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "efficiency" in text
        assert "speedup" in text

    def test_network_preset(self, capsys):
        rc = main([
            "cluster", "--blocks", "4", "1", "1", "--side", "20",
            "--steps", "10", "--network", "atm155",
        ])
        assert rc == 0

    def test_loose_sync(self, capsys):
        rc = main([
            "cluster", "--blocks", "2", "1", "--side", "80",
            "--steps", "10", "--sync", "loose",
        ])
        assert rc == 0


class TestScenarios:
    def test_efficiency_on_the_simulated_backend(self, tmp_path, capsys):
        args = ["scenarios", "run", "efficiency", "--backend", "simulated",
                "--set", "blocks=2x2", "--set", "side=20",
                "--set", "steps=5"]
        assert main(args) == 0
        text = capsys.readouterr().out
        assert "efficiency: pass" in text
        assert '"processors": 4' in text
        # a simulated run has no fields to save
        out = tmp_path / "fields.npz"
        assert main(args + ["--out", str(out)]) == 2
        assert "no fields" in capsys.readouterr().err
        assert not out.exists()


class TestCalibrate:
    def test_prints_table_and_writes_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "calibration.json"
        rc = main(["calibrate", "--side", "16", "--steps", "2",
                   "--repeats", "1", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "fluid nodes/s" in text
        data = json.loads(out.read_text())
        assert data["nodes_per_second"] > 0
        assert data["host"]["cpu_count"] >= 1


class TestParsing:
    def test_missing_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_problem(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "tornado"])

    def test_benchmark_is_not_a_command(self, capsys):
        """Benchmarking lives in bench/ (see bench/README.md)."""
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2


class TestPostProcessing:
    def _saved_run(self, tmp_path):
        out = tmp_path / "run.npz"
        main([
            "simulate", "cylinder", "--shape", "64", "32",
            "--blocks", "1", "1", "--steps", "5", "--out", str(out),
        ])
        return out

    def test_image_from_fields(self, tmp_path, capsys):
        out = self._saved_run(tmp_path)
        rc = main(["image", str(out), "--field", "vorticity",
                   "--out", str(tmp_path / "w.ppm")])
        assert rc == 0
        data = (tmp_path / "w.ppm").read_bytes()
        assert data.startswith(b"P6\n")

    def test_image_named_field(self, tmp_path):
        out = self._saved_run(tmp_path)
        rc = main(["image", str(out), "--field", "rho",
                   "--out", str(tmp_path / "rho.ppm")])
        assert rc == 0

    def test_probe_spectrum(self, tmp_path, capsys):
        import numpy as np

        t = np.arange(256)
        np.savez(tmp_path / "p.npz",
                 mouth_probe=np.sin(2 * np.pi * 0.05 * t))
        rc = main(["probe", str(tmp_path / "p.npz")])
        assert rc == 0
        text = capsys.readouterr().out
        assert "dominant frequency: 0.05" in text

    def test_probe_missing_key(self, tmp_path, capsys):
        import numpy as np

        np.savez(tmp_path / "p.npz", other=np.zeros(16))
        rc = main(["probe", str(tmp_path / "p.npz")])
        assert rc == 1

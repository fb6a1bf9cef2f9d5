"""End-to-end tests for the command line driver.

Every test calls ``vackit.cli.main(argv)`` in-process instead of spawning an
interpreter, so exit codes, console text and written files can all be
asserted directly.  The exit-code contract is: 0 success, 1 usage or domain
errors, 2 malformed or unreadable data files.

The numeric oracle reused here: with a 0.22 degree inward offset on each eye
and a 64 mm interpupillary distance, a point fixated at 0.45 m is predicted
at 0.438110417642508 m, an error of -11.8896 mm.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from vackit import __version__, backends, fitting
from vackit.cli import main
from vackit.correction import MeshModel
from vackit.kinematics import read_trajectories_csv, write_trajectories_csv
from vackit.meshio import read_obj, read_points_csv, write_obj, write_points_csv

PREDICT_ERR_045 = -0.011889582357491643


def _write_json(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return str(path)


def _sim_config(path: Path, **overrides) -> str:
    payload = {
        "n_participants": 2,
        "repetitions": 2,
        "reach_distances_m": [0.20, 0.25],
        "seed": 5,
        "beta_deg": 0.22,
        "motor_noise_sd_mm": 3.0,
        "trajectory_noise_sd_mm": 0.2,
    }
    payload.update(overrides)
    return _write_json(path, payload)


def _eye_pose_file(path: Path) -> str:
    return _write_json(path, {"behind_m": 0.30, "above_m": 0.35,
                              "lateral_m": 0.0, "ipd_mm": 63})


def _read_csv_rows(path: Path) -> list[list[str]]:
    import csv

    with path.open("r", encoding="utf-8", newline="") as fh:
        return [row for row in csv.reader(fh) if row]


class TestPredict:
    def test_curve_matches_hand_value(self, tmp_path, capsys):
        out = tmp_path / "pred.csv"
        code = main(["predict", "--beta-deg", "0.22", "--ipd-mm", "64",
                     "--distances", "0.45,0.55", "--out", str(out)])
        assert code == 0
        rows = _read_csv_rows(out)
        assert rows[0] == ["distance_m", "original_error_m",
                           "transformed_error_m"]
        assert len(rows) == 3
        assert float(rows[1][0]) == 0.45
        assert float(rows[1][1]) == pytest.approx(PREDICT_ERR_045, rel=1e-12)
        # the corrected scene should null the predicted error
        assert abs(float(rows[1][2])) < 1e-12
        assert abs(float(rows[2][2])) < 1e-12
        # farther fixation, larger magnitude
        assert float(rows[2][1]) < float(rows[1][1]) < 0
        console = capsys.readouterr().out
        assert "0.450 m" in console and "mm" in console

    def test_zero_offset_curve_is_flat(self, tmp_path):
        out = tmp_path / "flat.csv"
        assert main(["predict", "--beta-deg", "0", "--ipd-mm", "63",
                     "--distances", "0.3,0.5,0.9", "--out", str(out)]) == 0
        rows = _read_csv_rows(out)
        for row in rows[1:]:
            assert abs(float(row[1])) < 1e-12
            assert abs(float(row[2])) < 1e-12

    def test_manifest_written_next_to_output(self, tmp_path):
        out = tmp_path / "pred.csv"
        main(["predict", "--beta-deg", "0.22", "--ipd-mm", "64",
              "--distances", "0.45", "--out", str(out)])
        manifest = json.loads(
            (tmp_path / "pred.csv.manifest.json").read_text(encoding="utf-8"))
        assert manifest["tool"] == "vackit"
        assert manifest["subcommand"] == "predict"
        assert manifest["version"] == __version__
        assert manifest["outputs"] == ["pred.csv"]
        assert manifest["config"]["ipd_mm"] == 64.0

    @pytest.mark.parametrize("bad", ["0.45,-0.5", "abc", "", "0"])
    def test_bad_distances_exit_one(self, tmp_path, capsys, bad):
        code = main(["predict", "--beta-deg", "0.22", "--ipd-mm", "63",
                     "--distances", bad, "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("vackit: error:")


class TestTransform:
    def _mesh_file(self, path: Path) -> MeshModel:
        rng = np.random.default_rng(11)
        vertices = np.column_stack([
            rng.uniform(-0.2, 0.2, 12),
            rng.uniform(-0.2, 0.2, 12),
            rng.uniform(0.3, 1.0, 12),
        ])
        faces = np.array([[0, 1, 2], [2, 3, 4], [4, 5, 6]])
        mesh = MeshModel(vertices=vertices, faces=faces,
                         normal_lines=("vn 0.0 0.0 -1.0",))
        write_obj(mesh, path)
        return mesh

    def test_zero_offset_obj_round_trip_is_byte_identical(self, tmp_path):
        src = tmp_path / "scene.obj"
        dst = tmp_path / "same.obj"
        self._mesh_file(src)
        code = main(["transform", "--in", str(src), "--out", str(dst),
                     "--beta-deg", "0", "--ipd-mm", "63"])
        assert code == 0
        assert dst.read_bytes() == src.read_bytes()

    def test_obj_vertices_move_and_faces_survive(self, tmp_path, capsys):
        src = tmp_path / "scene.obj"
        dst = tmp_path / "corrected.obj"
        mesh = self._mesh_file(src)
        assert main(["transform", "--in", str(src), "--out", str(dst),
                     "--beta-deg", "0.22", "--ipd-mm", "63"]) == 0
        out = read_obj(dst)
        np.testing.assert_array_equal(out.faces, mesh.faces)
        assert out.normal_lines == mesh.normal_lines
        # correcting an inward offset pushes the scene away from the viewer
        assert np.all(out.vertices[:, 2] > mesh.vertices[:, 2])
        np.testing.assert_allclose(out.vertices[:, :2], mesh.vertices[:, :2],
                                   rtol=0, atol=0)
        assert "transformed 12 points" in capsys.readouterr().out

    def test_csv_matches_library_remap(self, tmp_path):
        points = np.array([[0.0, 0.0, 0.45], [0.05, -0.02, 0.6],
                           [-0.1, 0.08, 0.9]])
        src = tmp_path / "points.csv"
        dst = tmp_path / "out.csv"
        write_points_csv(points, src)
        assert main(["transform", "--in", str(src), "--out", str(dst),
                     "--beta-deg", "0.22", "--ipd-mm", "63"]) == 0
        expected, first_bad = backends.remap_points(
            points, half_ipd=0.0315, beta=math.radians(0.22))
        assert first_bad == -1
        np.testing.assert_array_equal(read_points_csv(dst), expected)

    def test_literal_half_angle_flag_changes_depths(self, tmp_path):
        points = np.array([[0.0, 0.0, 0.45], [0.02, 0.01, 0.7]])
        src = tmp_path / "points.csv"
        write_points_csv(points, src)
        plain = tmp_path / "plain.csv"
        compat = tmp_path / "compat.csv"
        main(["transform", "--in", str(src), "--out", str(plain),
              "--beta-deg", "0.22", "--ipd-mm", "63"])
        main(["transform", "--in", str(src), "--out", str(compat),
              "--beta-deg", "0.22", "--ipd-mm", "63",
              "--compat-literal-half-angle"])
        z_plain = read_points_csv(plain)[:, 2]
        z_compat = read_points_csv(compat)[:, 2]
        assert np.max(np.abs(z_compat - z_plain)) > 1e-4
        manifest = json.loads(
            Path(str(compat) + ".manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["compat_literal_half_angle"] is True

    def test_uncorrectable_point_exits_one_with_coordinates(self, tmp_path,
                                                            capsys):
        src = tmp_path / "points.csv"
        write_points_csv(np.array([[0.3, 0.3, 0.05]]), src)
        code = main(["transform", "--in", str(src),
                     "--out", str(tmp_path / "out.csv"),
                     "--beta-deg", str(math.degrees(-0.04)),
                     "--ipd-mm", "63"])
        assert code == 1
        err = capsys.readouterr().err
        assert "cannot be corrected" in err
        assert "point 0" in err

    def test_missing_input_exits_two(self, tmp_path, capsys):
        code = main(["transform", "--in", str(tmp_path / "absent.obj"),
                     "--out", str(tmp_path / "out.obj"),
                     "--beta-deg", "0.22", "--ipd-mm", "63"])
        assert code == 2
        assert capsys.readouterr().err.startswith("vackit: data error:")

    def test_unsupported_extension_exits_one(self, tmp_path, capsys):
        src = tmp_path / "scene.txt"
        src.write_text("not a mesh\n", encoding="utf-8")
        code = main(["transform", "--in", str(src),
                     "--out", str(tmp_path / "out.txt"),
                     "--beta-deg", "0.22", "--ipd-mm", "63"])
        assert code == 1
        assert ".obj or .csv" in capsys.readouterr().err


class TestSimulate:
    def test_writes_dataset_and_manifest(self, tmp_path, capsys):
        cfg = _sim_config(tmp_path / "sim.json")
        outdir = tmp_path / "run"
        code = main(["simulate", "--config", cfg, "--out", str(outdir)])
        assert code == 0
        for name in ("participants.csv", "outcomes.csv", "targets.json",
                     "trajectories.csv", "manifest.json"):
            assert (outdir / name).is_file(), name
        assert "simulated 2 participants, 8 trials" in capsys.readouterr().out
        manifest = json.loads(
            (outdir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["subcommand"] == "simulate"
        assert manifest["config"]["config_file"] == cfg
        assert manifest["config"]["config"]["seed"] == 5
        assert sorted(manifest["outputs"]) == [
            "outcomes.csv", "participants.csv", "targets.json",
            "trajectories.csv",
        ]

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = _sim_config(tmp_path / "sim.json")
        first = tmp_path / "a"
        second = tmp_path / "b"
        main(["simulate", "--config", cfg, "--out", str(first)])
        main(["simulate", "--config", cfg, "--out", str(second)])
        for name in ("participants.csv", "outcomes.csv", "targets.json",
                     "trajectories.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = _sim_config(tmp_path / "sim.json")
        base = tmp_path / "base"
        reseeded = tmp_path / "reseeded"
        main(["simulate", "--config", cfg, "--out", str(base)])
        main(["simulate", "--config", cfg, "--seed", "9",
              "--out", str(reseeded)])
        assert (base / "outcomes.csv").read_bytes() != \
            (reseeded / "outcomes.csv").read_bytes()
        manifest = json.loads(
            (reseeded / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["config"]["seed"] == 9

    def test_env_variable_supplies_default_config(self, tmp_path, monkeypatch):
        cfg = _sim_config(tmp_path / "sim.json", write_trajectories=False)
        monkeypatch.setenv("VACKIT_CONFIG", cfg)
        outdir = tmp_path / "run"
        assert main(["simulate", "--out", str(outdir)]) == 0
        manifest = json.loads(
            (outdir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["config_file"] == cfg

    def test_trajectories_can_be_disabled(self, tmp_path):
        cfg = _sim_config(tmp_path / "sim.json", write_trajectories=False)
        outdir = tmp_path / "run"
        main(["simulate", "--config", cfg, "--out", str(outdir)])
        assert not (outdir / "trajectories.csv").exists()
        manifest = json.loads(
            (outdir / "manifest.json").read_text(encoding="utf-8"))
        assert "trajectories.csv" not in manifest["outputs"]

    def test_unknown_config_key_exits_one_and_names_it(self, tmp_path,
                                                       capsys):
        cfg = _write_json(tmp_path / "sim.json", {"n_participant": 3})
        code = main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert "n_participant" in err and err.startswith("vackit: error:")

    @pytest.mark.parametrize("reaches, message", [
        ("[0.25, NaN]", "reach distances must be finite and positive"),
        ("[0.201, 0.204]", "reach distances 0.201 and 0.204 share the "
                           "trial-id label d0.20; they must differ at two "
                           "decimals"),
    ])
    def test_bad_reach_distances_exit_one(self, tmp_path, capsys, reaches,
                                          message):
        cfg = tmp_path / "sim.json"
        cfg.write_text(f'{{"n_participants": 1, "reach_distances_m": {reaches}}}',
                       encoding="utf-8")
        outdir = tmp_path / "run"
        code = main(["simulate", "--config", cfg.as_posix(),
                     "--out", str(outdir)])
        assert code == 1
        assert capsys.readouterr().err == f"vackit: error: {message}\n"
        assert not outdir.exists()

    def test_malformed_json_exits_two_with_location(self, tmp_path, capsys):
        cfg = tmp_path / "sim.json"
        cfg.write_text("{not json\n", encoding="utf-8")
        code = main(["simulate", "--config", cfg.as_posix(),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("vackit: data error:")
        assert "sim.json" in err


class TestAnalyze:
    @pytest.fixture()
    def simulated(self, tmp_path):
        cfg = _sim_config(tmp_path / "sim.json")
        simdir = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(simdir)]) == 0
        return simdir

    def _analyze_args(self, simdir: Path, tmp_path: Path, outdir: Path,
                      **extra) -> list[str]:
        args = ["analyze",
                "--input", str(simdir / "trajectories.csv"),
                "--targets", str(simdir / "targets.json"),
                "--eye-pose", _eye_pose_file(tmp_path / "pose.json"),
                "--out", str(outdir)]
        for key, value in extra.items():
            args += [f"--{key.replace('_', '-')}", value]
        return args

    def test_pipeline_reproduces_simulated_outcomes(self, simulated,
                                                    tmp_path, capsys):
        outdir = tmp_path / "analysis"
        code = main(self._analyze_args(simulated, tmp_path, outdir))
        assert code == 0
        assert "analyzed 8 trials (8 valid)" in capsys.readouterr().out
        measured = _read_csv_rows(outdir / "outcomes.csv")
        reference = _read_csv_rows(simulated / "outcomes.csv")
        assert measured[0] == reference[0]
        assert [r[0] for r in measured] == [r[0] for r in reference]
        for got, want in zip(measured[1:], reference[1:]):
            assert got[4] == "1"
            # distance error re-measured from noisy trajectories
            assert float(got[8]) == pytest.approx(float(want[8]), abs=1.5e-3)
        summary = _read_csv_rows(outdir / "summary.csv")
        assert summary[0][0] == "condition"
        assert len(summary) == 3  # header + one row per reach distance
        manifest = json.loads(
            (outdir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["outputs"] == ["outcomes.csv", "summary.csv"]

    def test_axes_remap_recovers_foreign_layout(self, simulated, tmp_path):
        trajectories, rejected = read_trajectories_csv(
            simulated / "trajectories.csv")
        assert not rejected
        # foreign file stores depth in x, a flipped y, and x in z
        foreign = [replace(t, x=t.z, y=-t.y, z=t.x) for t in trajectories]
        foreign_path = tmp_path / "foreign.csv"
        write_trajectories_csv(foreign, foreign_path)

        straight = tmp_path / "straight"
        remapped = tmp_path / "remapped"
        assert main(self._analyze_args(simulated, tmp_path, straight)) == 0
        args = self._analyze_args(simulated, tmp_path, remapped,
                                  axes="z,-y,x")
        args[args.index("--input") + 1] = str(foreign_path)
        assert main(args) == 0
        assert (remapped / "outcomes.csv").read_bytes() == \
            (straight / "outcomes.csv").read_bytes()

    def test_missing_target_marks_trial_invalid(self, simulated, tmp_path):
        targets = json.loads(
            (simulated / "targets.json").read_text(encoding="utf-8"))
        dropped = sorted(targets)[0]
        del targets[dropped]
        slim = tmp_path / "targets.json"
        _write_json(slim, targets)
        outdir = tmp_path / "analysis"
        args = self._analyze_args(simulated, tmp_path, outdir)
        args[args.index("--targets") + 1] = str(slim)
        assert main(args) == 0
        rows = {r[0]: r for r in _read_csv_rows(outdir / "outcomes.csv")[1:]}
        assert rows[dropped][4] == "0"
        assert rows[dropped][5] == "no target"

    def test_zero_ipd_trial_rejected_not_fatal(self, simulated, tmp_path):
        targets = json.loads(
            (simulated / "targets.json").read_text(encoding="utf-8"))
        bad = sorted(targets)[0]
        targets[bad]["ipd_m"] = 0.0
        edited = tmp_path / "targets.json"
        _write_json(edited, targets)
        outdir = tmp_path / "analysis"
        args = self._analyze_args(simulated, tmp_path, outdir)
        args[args.index("--targets") + 1] = str(edited)
        assert main(args) == 0
        rows = {r[0]: r for r in _read_csv_rows(outdir / "outcomes.csv")[1:]}
        assert rows[bad][4:6] == ["0", "bad ipd"]
        assert sum(row[4] == "1" for row in rows.values()) == len(rows) - 1

    def test_single_sample_trial_is_missing_data(self, simulated, tmp_path):
        with (simulated / "trajectories.csv").open(
                "a", encoding="utf-8", newline="") as fh:
            fh.write("lone,0.0,0.0,0.0,0.0\r\n")
        outdir = tmp_path / "analysis"
        assert main(self._analyze_args(simulated, tmp_path, outdir)) == 0
        rows = {r[0]: r for r in _read_csv_rows(outdir / "outcomes.csv")[1:]}
        assert rows["lone"][4:6] == ["0", "missing data"]
        assert sum(row[4] == "1" for row in rows.values()) == 8

    def test_unknown_target_field_exits_one(self, simulated, tmp_path,
                                            capsys):
        targets = json.loads(
            (simulated / "targets.json").read_text(encoding="utf-8"))
        first = sorted(targets)[0]
        targets[first]["reach_mm"] = 250
        bad = tmp_path / "targets.json"
        _write_json(bad, targets)
        outdir = tmp_path / "analysis"
        args = self._analyze_args(simulated, tmp_path, outdir)
        args[args.index("--targets") + 1] = str(bad)
        assert main(args) == 1
        assert "reach_mm" in capsys.readouterr().err

    @pytest.mark.parametrize("axes", ["x,y", "x,y,y", "x,y,w", "x,,z"])
    def test_bad_axes_exit_one(self, simulated, tmp_path, capsys, axes):
        args = self._analyze_args(simulated, tmp_path, tmp_path / "out",
                                  axes=axes)
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("vackit: error:")

    def test_eye_pose_requires_ipd(self, simulated, tmp_path, capsys):
        pose = _write_json(tmp_path / "no-ipd.json",
                           {"behind_m": 0.3, "above_m": 0.35})
        args = self._analyze_args(simulated, tmp_path, tmp_path / "out")
        args[args.index("--eye-pose") + 1] = pose
        assert main(args) == 1
        assert "ipd_mm" in capsys.readouterr().err

    def test_missing_input_exits_two(self, tmp_path, capsys):
        args = ["analyze", "--input", str(tmp_path / "absent.csv"),
                "--targets", _write_json(tmp_path / "t.json", {}),
                "--eye-pose", _eye_pose_file(tmp_path / "pose.json"),
                "--out", str(tmp_path / "out")]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("vackit: data error:")


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fit-data")
    cfg = _sim_config(tmp / "sim.json", n_participants=4, repetitions=6,
                      reach_distances_m=[0.20, 0.25, 0.30],
                      motor_noise_sd_mm=2.0, write_trajectories=False)
    simdir = tmp / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(simdir)]) == 0
    return simdir / "outcomes.csv"


class TestFit:
    def _fit_config(self, path: Path) -> str:
        return _write_json(path, {"ipd_bounds_mm": [58, 68]})

    def test_both_variants_write_comparison_and_fits(self, outcomes,
                                                     tmp_path, capsys):
        outdir = tmp_path / "fits"
        code = main(["fit", "--input", str(outcomes),
                     "--config", self._fit_config(tmp_path / "fit.json"),
                     "--out", str(outdir)])
        assert code == 0
        captured = capsys.readouterr()
        assert "condition original: selected with-offset" in captured.out
        assert "not converged" not in captured.out
        assert captured.err == ""
        comparison = _read_csv_rows(outdir / "comparison.csv")
        assert len(comparison) == 3  # header + two variants
        selected = {row[1]: row[-1] for row in comparison[1:]}
        assert selected == {"with-offset": "1", "zero-offset": "0"}
        for variant in ("with-offset", "zero-offset"):
            assert (outdir / f"fit_original_{variant}.json").is_file()
        manifest = json.loads(
            (outdir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["outputs"] == [
            "comparison.csv", "fit_original_with-offset.json",
            "fit_original_zero-offset.json",
        ]

    def test_fit_json_recovers_offset(self, outcomes, tmp_path):
        outdir = tmp_path / "fits"
        main(["fit", "--input", str(outcomes),
              "--config", self._fit_config(tmp_path / "fit.json"),
              "--out", str(outdir)])
        payload = json.loads(
            (outdir / "fit_original_with-offset.json").read_text(
                encoding="utf-8"))
        assert payload["variant"] == "with-offset"
        assert payload["converged"] is True
        assert payload["beta_deg"] == pytest.approx(0.22, abs=0.1)
        assert sorted(payload["ipd_mm"]) == ["p00", "p01", "p02", "p03"]
        for value in payload["ipd_mm"].values():
            assert 58.0 <= value <= 68.0

    def test_single_variant_skips_comparison(self, outcomes, tmp_path,
                                             capsys):
        outdir = tmp_path / "fits"
        code = main(["fit", "--input", str(outcomes),
                     "--variant", "zero-offset", "--out", str(outdir)])
        assert code == 0
        assert "beta = +0.0000 deg" in capsys.readouterr().out
        assert not (outdir / "comparison.csv").exists()
        assert (outdir / "fit_original_zero-offset.json").is_file()

    @pytest.mark.parametrize("variant", ["both", "with-offset"])
    def test_unconverged_fit_flagged(self, outcomes, tmp_path, monkeypatch,
                                     capsys, variant):
        # one iteration cannot converge the with-offset fit; the
        # zero-offset fit stops on its first step
        monkeypatch.setattr(fitting, "levenberg_marquardt",
                            partial(fitting.levenberg_marquardt, max_iter=1))
        outdir = tmp_path / "fits"
        code = main(["fit", "--input", str(outcomes), "--variant", variant,
                     "--config", self._fit_config(tmp_path / "fit.json"),
                     "--out", str(outdir)])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "vackit: warning: condition original: with-offset fit did not "
            "converge (stop_reason max_iter after 1 iterations)"]
        line, = captured.out.splitlines()
        assert line.startswith("condition original: ")
        assert line.endswith(" (not converged)")
        payload = json.loads((outdir / "fit_original_with-offset.json")
                             .read_text(encoding="utf-8"))
        assert (payload["converged"], payload["stop_reason"],
                payload["n_iter"]) == (False, "max_iter", 1)

    def test_config_via_environment(self, outcomes, tmp_path, monkeypatch):
        cfg = self._fit_config(tmp_path / "fit.json")
        monkeypatch.setenv("VACKIT_CONFIG", cfg)
        outdir = tmp_path / "fits"
        assert main(["fit", "--input", str(outcomes),
                     "--out", str(outdir)]) == 0
        manifest = json.loads(
            (outdir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["config_file"] == cfg
        assert manifest["config"]["config"]["ipd_bounds_mm"] == [58, 68]

    def test_unknown_config_field_exits_one(self, outcomes, tmp_path,
                                            capsys):
        cfg = _write_json(tmp_path / "fit.json", {"ipd_bounds": [58, 68]})
        code = main(["fit", "--input", str(outcomes), "--config", cfg,
                     "--out", str(tmp_path / "fits")])
        assert code == 1
        assert "ipd_bounds" in capsys.readouterr().err

    def test_invalid_variant_is_usage_error(self, outcomes, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["fit", "--input", str(outcomes), "--variant", "bogus",
                  "--out", str(tmp_path / "fits")])
        assert excinfo.value.code == 1

    def test_missing_input_exits_two(self, tmp_path, capsys):
        code = main(["fit", "--input", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path / "fits")])
        assert code == 2
        assert capsys.readouterr().err.startswith("vackit: data error:")

    def test_bad_header_exits_two_with_line(self, tmp_path, capsys):
        bad = tmp_path / "outcomes.csv"
        bad.write_text("trial,participant\nx,y\n", encoding="utf-8")
        code = main(["fit", "--input", str(bad),
                     "--out", str(tmp_path / "fits")])
        assert code == 2
        err = capsys.readouterr().err
        assert "outcomes.csv" in err


class TestTopLevel:
    def test_version_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 1
        assert "usage:" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 1

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

import csv
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vackit import __version__, cli, fitting, synth
from vackit.cli import main
from vackit.correction import MeshModel, transform_mesh, transform_points
from vackit.geometry import EyeGeometry
from vackit.kinematics import (
    AnalyzedTrial,
    EyePose,
    TargetSpec,
    Trajectory,
    outcome_columns,
    read_trajectories_csv,
    trial_outcome,
    write_outcomes_csv,
    write_trajectories_csv,
)
from vackit.meshio import read_obj, read_points_csv, write_obj, write_points_csv
from vackit.perception import PerturbationParams

PREDICT_ERR_045 = -0.011889582357491643
COMPAT_FLAGS = ([], ["--compat-literal-half-angle"])


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

    # nan and inf must be refused before the angle checks, whose messages
    # do not name --distances
    @pytest.mark.parametrize("bad", ["0.45,-0.5", "abc", "", "0", "nan",
                                     "0.45,inf"])
    def test_bad_distances_exit_one(self, tmp_path, capsys, bad):
        code = main(["predict", "--beta-deg", "0.22", "--ipd-mm", "63",
                     "--distances", bad, "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("vackit: error: --distances ")
        assert len(err.splitlines()) == 1

    def test_too_near_to_correct_exits_one(self, tmp_path, capsys):
        # at 0.5 mm the corrected angle of a -2.2 deg offset passes pi; the
        # remap used to return a negative depth and fail one step later
        code = main(["predict", "--beta-deg", "-2.2", "--ipd-mm", "64",
                     "--distances", "0.0005", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            "vackit: error: corrected angle must be in (0, pi), got "
            f"{2.0 * math.atan2(0.032, 0.0005) + math.radians(2.2)!r}\n")


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
        for compat in COMPAT_FLAGS:
            code = main(["transform", "--in", str(src), "--out", str(dst),
                         "--beta-deg", "0", "--ipd-mm", "63", *compat])
            assert code == 0
            assert dst.read_bytes() == src.read_bytes(), compat

    def test_zero_offset_csv_round_trip_is_bitwise(self, tmp_path):
        points = np.random.default_rng(12).uniform(
            [-0.3, -0.3, 0.2], [0.3, 0.3, 1.5], (400, 3))
        src = tmp_path / "points.csv"
        dst = tmp_path / "same.csv"
        write_points_csv(points, src)
        for compat in COMPAT_FLAGS:
            assert main(["transform", "--in", str(src), "--out", str(dst),
                         "--beta-deg", "0", "--ipd-mm", "63", *compat]) == 0
            assert dst.read_bytes() == src.read_bytes(), compat
            assert read_points_csv(dst).tobytes() == points.tobytes()

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

    # the CLI remaps the array it read in place, the library a copy, and the
    # half-angle variant is the library's remap at twice the offset; the OBJ
    # is a quad grid of many parse chunks, v//vn tokens, negative references
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("suffix", [".csv", ".obj"])
    def test_matches_library_remap(self, tmp_path, suffix):
        src, dst, library = (tmp_path / f"{name}{suffix}"
                             for name in ("in", "out", "library"))
        read, write, remap = {
            ".csv": (read_points_csv, write_points_csv, transform_points),
            ".obj": (read_obj, write_obj, transform_mesh)}[suffix]
        if suffix == ".csv":
            rng = np.random.default_rng(13)
            write_points_csv(np.vstack([
                [[0.0, 0.0, 0.45], [0.05, -0.02, 0.6], [-0.1, 0.08, 0.9]],
                rng.uniform([-0.3, -0.3, 0.2], [0.3, 0.3, 1.5], (2000, 3))]), src)
        else:
            n = 120
            src.write_text("\n".join([
                "# grid", *(f"v {0.01 * c!r} {0.01 * r!r} {0.6 + 0.001 * (r * c % 7)!r}"
                            for r in range(n) for c in range(n)),
                "vn 0.0 0.0 -1.0", *(f"f {a - n * n}//1 {a + 1 - n * n}//1 "
                                     f"{a + n + 1 - n * n}//1 {a + n - n * n}//1"
                                     for a in range(n * n - n) if a % n < n - 1),
            ]) + "\n", encoding="utf-8")
            assert src.stat().st_size > 1 << 18
        beta = math.radians(0.22)
        for compat in COMPAT_FLAGS:
            assert main(["transform", "--in", str(src), "--out", str(dst),
                         "--beta-deg", "0.22", "--ipd-mm", "63", *compat]) == 0
            write(remap(read(src), EyeGeometry(ipd=0.063),
                        PerturbationParams(2 * beta if compat else beta)), library)
            assert dst.read_bytes() == library.read_bytes(), compat

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

    @pytest.mark.parametrize("compat, message", [
        ([], "point 1 at (0.0, 0.0, 0.0005) cannot be corrected"),
        (["--compat-literal-half-angle"],
         "point 1 at (0.0, 0.0, 0.0005) cannot be corrected"),
    ])
    def test_too_near_point_exits_one(self, tmp_path, capsys, compat, message):
        src = tmp_path / "points.csv"
        write_points_csv(np.array([[0.0, 0.0, 0.45], [0.0, 0.0, 0.0005]]), src)
        code = main(["transform", "--in", str(src),
                     "--out", str(tmp_path / "out.csv"),
                     "--beta-deg", str(math.degrees(-0.04)),
                     "--ipd-mm", "64", *compat])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("compat", [[], ["--compat-literal-half-angle"]])
    def test_too_near_vertex_exits_one(self, tmp_path, capsys, compat):
        src = tmp_path / "scene.obj"
        vertices = np.array([[0.0, 0.0, 0.45], [0.1, 0.0, 0.5],
                             [0.0, 0.0, 0.0005]])
        write_obj(MeshModel(vertices=vertices, faces=np.array([[0, 1, 2]])),
                  src)
        code = main(["transform", "--in", str(src),
                     "--out", str(tmp_path / "out.obj"),
                     "--beta-deg", str(math.degrees(-0.04)),
                     "--ipd-mm", "64", *compat])
        assert code == 1
        err = capsys.readouterr().err
        assert "vertex 2 at (0.0, 0.0, 0.0005) cannot be corrected" in err
        assert "corrected angle" not in err
        assert not (tmp_path / "out.obj").exists()

    @pytest.mark.parametrize("compat", [[], ["--compat-literal-half-angle"]])
    def test_first_bad_point_named(self, tmp_path, capsys, compat):
        # behind the viewer and too near: the first one is reported
        src = tmp_path / "points.csv"
        write_points_csv(np.array([[0.0, 0.0, 0.45], [0.25, -0.5, -0.75],
                                   [0.0, 0.0, 0.0005]]), src)
        code = main(["transform", "--in", str(src),
                     "--out", str(tmp_path / "out.csv"),
                     "--beta-deg", str(math.degrees(-0.04)),
                     "--ipd-mm", "64", *compat])
        assert code == 1
        assert capsys.readouterr().err == (
            "vackit: error: point 1 at (0.25, -0.5, -0.75) cannot be "
            "corrected\n")

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

    # a NUL (which csv refuses before Python 3.11) and a field over csv's
    # 131,072-character limit are data errors, not tracebacks
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("row", ["0.0,0.0\0,0.45", "1" * 131_073 + ",0.0,0.45"],
                             ids=["nul", "long-field"])
    def test_unreadable_field_exits_two(self, tmp_path, capsys, row):
        src = tmp_path / "bad.csv"
        src.write_text(f"x,y,z\n{row}\n", encoding="utf-8")
        assert main(["transform", "--in", str(src), "--out", str(tmp_path / "out.csv"),
                     "--beta-deg", "0.22", "--ipd-mm", "63"]) == 2
        err, = capsys.readouterr().err.splitlines()
        assert err.startswith("vackit: data error: ")


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

    @pytest.mark.parametrize("overrides, message", [
        ({"sample_rate_hz": 20.0, "trajectory_noise_sd_mm": 0.0},
         "need >= 25 samples, got 19"),
        ({"trajectory_noise_sd_mm": 1.7e308}, "samples must be finite")])
    def test_trial_trajectory_refuses_exits_one(self, tmp_path, capsys,
                                                monkeypatch, overrides,
                                                message):
        # the two cases of TestGenerateTrajectories in test_synth.py.  A
        # field in millimeters cannot hold 1.7e308 m, so the noise is read in
        # meters here.  The refusal leaves no file: the short trials are
        # refused before the directory is made, the non-finite block after
        # it, when the trajectories, written first, take their file with them
        monkeypatch.setitem(cli._SIM_FIELDS, "trajectory_noise_sd_mm",
                            ("trajectory_noise_sd", cli._json_float))
        cfg = _sim_config(tmp_path / "sim.json", **overrides)
        outdir = tmp_path / "run"
        with np.errstate(all="ignore"):
            code = main(["simulate", "--config", cfg, "--out", str(outdir)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"vackit: error: trial p00-original-d0.20-r000: {message}\n")
        assert not (outdir / "trajectories.csv").exists()
        assert not (outdir / "manifest.json").exists()
        assert list(outdir.glob("*")) == []

    @pytest.mark.parametrize("noise_mm", [0.2, 0.0])
    @pytest.mark.parametrize("block", [16, 64])
    def test_streamed_trajectories_equal_the_table_written(
            self, tmp_path, monkeypatch, block, noise_mm):
        # 4 participants of 20 trials on one t grid: blocks of 16 and of 64
        # each cut a participant's trials, and every block edge cuts the t
        # grid's run.  The reference is written from one table of one block.
        cfg = _sim_config(tmp_path / "sim.json", n_participants=4,
                          repetitions=5,
                          reach_distances_m=[0.20, 0.25, 0.30, 0.35],
                          trajectory_noise_sd_mm=noise_mm)
        config, _ = cli._sim_config_from_dict(
            json.loads(Path(cfg).read_text(encoding="utf-8")))
        people = synth.generate_participants(config)
        trials = synth.generate_trials(config, people)
        assert len(trials) == 80
        reference = tmp_path / "reference.csv"
        write_trajectories_csv(
            synth.generate_trajectories(config, trials, people), reference)
        monkeypatch.setattr(synth, "BLOCK_TRIALS", block)
        outdir = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(outdir)]) == 0
        assert (outdir / "trajectories.csv").read_bytes() == \
            reference.read_bytes()

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

    @pytest.mark.parametrize("cutoff", ["nan", "inf", "0", "-10"])
    def test_bad_cutoff_exits_one_without_a_trial_filtered(self, simulated,
                                                           tmp_path, capsys,
                                                           cutoff):
        # with no targets no trial reaches the filter, whose Nyquist check
        # once was the only one: nan exited 0 with every trial rejected
        args = self._analyze_args(simulated, tmp_path, tmp_path / "out",
                                  cutoff_hz=cutoff)
        args[args.index("--targets") + 1] = _write_json(
            tmp_path / "targets.json", {})
        assert main(args) == 1
        err, = capsys.readouterr().err.splitlines()
        assert err == (f"vackit: error: cutoff must be finite and > 0 Hz, "
                       f"got {float(cutoff)!r}")
        assert not (tmp_path / "out" / "outcomes.csv").exists()

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

    @pytest.mark.filterwarnings("error")
    def test_long_trials_equal_per_trial_outcomes(self, tmp_path):
        # 96 trials of 8,001 samples, two 64-trial windows of one block,
        # against trial_outcome on each trial alone, with its target and ipd_m
        simdir, outdir = tmp_path / "sim", tmp_path / "analysis"
        assert main(["simulate", "--config", _write_json(tmp_path / "sim.json", {
            "n_participants": 2, "seed": 5, "sample_rate_hz": 5000,
            "rest_padding_s": 0.6}), "--out", str(simdir)]) == 0
        assert main(self._analyze_args(simdir, tmp_path, outdir)) == 0
        targets = json.loads((simdir / "targets.json").read_text(encoding="utf-8"))
        specs = {trial_id: TargetSpec(trial_id=trial_id, **fields)
                 for trial_id, fields in targets.items()}
        trials, rejected = read_trajectories_csv(simdir / "trajectories.csv")
        assert len(trials) == 96 and len(trials[0]) == 8001 and not rejected
        pose = EyePose(behind_m=0.30, above_m=0.35, lateral_m=0.0)
        per_trial = [AnalyzedTrial(specs[tr.trial_id], trial_outcome(
            tr, specs[tr.trial_id], EyeGeometry(ipd=specs[tr.trial_id].ipd_m), pose))
            for tr in trials]
        write_outcomes_csv(outcome_columns(per_trial), tmp_path / "per-trial.csv")
        assert (tmp_path / "per-trial.csv").read_bytes() == \
            (outdir / "outcomes.csv").read_bytes()

    def test_bom_prefixed_json_inputs(self, simulated, tmp_path):
        # a leading UTF-8 byte-order mark on the simulate config, the
        # targets and the eye pose changes nothing
        def bom_copy(path: Path) -> str:
            copy = tmp_path / f"bom_{path.name}"
            copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
            return str(copy)

        bom_sim = tmp_path / "bom_sim"
        assert main(["simulate", "--config", bom_copy(tmp_path / "sim.json"),
                     "--out", str(bom_sim)]) == 0
        assert (bom_sim / "outcomes.csv").read_bytes() == \
            (simulated / "outcomes.csv").read_bytes()
        plain = tmp_path / "plain"
        assert main(self._analyze_args(simulated, tmp_path, plain)) == 0
        bom = tmp_path / "bom"
        assert main(["analyze",
                     "--input", str(simulated / "trajectories.csv"),
                     "--targets", bom_copy(simulated / "targets.json"),
                     "--eye-pose", bom_copy(tmp_path / "pose.json"),
                     "--out", str(bom)]) == 0
        assert (bom / "outcomes.csv").read_bytes() == \
            (plain / "outcomes.csv").read_bytes()

    def test_cli_analyze_leaves_numpy_ma_unloaded(self, simulated, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(fitting.__file__).resolve().parents[1]),
            env.get("PYTHONPATH")]))
        args = self._analyze_args(simulated, tmp_path, tmp_path / "analysis")
        code = ("import sys; from vackit.cli import main; "
                f"rc = main({args!r}); "
                "print(rc, 'numpy.ma' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.splitlines()[-1] == "0 False", out.stderr

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

    def test_axes_remap_in_place_with_one_row_of_scratch(self):
        """Every signed permutation of x, y and z gives the bits of a
        fancy-indexed copy, in place, holding one row of scratch at most."""
        xyz0 = np.random.default_rng(8).normal(size=(3, 20_000))
        xyz0[:, :4] = [0.0, -0.0, np.nan, np.inf]
        for order in itertools.permutations("xyz"):
            for signs in itertools.product(["", "-"], repeat=3):
                axes = cli._parse_axes(",".join(map("".join, zip(signs, order))))
                want = (xyz0[["xyz".index(axis) for axis, _ in axes]]
                        * [[sign] for _, sign in axes])
                xyz = xyz0.copy()
                tracemalloc.start()
                try:
                    cli._remap_rows(xyz, axes)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert np.array_equal(xyz.view(np.int64), want.view(np.int64))
                assert peak <= xyz0[0].nbytes + 1024

    def test_axes_remap_adds_at_most_a_row_to_analyze(self, tmp_path,
                                                      monkeypatch):
        """analyze --axes holds no more than analyze without it, plus one
        row, both at its peak and once the trials are analyzed: the
        reader's array is remapped, not copied."""
        simulated = tmp_path / "sim"
        assert main(["simulate", "--config", _write_json(
            tmp_path / "sim.json", {"n_participants": 4, "seed": 0}),
            "--out", str(simulated)]) == 0
        samples = read_trajectories_csv(
            simulated / "trajectories.csv")[0].xyz.shape[1]
        held = []
        analyze = cli.analyze_trials
        monkeypatch.setattr(cli, "analyze_trials", lambda *args, **kw: (
            held.append(tracemalloc.get_traced_memory()[0])
            or analyze(*args, **kw)))
        peaks = []
        for axes in ("x,y,z", "x,y,z", "y,x,-z"):  # the first run warms up
            args = self._analyze_args(simulated, tmp_path, tmp_path / axes,
                                      axes=axes)
            tracemalloc.start()
            try:
                assert main(args) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert held[2] <= held[1] + 8 * samples
        assert peaks[2] <= peaks[1] + 8 * samples

    @pytest.mark.parametrize("axes", ["x,y,z", "z,-y,x"])
    def test_simulate_and_analyze_build_no_trajectory(self, tmp_path,
                                                      monkeypatch, axes):
        # one trial table goes from producer to consumer: no Trajectory is
        # built, so none is checked trial by trial
        calls = []
        post_init = Trajectory.__post_init__
        monkeypatch.setattr(Trajectory, "__post_init__",
                            lambda traj: calls.append(traj) or post_init(traj))
        simdir = tmp_path / "sim"
        assert main(["simulate", "--config", _sim_config(tmp_path / "sim.json"),
                     "--out", str(simdir)]) == 0
        assert main(self._analyze_args(simdir, tmp_path, tmp_path / "analysis",
                                       axes=axes)) == 0
        assert calls == []
        # the count is live: indexing the reader's table builds one
        read_trajectories_csv(simdir / "trajectories.csv")[0][0]
        assert len(calls) == 1

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

    @pytest.mark.parametrize("field, value", [
        ("reach_m", math.nan), ("reach_m", -0.25), ("x_m", math.inf),
        ("go_cue_time_s", math.nan)])
    def test_bad_target_rejected_and_fit_runs(self, tmp_path, field, value):
        # enough repetitions that the fit keeps more test rows than
        # parameters without the rejected trial
        simdir = tmp_path / "sim"
        cfg = _sim_config(tmp_path / "sim.json", repetitions=6)
        assert main(["simulate", "--config", cfg, "--out", str(simdir)]) == 0
        targets = json.loads(
            (simdir / "targets.json").read_text(encoding="utf-8"))
        bad = sorted(targets)[0]
        targets[bad][field] = value
        edited = tmp_path / "targets.json"
        _write_json(edited, targets)
        outdir = tmp_path / "analysis"
        args = self._analyze_args(simdir, tmp_path, outdir)
        args[args.index("--targets") + 1] = str(edited)
        assert main(args) == 0
        rows = {r[0]: r for r in _read_csv_rows(outdir / "outcomes.csv")[1:]}
        assert rows[bad][4:6] == ["0", "bad target"]
        assert sum(row[4] == "1" for row in rows.values()) == len(rows) - 1
        assert main(["fit", "--input", str(outdir / "outcomes.csv"),
                     "--out", str(tmp_path / "fits")]) == 0

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
        # the zero-offset variant predicts zero everywhere and is not solved
        payload = json.loads((outdir / "fit_original_zero-offset.json")
                             .read_text(encoding="utf-8"))
        assert (payload["n_iter"], payload["stop_reason"]) == (0, "closed_form")

    @pytest.mark.parametrize("variant", ["both", "with-offset"])
    def test_unconverged_fit_flagged(self, outcomes, tmp_path, monkeypatch,
                                     capsys, variant):
        # one iteration cannot converge the with-offset fit; the
        # zero-offset fit has nothing to solve
        monkeypatch.setattr(fitting, "MAX_ITER", 1)
        outdir = tmp_path / "fits"
        code = main(["fit", "--input", str(outcomes), "--variant", variant,
                     "--config", self._fit_config(tmp_path / "fit.json"),
                     "--out", str(outdir)])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "vackit: warning: condition original: with-offset fit did not "
            "converge (stop_reason max_iter after 1 iterations)"]
        # the suffix marks the fit a condition reports: with both variants
        # that is the selected fit, which is always converged
        line, = captured.out.splitlines()
        assert line.startswith("condition original: ")
        assert line.endswith(" (not converged)") == (variant == "with-offset")
        payload = json.loads((outdir / "fit_original_with-offset.json")
                             .read_text(encoding="utf-8"))
        assert (payload["converged"], payload["stop_reason"],
                payload["n_iter"]) == (False, "max_iter", 1)

    def test_stalled_fit_keeps_the_closed_form_result(self, tmp_path,
                                                      capsys):
        # at beta = 0 the model predicts 0 for any distance, so on this
        # corrected cohort no damping makes a step acceptable; the stalled
        # fit must still leave the closed-form fit to select
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", _write_json(
            tmp_path / "sim.json",
            {"n_participants": 250, "repetitions": 12, "seed": 4,
             "condition": "transformed", "write_trajectories": False}),
            "--out", str(sim)]) == 0
        outdir = tmp_path / "fits"
        capsys.readouterr()
        assert main(["fit", "--input", str(sim / "outcomes.csv"),
                     "--out", str(outdir)]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "vackit: warning: condition transformed: with-offset fit did not "
            "converge (stop_reason damping_limit after 1 iterations)"]
        assert captured.out.splitlines() == [
            "condition transformed: selected zero-offset (test BIC -40289.3)"]
        payload = json.loads((outdir / "fit_transformed_with-offset.json")
                             .read_text(encoding="utf-8"))
        assert (payload["converged"], payload["stop_reason"]) == \
            (False, "damping_limit")
        _, *rows = _read_csv_rows(outdir / "comparison.csv")
        assert {row[1]: row[-1] for row in rows} == \
            {"with-offset": "0", "zero-offset": "1"}

    def test_unconverged_fit_is_never_selected(self, outcomes, tmp_path,
                                               monkeypatch):
        # after one iteration the with-offset fit has the lower test BIC,
        # but only a converged fit may be selected
        monkeypatch.setattr(fitting, "MAX_ITER", 1)
        outdir = tmp_path / "fits"
        assert main(["fit", "--input", str(outcomes),
                     "--config", self._fit_config(tmp_path / "fit.json"),
                     "--out", str(outdir)]) == 0
        payload = json.loads((outdir / "fit_original_with-offset.json")
                             .read_text(encoding="utf-8"))
        assert payload["converged"] is False
        _, *rows = _read_csv_rows(outdir / "comparison.csv")
        selected = {row[1]: row[-1] for row in rows}
        assert selected == {"with-offset": "0", "zero-offset": "1"}

    @pytest.mark.parametrize("variant", ["both", "with-offset"])
    def test_identifiability_warning_is_one_line(self, outcomes, tmp_path,
                                                 capsys, variant):
        # p00 keeps one reach distance, so both variants warn about it
        header, *rows = _read_csv_rows(outcomes)
        pid, reach = header.index("participant_id"), header.index("target_reach_m")
        kept = [row for row in rows
                if row[pid] != "p00" or float(row[reach]) == 0.30]
        single = tmp_path / "outcomes.csv"
        with single.open("w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([header] + kept)
        code = main(["fit", "--input", str(single), "--variant", variant,
                     "--config", self._fit_config(tmp_path / "fit.json"),
                     "--out", str(tmp_path / "fits")])
        assert code == 0
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "vackit: warning: condition original: participant 'p00' has "
            "fewer than two distinct reach distances in the training rows; "
            "the offset and that participant's interpupillary distance are "
            "not separable"]
        assert "fitting.py" not in err

    def test_other_warnings_pass_through(self, outcomes, tmp_path,
                                         monkeypatch):
        real_fit = fitting.fit

        def noisy_fit(*args, **kwargs):
            warnings.warn("solver note", RuntimeWarning)
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(fitting, "fit", noisy_fit)
        with pytest.warns(RuntimeWarning, match="solver note"):
            assert main(["fit", "--input", str(outcomes),
                         "--out", str(tmp_path / "fits")]) == 0

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

    def test_row_without_text_fields_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "outcomes.csv"
        bad.write_text("target_reach_m,distance_error_m,participant_id,"
                       "condition\n0.30,-0.03,p0,original\n0.30,-0.03\n",
                       encoding="utf-8")
        code = main(["fit", "--input", str(bad),
                     "--out", str(tmp_path / "fits")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("vackit: data error: bad text fields in ")
        assert f"[{bad}:3]" in err

    @pytest.mark.parametrize("variant", ["both", "with-offset",
                                         "zero-offset"])
    def test_eye_at_a_target_exits_one(self, outcomes, tmp_path, capsys,
                                       variant):
        # 0.25 m in front of the home position, the eye sits on the 0.25 m
        # target, where no vergence angle is defined
        cfg = _write_json(tmp_path / "fit.json", {"eye_pose": {
            "behind_m": -0.25, "above_m": 0.0, "lateral_m": 0.0}})
        code = main(["fit", "--input", str(outcomes), "--variant", variant,
                     "--config", cfg, "--out", str(tmp_path / "fits")])
        assert code == 1
        err, = capsys.readouterr().err.splitlines()
        assert err == (
            "vackit: error: eye_pose puts the eye 0.0 m from the target at "
            "reach 0.25 m; eye distances must be finite and positive")

    @pytest.mark.parametrize("variant", ["both", "with-offset",
                                         "zero-offset"])
    @pytest.mark.parametrize("participants, reaches, repetitions, half, "
                             "n_rows", [
        (3, [0.20, 0.25], 1, "test", 0),
        (3, [0.25], 4, "test", 3),
        (3, [0.25], 1, "training", 3),
        (1, [0.20, 0.30], 2, "training", 2),
    ], ids=["one-row-cells", "one-reach", "one-trial", "with-offset-only"])
    def test_short_split_exits_one(self, tmp_path, capsys, variant,
                                   participants, reaches, repetitions, half,
                                   n_rows):
        # one-row cells go to training whole, so a test split can be empty
        sim = tmp_path / "sim"
        cfg = _write_json(tmp_path / "sim.json", {
            "n_participants": participants, "repetitions": repetitions,
            "reach_distances_m": reaches, "write_trajectories": False})
        assert main(["simulate", "--config", cfg, "--out", str(sim)]) == 0
        capsys.readouterr()
        code = main(["fit", "--input", str(sim / "outcomes.csv"),
                     "--variant", variant, "--out", str(tmp_path / "fits")])
        # both fits its with-offset variant first
        fitted = "zero-offset" if variant == "zero-offset" else "with-offset"
        k = participants + (fitted == "with-offset")
        if n_rows > k:
            # the split is short for the with-offset k only: the zero-offset
            # fit alone runs, while both, which scores the two, exits 1
            assert code == 0
            assert (tmp_path / "fits" / "fit_original_zero-offset.json").is_file()
            return
        assert code == 1
        err, = capsys.readouterr().err.splitlines()
        assert err == (
            f"vackit: error: the {half} split has {n_rows} rows, not more "
            f"than the k={k} parameters of the {fitted} fit: each "
            f"(participant, reach) cell splits at the train fraction, and a "
            f"cell of one row goes to training whole")

    @pytest.mark.parametrize("payload, key", [
        ({"ipd_bounds_mm": [58, math.inf]}, "ipd_bounds_mm"),
        ({"ipd_bounds_mm": [58, 100]}, "ipd_bounds_mm"),
        ({"ipd_bounds_mm": [58, 1000]}, "ipd_bounds_mm"),
        ({"ipd_bounds_mm": [-math.inf, 68]}, "ipd_bounds_mm"),
        ({"beta_bounds_deg": [-3, 3]}, "beta_bounds_deg"),
        ({"beta_bounds_deg": [-2.8648, 2.8648]}, "beta_bounds_deg"),
        ({"beta_bounds_deg": [-math.inf, 1]}, "beta_bounds_deg"),
    ], ids=["ipd-inf", "ipd-100mm", "ipd-1000mm", "ipd-minus-inf",
            "beta-3deg", "beta-rounded-up", "beta-minus-inf"])
    @pytest.mark.parametrize("variant", ["both", "with-offset"])
    def test_bounds_the_geometry_refuses_exit_one(self, outcomes, tmp_path,
                                                  capsys, payload, key,
                                                  variant):
        # an IPD of 0.1 m or more, or an offset past 0.05 rad, is one
        # EyeGeometry or PerturbationParams refuses; [58, Infinity] once
        # gave a converged fit with an IPD of 3.8e9 mm
        cfg = _write_json(tmp_path / "fit.json", payload)
        code = main(["fit", "--input", str(outcomes), "--config", cfg,
                     "--variant", variant, "--out", str(tmp_path / "fits")])
        assert code == 1
        err, = capsys.readouterr().err.splitlines()
        unit = "mm" if key == "ipd_bounds_mm" else "deg"
        assert err.startswith(f"vackit: error: bad fit config field {key}: must ")
        assert f" {unit}" in err
        assert not list((tmp_path / "fits").glob("fit_*.json"))

    def test_bounds_refused_before_the_outcomes_are_read(self, tmp_path,
                                                         capsys):
        cfg = _write_json(tmp_path / "fit.json", {"ipd_bounds_mm": [58, 100]})
        code = main(["fit", "--input", str(tmp_path / "missing.csv"),
                     "--config", cfg, "--out", str(tmp_path / "fits")])
        assert code == 1
        assert "ipd_bounds_mm" in capsys.readouterr().err

    def test_widest_documented_offset_bounds_are_the_default(self, outcomes,
                                                             tmp_path):
        # the README's widest beta_bounds_deg, degrees(0.05), converts to a
        # hair past 0.05 rad; it is accepted and fits as the default does
        widest = math.degrees(0.05)
        assert widest == 2.8647889756541165
        cfg = _write_json(tmp_path / "fit.json",
                          {"beta_bounds_deg": [-widest, widest]})
        fits = {}
        for name, extra in (("widest", ["--config", cfg]), ("default", [])):
            outdir = tmp_path / name
            assert main(["fit", "--input", str(outcomes), *extra,
                         "--out", str(outdir)]) == 0
            fits[name] = (outdir / "fit_original_with-offset.json").read_bytes()
        assert fits["widest"] == fits["default"]

    def test_bad_header_exits_two_with_line(self, tmp_path, capsys):
        bad = tmp_path / "outcomes.csv"
        bad.write_text("trial,participant\nx,y\n", encoding="utf-8")
        code = main(["fit", "--input", str(bad),
                     "--out", str(tmp_path / "fits")])
        assert code == 2
        err = capsys.readouterr().err
        assert "outcomes.csv" in err


class TestBadFieldValues:
    """A value of the wrong type in a config, eye-pose or targets file
    exits 1 with one error line naming the field, not a traceback."""

    @pytest.mark.parametrize("source, payload, key", [
        ("simulate", {"reach_distances_m": 0.3}, "reach_distances_m"),
        ("simulate", {"eye_pose": 5}, "eye_pose"),
        ("simulate", {"eye_pose": {"behind_m": "far"}}, "behind_m"),
        ("simulate", {"n_participants": "abc"}, "n_participants"),
        ("simulate", {"response_mixture": 0.5}, "response_mixture"),
        ("fit", {"ipd_bounds_mm": 5}, "ipd_bounds_mm"),
        ("fit", {"ipd_bounds_mm": [58]}, "ipd_bounds_mm"),
        ("fit", {"beta_bounds_deg": ["low", 1]}, "beta_bounds_deg"),
        ("fit", {"eye_pose": []}, "eye_pose"),
        ("eye-pose", {"ipd_mm": "wide"}, "ipd_mm"),
        ("eye-pose", {"ipd_mm": 63, "above_m": None}, "above_m"),
        ("targets", {"t0": {"reach_m": "far"}}, "reach_m"),
        ("targets", {"t0": {"reach_m": 0.3, "go_cue_time_s": [0]}},
         "go_cue_time_s"),
        # counts are JSON integers and switches JSON booleans: nothing is
        # truncated or read by truthiness
        ("simulate", {"n_participants": 2.9}, "n_participants"),
        ("simulate", {"n_participants": True}, "n_participants"),
        ("simulate", {"repetitions": True}, "repetitions"),
        ("simulate", {"repetitions": 2.0}, "repetitions"),
        ("simulate", {"seed": False}, "seed"),
        ("simulate", {"seed": "7"}, "seed"),
        ("simulate", {"write_trajectories": "false"}, "write_trajectories"),
        ("simulate", {"write_trajectories": 0}, "write_trajectories"),
        # floats are JSON numbers: no string is parsed, no boolean read as
        # 0 or 1
        ("simulate", {"beta_deg": True}, "beta_deg"),
        ("simulate", {"ipd_low_mm": "58"}, "ipd_low_mm"),
        ("simulate", {"sample_rate_hz": "250"}, "sample_rate_hz"),
        ("simulate", {"reach_distances_m": [0.2, "0.3"]}, "reach_distances_m"),
        ("simulate", {"response_mixture": [1, 0, True]}, "response_mixture"),
        ("simulate", {"eye_pose": {"lateral_m": "0"}}, "lateral_m"),
        ("fit", {"ipd_bounds_mm": [58, "68"]}, "ipd_bounds_mm"),
        ("fit", {"beta_bounds_deg": [-1, True]}, "beta_bounds_deg"),
        ("eye-pose", {"ipd_mm": "63"}, "ipd_mm"),
        ("eye-pose", {"ipd_mm": 63, "behind_m": False}, "behind_m"),
        ("targets", {"t0": {"reach_m": "0.3"}}, "reach_m"),
        ("targets", {"t0": {"reach_m": 0.3, "x_m": True}}, "x_m"),
        ("targets", {"t0": {"reach_m": 0.3, "ipd_m": "0.063"}}, "ipd_m"),
        ("simulate", {"motor_noise_sd_mm": 10 ** 400}, "motor_noise_sd_mm"),
    ])
    def test_exits_one_naming_the_field(self, tmp_path, capsys, source,
                                        payload, key):
        assert main(self._argv(tmp_path, source, payload)) == 1
        err = capsys.readouterr().err
        assert err.startswith("vackit: error: bad ") and err.count("\n") == 1
        assert f" field {key}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("source, payload, name", [
        ("simulate", {"motor_noise_sd_mm": math.nan}, "motor_noise_sd"),
        ("simulate", {"sample_rate_hz": math.inf}, "sample_rate"),
        ("simulate", {"rest_padding_s": math.nan}, "rest_padding"),
        ("simulate", {"beta_deg": -math.inf}, "beta"),
        ("simulate", {"response_mixture": [math.nan, 1, 1]},
         "response_mixture"),
        ("simulate", {"eye_pose": {"behind_m": math.nan}}, "behind_m"),
        ("fit", {"eye_pose": {"above_m": math.inf}}, "above_m"),
        ("eye-pose", {"ipd_mm": 63, "behind_m": math.nan}, "behind_m"),
    ])
    def test_non_finite_exits_one_naming_the_field(self, tmp_path, capsys,
                                                   source, payload, name):
        # Python's json reads NaN and Infinity; a config or eye pose
        # refuses them
        assert main(self._argv(tmp_path, source, payload)) == 1
        err = capsys.readouterr().err
        assert err.startswith("vackit: error: ") and err.count("\n") == 1
        assert name in err and "finite" in err

    @pytest.fixture(scope="class")
    def analyzed(self, tmp_path_factory) -> Path:
        """A small simulated run and its analysis."""
        tmp = tmp_path_factory.mktemp("run")
        assert main(["simulate", "--config", _sim_config(tmp / "sim.json"),
                     "--out", str(tmp / "sim")]) == 0
        assert main(["analyze", "--input", str(tmp / "sim" / "trajectories.csv"),
                     "--targets", str(tmp / "sim" / "targets.json"),
                     "--eye-pose", _eye_pose_file(tmp / "pose.json"),
                     "--out", str(tmp / "analysis")]) == 0
        return tmp

    @pytest.mark.parametrize("argv, name", [
        (["simulate", {"ipd_distribution": "normal", "ipd_sd_mm": -1}], "ipd_sd"),
        (["simulate", {"seed": -3}], "seed"),
        (["simulate", {}, "--seed", "-2"], "seed"),
        # noise is filtered at 10 Hz, which a 10 Hz sample rate cannot carry
        (["simulate", {"sample_rate_hz": 10}], "sample_rate"),
        (["fit", "--seed", "-1"], "seed"),
        # these used to label every trial slow and exit 0
        (["analyze", "--threshold-mmps", "nan"], "threshold"),
        (["analyze", "--threshold-mmps", "inf"], "threshold"),
        (["analyze", "--threshold-mmps", "-50"], "threshold"),
    ], ids=["ipd_sd", "config-seed", "seed-flag", "sample_rate", "split-seed",
            "threshold-nan", "threshold-inf", "threshold-negative"])
    def test_out_of_range_exits_one_naming_the_field(self, tmp_path, capsys,
                                                     analyzed, argv, name):
        command, *rest = argv
        if command == "simulate":
            config, *rest = rest
            rest = ["--config", _write_json(tmp_path / "sim.json", config), *rest]
        elif command == "fit":
            rest += ["--input", str(analyzed / "analysis" / "outcomes.csv")]
        else:
            rest += ["--input", str(analyzed / "sim" / "trajectories.csv"),
                     "--targets", str(analyzed / "sim" / "targets.json"),
                     "--eye-pose", str(analyzed / "pose.json")]
        assert main([command, *rest, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("vackit: error: ") and err.count("\n") == 1
        assert f"{name} must" in err
        assert "Traceback" not in err

    @staticmethod
    def _argv(tmp_path: Path, source: str, payload: dict) -> list[str]:
        """A command reading payload as its simulate config, fit config,
        eye pose or targets; the other inputs do not exist."""
        path = _write_json(tmp_path / "in.json", payload)
        out = str(tmp_path / "out")
        if source == "simulate":
            return ["simulate", "--config", path, "--out", out]
        if source == "fit":
            return ["fit", "--input", str(tmp_path / "outcomes.csv"),
                    "--config", path, "--out", out]
        pose = path if source == "eye-pose" \
            else _eye_pose_file(tmp_path / "pose.json")
        targets = path if source == "targets" \
            else _write_json(tmp_path / "targets.json", {})
        return ["analyze", "--input", str(tmp_path / "trajectories.csv"),
                "--targets", targets, "--eye-pose", pose, "--out", out]


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

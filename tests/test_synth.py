"""Simulator tests.

Endpoint generation is endpoint_z = reach + bias + noise, where the bias
comes from the same perception model the fitter inverts, so the
simulator-to-fitter loop has no independent arithmetic to disagree on.
With the interpupillary distance pinned to 63 mm, an offset of 0.22 deg,
and the seated eye pose, the noise-free hand-minus-target disparity at
each reach is (40-digit reference, in degrees):

    0.20 m -> -0.17765607618002484
    0.25 m -> -0.18317137054686299
    0.30 m -> -0.18772830397323285
    0.35 m -> -0.19152175724603902

Determinism contract: every generated artifact is a pure function of the
configuration, and the noise stream is independent of condition and
feedback flags so runs differing only in those fields are paired trial
for trial.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vackit.kinematics as kin
import vackit.synth as synth
from vackit.errors import DomainError
from vackit.fitting import FitDataset
from vackit.geometry import EyeGeometry
from vackit.kinematics import (
    EyePose,
    analyze_trials,
    read_trajectories_csv,
)
from vackit.perception import PerturbationParams, predict_endpoint
from vackit.synth import (
    CONDITION_ORIGINAL,
    CONDITION_TRANSFORMED,
    FEEDBACK_FEEDFORWARD,
    FEEDBACK_ONLINE,
    RESPONSE_MULTIPLIERS,
    SimConfig,
    TrialTable,
    _CHUNK_ROWS,
    generate_participants,
    generate_trajectories,
    generate_trials,
    write_dataset,
)

from outcomes_reference import trials_as_analyzed, write_outcomes_csv_rowwise

BETA = math.radians(0.22)


def _config(**kwargs) -> SimConfig:
    defaults = dict(n_participants=3, repetitions=4,
                    reach_distances=(0.20, 0.25, 0.30),
                    trajectory_noise_sd=0.0, seed=7)
    defaults.update(kwargs)
    return SimConfig(**defaults)


class TestSimConfigValidation:
    def test_defaults_are_valid(self):
        SimConfig()

    @pytest.mark.parametrize("kwargs", [
        {"n_participants": 0},
        {"ipd_distribution": "lognormal"},
        {"ipd_low": 0.030},
        {"ipd_high": 0.090},
        {"beta": 0.06},
        {"motor_noise_sd": -0.001},
        {"reach_distances": ()},
        {"reach_distances": (0.25, -0.1)},
        {"repetitions": 0},
        {"condition": "corrected"},
        {"feedback": "closed-loop"},
        {"feedforward_variance_factor": 0.0},
        {"response_mixture": (1.0, 0.0)},
        {"response_mixture": (-1.0, 1.0, 1.0)},
        {"rest_padding": 0.1},
        {"sample_rate": 0.0},
        {"response_mixture": (math.nan, 1.0, 1.0)},
        {"response_mixture": (math.inf, 0.0, 0.0)},
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(DomainError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [
        "ipd_low", "ipd_high", "ipd_mean", "ipd_sd", "beta", "motor_noise_sd",
        "movement_duration", "feedforward_variance_factor",
        "trajectory_noise_sd", "sample_rate", "rest_padding"])
    def test_rejects_non_finite_float(self, name, value):
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            SimConfig(**{name: value})

    @pytest.mark.parametrize("reach", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_reach(self, reach):
        with pytest.raises(DomainError,
                           match="reach distances must be finite and positive"):
            SimConfig(reach_distances=(0.25, reach))

    @pytest.mark.parametrize("reaches, label", [
        ((0.201, 0.204), "0.20"),
        ((0.25, 0.25), "0.25"),
        ((0.3, 0.2, 0.296), "0.30"),
    ])
    def test_rejects_reaches_sharing_a_trial_id_label(self, reaches, label):
        with pytest.raises(DomainError) as info:
            SimConfig(reach_distances=reaches)
        assert f"share the trial-id label d{label}" in str(info.value)

    def test_distinct_labels_accepted(self):
        config = _config(reach_distances=(0.2, 0.206, 0.224))
        trials = generate_trials(config, generate_participants(config))
        assert len(set(trials.trial_id)) == len(trials)


class TestGenerateParticipants:
    def test_deterministic(self):
        a = generate_participants(_config())
        b = generate_participants(_config())
        assert [p.ipd for p in a] == [p.ipd for p in b]
        assert [p.participant_id for p in a] == [p.participant_id for p in b]

    def test_ids_and_count(self):
        people = generate_participants(_config(n_participants=20))
        assert len(people) == 20
        assert people[0].participant_id == "p00"
        assert people[-1].participant_id == "p19"
        assert len({p.participant_id for p in people}) == 20

    def test_uniform_range(self):
        people = generate_participants(_config(n_participants=50))
        ipds = np.array([p.ipd for p in people])
        assert np.all((ipds >= 0.058) & (ipds <= 0.068))
        assert ipds.std() > 0

    def test_degenerate_range_pins_everyone(self):
        people = generate_participants(
            _config(ipd_low=0.063, ipd_high=0.063))
        assert all(p.ipd == 0.063 for p in people)

    def test_normal_distribution_clipped(self):
        people = generate_participants(
            _config(n_participants=200, ipd_distribution="normal",
                    ipd_low=0.061, ipd_high=0.065, ipd_mean=0.063,
                    ipd_sd=0.01))
        ipds = np.array([p.ipd for p in people])
        assert np.all((ipds >= 0.061) & (ipds <= 0.065))
        assert np.any(ipds == 0.061) or np.any(ipds == 0.065)

    def test_default_multiplier_is_full_response(self):
        people = generate_participants(_config())
        assert all(p.response_multiplier == 1.0 for p in people)

    def test_mixture_draws_from_known_multipliers(self):
        people = generate_participants(
            _config(n_participants=60, response_mixture=(1.0, 1.0, 1.0)))
        values = {p.response_multiplier for p in people}
        assert values <= set(RESPONSE_MULTIPLIERS)
        assert len(values) > 1

    def test_degenerate_mixture(self):
        people = generate_participants(
            _config(response_mixture=(0.0, 1.0, 0.0)))
        assert all(p.response_multiplier == 0.0 for p in people)


class TestGenerateTrials:
    def test_layout_and_ids(self):
        config = _config()
        trials = generate_trials(config, generate_participants(config))
        assert len(trials) == 3 * 3 * 4
        assert len(set(trials.trial_id)) == len(trials)
        assert trials.trial_id[0] == "p00-original-d0.20-r000"

    def test_deterministic(self):
        config = _config(motor_noise_sd=0.005)
        a = generate_trials(config, generate_participants(config))
        b = generate_trials(config, generate_participants(config))
        assert a.endpoint_z.tobytes() == b.endpoint_z.tobytes()

    def test_noise_free_error_is_the_model_bias(self):
        config = _config(motor_noise_sd=0.0)
        people = generate_participants(config)
        trials = _rows(generate_trials(config, people))
        by_pid = {p.participant_id: p for p in people}
        for trial in trials:
            participant = by_pid[trial.participant_id]
            d_target = float(config.eye_pose.eye_distance(trial.reach_m))
            bias = predict_endpoint(d_target, PerturbationParams(BETA),
                                    EyeGeometry(ipd=participant.ipd)) - d_target
            assert trial.distance_error == bias  # same expression, same bits
            assert trial.distance_error < 0

    def test_noise_free_disparity_reference_values(self):
        expected_deg = {0.20: -0.17765607618002484,
                        0.25: -0.18317137054686299,
                        0.30: -0.18772830397323285,
                        0.35: -0.19152175724603902}
        config = _config(motor_noise_sd=0.0, ipd_low=0.063, ipd_high=0.063,
                         reach_distances=tuple(expected_deg), repetitions=1)
        trials = _rows(generate_trials(config, generate_participants(config)))
        for trial in trials:
            assert math.degrees(trial.disparity_difference) == pytest.approx(
                expected_deg[trial.reach_m], abs=1e-12)

    def test_transformed_with_full_response_is_unbiased(self):
        config = _config(motor_noise_sd=0.0, condition=CONDITION_TRANSFORMED)
        trials = generate_trials(config, generate_participants(config))
        assert np.all(trials.distance_error == 0.0)
        assert np.all(trials.disparity_difference == 0.0)

    def test_partial_response_scales_bias(self):
        base = _config(motor_noise_sd=0.0)
        people = generate_participants(base)
        original = generate_trials(base, people)
        half = generate_trials(
            _config(motor_noise_sd=0.0, condition=CONDITION_TRANSFORMED),
            [p.__class__(p.participant_id, p.ipd, -0.5, p.trial_seed,
                         p.trajectory_seed) for p in people])
        for o, h in zip(original.distance_error, half.distance_error):
            assert h == pytest.approx(1.5 * o, rel=1e-12)

    def test_conditions_share_the_noise_stream(self):
        people = generate_participants(_config())
        on = _rows(generate_trials(_config(motor_noise_sd=0.005), people))
        tr = _rows(generate_trials(_config(motor_noise_sd=0.005,
                                           condition=CONDITION_TRANSFORMED),
                                   people))
        noise_on = [t.endpoint_z for t in on]
        noise_tr = [t.endpoint_z for t in tr]
        by_pid = {p.participant_id: p for p in people}
        for a, b in zip(on, tr):
            participant = by_pid[a.participant_id]
            d_target = float(_config().eye_pose.eye_distance(a.reach_m))
            bias = predict_endpoint(d_target, PerturbationParams(BETA),
                                    EyeGeometry(ipd=participant.ipd)) - d_target
            assert (a.endpoint_z - b.endpoint_z) == pytest.approx(bias,
                                                                  abs=1e-15)
        assert noise_on != noise_tr

    def test_feedforward_is_unbiased_with_scaled_noise(self):
        people = generate_participants(_config())
        online = _rows(generate_trials(_config(motor_noise_sd=0.005), people))
        feedforward = _rows(generate_trials(
            _config(motor_noise_sd=0.005, feedback=FEEDBACK_FEEDFORWARD),
            people))
        by_pid = {p.participant_id: p for p in people}
        root = math.sqrt(1.5)
        for on, ff in zip(online, feedforward):
            participant = by_pid[on.participant_id]
            d_target = float(_config().eye_pose.eye_distance(on.reach_m))
            bias = predict_endpoint(d_target, PerturbationParams(BETA),
                                    EyeGeometry(ipd=participant.ipd)) - d_target
            paired_noise = on.distance_error - bias
            # recovering the noise through reach +/- cancellations leaves
            # a few ULP of 0.25 m, so compare absolutely
            assert ff.distance_error == pytest.approx(root * paired_noise,
                                                      abs=1e-14)

    def test_feedforward_variance_factor_statistics(self):
        config = _config(n_participants=10, repetitions=40,
                         motor_noise_sd=0.005)
        people = generate_participants(config)
        online = _rows(generate_trials(config, people))
        feedforward = generate_trials(
            _config(n_participants=10, repetitions=40, motor_noise_sd=0.005,
                    feedback=FEEDBACK_FEEDFORWARD), people)
        var_ff = np.var(feedforward.distance_error)
        # remove the per-(participant, reach) bias before pooling
        errs = {}
        for t in online:
            errs.setdefault((t.participant_id, t.reach_m), []).append(
                t.distance_error)
        centered = np.concatenate([np.asarray(v) - np.mean(v)
                                   for v in errs.values()])
        assert var_ff / np.var(centered) == pytest.approx(1.5, rel=0.15)


class TestGenerateTrajectories:
    def test_noiseless_shape_and_endpoints(self):
        config = _config(motor_noise_sd=0.002)
        people = generate_participants(config)
        trials = generate_trials(config, people)
        trajectories = generate_trajectories(config, trials, people)
        assert len(trajectories) == len(trials)
        n_expected = int(round((2 * 0.24 + 0.4) * 250.0)) + 1
        for traj, endpoint_z in zip(trajectories, trials.endpoint_z):
            assert len(traj) == n_expected
            assert traj.z[0] == 0.0
            assert traj.z[-1] == endpoint_z
            rest = traj.t <= 0.24
            np.testing.assert_array_equal(traj.z[rest][:-1], 0.0)

    def test_deterministic_with_noise(self):
        config = _config(trajectory_noise_sd=0.0002, motor_noise_sd=0.002)
        people = generate_participants(config)
        trials = generate_trials(config, people)
        a = generate_trajectories(config, trials, people)
        b = generate_trajectories(config, trials, people)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.z, tb.z)
        assert np.any(a[0].z[a[0].t <= 0.2] != 0.0)

    def test_matches_per_trial_generation(self, monkeypatch):
        # reference: each trial's noise drawn and filtered on its own; the
        # blocks are shrunk so that 112 trials span more than one.  synth
        # imports the name, so it is patched there too.
        signal = pytest.importorskip("scipy.signal")  # the filter's oracle
        monkeypatch.setattr(kin, "BLOCK_TRIALS", 64)
        monkeypatch.setattr(synth, "BLOCK_TRIALS", 64)
        config = _config(n_participants=4, repetitions=7,
                         trajectory_noise_sd=0.0002, motor_noise_sd=0.002)
        people = generate_participants(config)
        trials = generate_trials(config, people)
        assert len(trials) > synth.BLOCK_TRIALS
        got = generate_trajectories(config, trials, people)
        rngs = {p.participant_id: np.random.Generator(
            np.random.Philox(p.trajectory_seed)) for p in people}
        b, a = signal.butter(2, 10.0, btype="low", fs=config.sample_rate)
        for traj, trial in zip(got, _rows(trials)):
            u = np.clip((traj.t - config.rest_padding)
                        / config.movement_duration, 0.0, 1.0)
            z = trial.endpoint_z * (10.0 * u**3 - 15.0 * u**4 + 6.0 * u**5)
            noise = rngs[trial.participant_id].normal(
                0.0, config.trajectory_noise_sd, size=(3, len(traj)))
            assert traj.trial_id == trial.trial_id
            assert np.array_equal(traj.x, np.zeros(len(traj))
                                  + signal.filtfilt(b, a, noise[0]))
            assert np.array_equal(traj.y, np.zeros(len(traj))
                                  + signal.filtfilt(b, a, noise[1]))
            assert np.array_equal(traj.z, z + signal.filtfilt(b, a, noise[2]))

    @pytest.mark.parametrize("overrides, message", [
        ({"sample_rate": 20.0}, "need >= 25 samples, got 19"),
        ({"trajectory_noise_sd": 1.7e308}, "samples must be finite")])
    def test_trial_trajectory_refuses_raises_its_error(self, overrides,
                                                       message):
        # the table builds no Trajectory, yet a trial that Trajectory would
        # refuse raises its error, as building every trial did
        config = _config(**overrides)
        people = generate_participants(config)
        trials = generate_trials(config, people)
        with np.errstate(all="ignore"), pytest.raises(
                DomainError, match=f"^trial {trials.trial_id[0]}: {message}$"):
            generate_trajectories(config, trials, people)

    def test_late_refused_block_removes_the_trajectory_file(self, tmp_path,
                                                           monkeypatch):
        # each block is checked before it is written: one refused after
        # others were written takes the file's written part with it, and
        # the trajectories go first, so no other file is left either
        monkeypatch.setattr(synth, "BLOCK_TRIALS", 8)
        config = _config()
        people = generate_participants(config)
        trials = generate_trials(config, people)
        assert len(trials) > 4 * synth.BLOCK_TRIALS
        trials.endpoint_z[-1] = math.inf
        with np.errstate(all="ignore"), pytest.raises(
                DomainError,
                match=f"^trial {trials.trial_id[-1]}: samples must be finite$"):
            write_dataset(tmp_path, people, trials,
                          synth._trajectory_blocks(config, trials, people))
        assert list(tmp_path.iterdir()) == []

    def test_table_items_are_checked_trajectories(self):
        config = _config(trajectory_noise_sd=0.0002)
        people = generate_participants(config)
        trials = generate_trials(config, people)
        trajectories = generate_trajectories(config, trials, people)
        assert [tr.trial_id for tr in trajectories] == trials.trial_id
        assert all(isinstance(tr, kin.Trajectory) for tr in trajectories)
        assert trajectories[-1].trial_id == trials.trial_id[-1]

    def test_analysis_recovers_trial_table(self):
        config = _config(motor_noise_sd=0.003)
        people = generate_participants(config)
        trials = generate_trials(config, people)
        trajectories = generate_trajectories(config, trials, people)
        targets = {a.target.trial_id: a.target
                   for a in trials_as_analyzed(_rows(trials))}
        analyzed = analyze_trials(trajectories, targets,
                                  EyeGeometry(ipd=0.063), config.eye_pose)
        by_id = {t.trial_id: t for t in _rows(trials)}
        assert all(a.outcome.valid for a in analyzed)
        for a in analyzed:
            truth = by_id[a.outcome.trial_id]
            # segmentation clips under a millimeter at each threshold end
            assert abs(a.outcome.distance_error - truth.distance_error) < 1.2e-3
            assert a.outcome.segment.onset_time >= 0.2


class TestWriteDataset:
    def test_files_and_fit_round_trip(self, tmp_path):
        config = _config(motor_noise_sd=0.005)
        people = generate_participants(config)
        trials = generate_trials(config, people)
        trajectories = generate_trajectories(config, trials, people)
        written = write_dataset(tmp_path, people, trials, trajectories)
        assert list(written) == ["participants", "outcomes", "targets",
                                 "trajectories"]
        ds = FitDataset.from_csv(written["outcomes"])
        assert len(ds) == len(trials)
        assert ds.participants == sorted(set(trials.participant_id))
        back, rejected = read_trajectories_csv(written["trajectories"])
        assert rejected == []
        assert len(back) == len(trials)

    def test_targets_json_carries_per_trial_ipd(self, tmp_path):
        config = _config()
        people = generate_participants(config)
        trials = generate_trials(config, people)
        written = write_dataset(tmp_path, people, trials)
        targets = json.loads((tmp_path / "targets.json").read_text())
        assert set(targets) == set(trials.trial_id)
        entry = targets[trials.trial_id[0]]
        assert entry["ipd_m"] == trials.ipd_m[0]
        assert entry["reach_m"] == trials.reach_m[0]


# Reference implementations: the per-trial generation loop and the
# dataclass/json.dumps writers that generate_trials and write_dataset
# replace.  The fast paths must match them bit for bit and byte for byte.

@dataclasses.dataclass(frozen=True)
class _Record:
    """One trial as the per-trial loop made it: every field stored."""

    trial_id: str
    participant_id: str
    condition: str
    reach_m: float
    ipd_m: float
    endpoint_z: float
    movement_distance: float
    distance_error: float
    endpoint_error: float
    disparity_difference: float


def _rows(table: TrialTable) -> list[_Record]:
    """The table's trials as records of Python values."""
    endpoint = table.endpoint_z.tolist()
    error = [z - reach for z, reach in zip(endpoint, table.reach_m.tolist())]
    return [_Record(*fields) for fields in zip(
        table.trial_id, table.participant_id, table.condition,
        table.reach_m.tolist(), table.ipd_m.tolist(), endpoint, endpoint,
        error, error, table.disparity_difference.tolist())]


def _table(records: list[_Record]) -> TrialTable:
    """A trial table of records whose movement distance is their endpoint
    and whose errors are endpoint minus reach."""
    def floats(name):
        return np.array([getattr(r, name) for r in records], dtype=np.float64)
    return TrialTable(
        trial_id=[r.trial_id for r in records],
        participant_id=[r.participant_id for r in records],
        condition=[r.condition for r in records],
        reach_m=floats("reach_m"), ipd_m=floats("ipd_m"),
        endpoint_z=floats("endpoint_z"),
        disparity_difference=floats("disparity_difference"))


def _reference_trials(config: SimConfig, participants) -> list[_Record]:
    noise_sd = config.motor_noise_sd
    if config.feedback == FEEDBACK_FEEDFORWARD:
        noise_sd *= math.sqrt(config.feedforward_variance_factor)
    records = []
    for participant in participants:
        rng = np.random.Generator(np.random.Philox(participant.trial_seed))
        eyes = EyeGeometry(ipd=participant.ipd)
        for reach in config.reach_distances:
            if config.feedback == FEEDBACK_FEEDFORWARD:
                bias = 0.0
            else:
                d_target = float(config.eye_pose.eye_distance(reach))
                bias = predict_endpoint(d_target, PerturbationParams(config.beta),
                                        eyes) - d_target
                if config.condition == CONDITION_TRANSFORMED:
                    bias *= 1.0 - participant.response_multiplier
            for rep in range(config.repetitions):
                z_end = reach + bias + float(rng.normal(0.0, noise_sd))
                d_target = float(config.eye_pose.eye_distance(reach))
                d_hand = float(config.eye_pose.eye_distance(z_end))
                tau_target = 2.0 * math.atan2(eyes.half_ipd, d_target)
                tau_hand = 2.0 * math.atan2(eyes.half_ipd, d_hand)
                records.append(_Record(
                    trial_id=(f"{participant.participant_id}-{config.condition}"
                              f"-d{reach:.2f}-r{rep:03d}"),
                    participant_id=participant.participant_id,
                    condition=config.condition,
                    reach_m=reach,
                    ipd_m=participant.ipd,
                    endpoint_z=z_end,
                    movement_distance=z_end,
                    distance_error=z_end - reach,
                    endpoint_error=z_end - reach,
                    disparity_difference=tau_target - tau_hand,
                ))
    return records


def _reference_files(trials: list[_Record], outdir: Path) -> dict[str, bytes]:
    outdir.mkdir(parents=True, exist_ok=True)
    write_outcomes_csv_rowwise(trials_as_analyzed(trials),
                               outdir / "outcomes.csv")
    entries = {
        trial.trial_id: {
            "reach_m": trial.reach_m,
            "participant_id": trial.participant_id,
            "condition": trial.condition,
            "ipd_m": trial.ipd_m,
        }
        for trial in trials
    }
    (outdir / "targets.json").write_text(
        json.dumps(entries, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return {name: (outdir / name).read_bytes()
            for name in ("outcomes.csv", "targets.json")}


def _written_files(people, trials: TrialTable, outdir: Path) -> dict[str, bytes]:
    write_dataset(outdir, people, trials)
    return {name: (outdir / name).read_bytes()
            for name in ("outcomes.csv", "targets.json")}


def _bits(values) -> tuple:
    """The values with floats as their IEEE bytes, so -0.0 and nan count."""
    return tuple(struct.pack("<d", value) if isinstance(value, float) else value
                 for value in values)


def _assert_equivalent(config: SimConfig, workdir: Path) -> TrialTable:
    """generate_trials against the per-trial loop, column by column and bit
    for bit, and write_dataset against the reference writers."""
    people = generate_participants(config)
    trials = generate_trials(config, people)
    expected = _reference_trials(config, people)
    for name in ("trial_id", "participant_id", "condition"):
        column = getattr(trials, name)
        assert type(column) is list
        assert column == [getattr(r, name) for r in expected], name
    for name, stored in [("reach_m", "reach_m"), ("ipd_m", "ipd_m"),
                         ("endpoint_z", "endpoint_z"),
                         ("endpoint_z", "movement_distance"),
                         ("distance_error", "distance_error"),
                         ("distance_error", "endpoint_error"),
                         ("disparity_difference", "disparity_difference")]:
        column = getattr(trials, name)
        assert column.dtype == np.float64 and column.shape == (len(expected),)
        assert _bits(column.tolist()) == \
            _bits(getattr(r, stored) for r in expected), stored
    assert [_bits(dataclasses.astuple(r)) for r in _rows(trials)] == \
        [_bits(dataclasses.astuple(r)) for r in expected]
    assert _written_files(people, trials, workdir / "new") == \
        _reference_files(expected, workdir / "old")
    return trials


class TestSimulateEquivalence:
    @pytest.mark.parametrize("kwargs", [
        pytest.param({}, id="online"),
        pytest.param({"feedback": FEEDBACK_FEEDFORWARD}, id="feedforward"),
        pytest.param({"condition": CONDITION_TRANSFORMED, "n_participants": 12,
                      "response_mixture": (0.5, 0.3, 0.2)},
                     id="transformed-mixture"),
        pytest.param({"n_participants": 101, "repetitions": 2,
                      "reach_distances": (0.2, 0.3)}, id="101-participants"),
        pytest.param({"reach_distances": (0.35, 0.2, 0.281, 0.31)},
                     id="unsorted-reaches"),
        pytest.param({"n_participants": 1, "repetitions": 1001,
                      "reach_distances": (0.25,)}, id="1001-repetitions"),
        pytest.param({"n_participants": 1, "repetitions": 1,
                      "reach_distances": (0.3,)}, id="single-trial"),
        pytest.param({"n_participants": 1, "repetitions": _CHUNK_ROWS + 1,
                      "reach_distances": (0.25,)}, id="chunk-plus-one"),
        pytest.param({"motor_noise_sd": 0.0}, id="noise-free"),
        # hand eye distances overflow to inf, as numpy's do
        pytest.param({"motor_noise_sd": 1e200}, id="overflowing-endpoints",
                     marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
    ])
    def test_matches_reference(self, tmp_path, kwargs):
        config = _config(**{"motor_noise_sd": 0.005, **kwargs})
        trials = _assert_equivalent(config, tmp_path)
        assert len(set(trials.trial_id)) == len(trials)

    def test_large_ids_sort_as_strings(self, tmp_path):
        config = _config(n_participants=1, repetitions=1001,
                         reach_distances=(0.25,))
        trials = _assert_equivalent(config, tmp_path)
        keys = list(json.loads((tmp_path / "new" / "targets.json").read_text()))
        assert keys == sorted(trials.trial_id)
        assert keys.index("p00-original-d0.25-r1000") == \
            keys.index("p00-original-d0.25-r100") + 1

    @pytest.mark.parametrize("count", [0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS,
                                       _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1])
    def test_chunk_boundaries(self, tmp_path, count):
        config = _config(n_participants=3, repetitions=_CHUNK_ROWS,
                         reach_distances=(0.2,))
        people = generate_participants(config)
        trials = _rows(generate_trials(config, people))[:count]
        assert len(trials) == count
        assert _written_files(people, _table(trials), tmp_path / "new") == \
            _reference_files(trials, tmp_path / "old")
        if count == 0:
            assert (tmp_path / "new" / "targets.json").read_text() == "{}\n"

    def test_hand_built_trials(self, tmp_path):
        # ids that need quoting or escaping, a repeated id, non-finite and
        # whole-number reaches, -0.0 and 0.0 in one field, and a -0.0 error
        config = _config()
        people = generate_participants(config)
        base = _rows(generate_trials(config, people))[:7]
        table = _table([
            dataclasses.replace(base[0], trial_id='a,"b"\r\nc'),
            dataclasses.replace(base[1], trial_id="café ☃",
                                participant_id="p,1", condition='x"y'),
            dataclasses.replace(base[2], trial_id="dup", reach_m=math.nan),
            dataclasses.replace(base[3], trial_id="dup", reach_m=1.0),
            dataclasses.replace(base[4], trial_id="", reach_m=math.inf,
                                ipd_m=0.061),
            dataclasses.replace(base[5], trial_id=" lead", ipd_m=-math.inf,
                                disparity_difference=-0.0, reach_m=0.0,
                                endpoint_z=-0.0),
            dataclasses.replace(base[6], trial_id=" lead~", ipd_m=-math.inf,
                                disparity_difference=-0.0, reach_m=-0.0,
                                endpoint_z=-0.0),
        ])
        trials = _rows(table)
        assert math.copysign(1.0, trials[5].distance_error) == -1.0
        assert _written_files(people, table, tmp_path / "new") == \
            _reference_files(trials, tmp_path / "old")

    @settings(max_examples=25, deadline=None)
    @given(
        n_participants=st.integers(1, 4),
        repetitions=st.integers(1, 5),
        reaches=st.lists(st.floats(0.1, 0.6), min_size=1, max_size=4,
                         unique_by=lambda r: f"{r:.2f}"),
        condition=st.sampled_from([CONDITION_ORIGINAL, CONDITION_TRANSFORMED]),
        feedback=st.sampled_from([FEEDBACK_ONLINE, FEEDBACK_FEEDFORWARD]),
        mixture=st.one_of(st.none(), st.tuples(
            st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.1, 1.0))),
        noise_mm=st.floats(0.0, 20.0),
        beta_deg=st.floats(-0.5, 0.5),
        behind=st.floats(0.1, 0.5),
        seed=st.integers(0, 2**63),
    )
    def test_property_over_config_fields(self, n_participants, repetitions,
                                         reaches, condition, feedback, mixture,
                                         noise_mm, beta_deg, behind, seed):
        config = SimConfig(
            n_participants=n_participants, repetitions=repetitions,
            reach_distances=tuple(reaches), condition=condition,
            feedback=feedback, response_mixture=mixture,
            motor_noise_sd=noise_mm / 1000.0, beta=math.radians(beta_deg),
            eye_pose=EyePose(behind_m=behind), trajectory_noise_sd=0.0,
            seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            _assert_equivalent(config, Path(tmp))

    def test_table_memory_is_a_fraction_of_records(self):
        # the table holds a trial in an id string, three list slots and four
        # float64s (about 130 bytes here); a record of the per-trial loop
        # also held an instance, its dict and three more floats (about 340)
        config = _config(n_participants=100, repetitions=12,
                         reach_distances=(0.20, 0.25, 0.30, 0.35))
        people = generate_participants(config)

        def held(make) -> float:
            tracemalloc.start()
            try:
                made = make()
                size, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return size / len(made)

        per_trial = held(lambda: generate_trials(config, people))
        per_record = held(lambda: _reference_trials(config, people))
        assert per_trial < per_record / 2

    def test_write_memory_is_a_fraction_of_the_files(self, tmp_path):
        config = _config(n_participants=500, repetitions=12,
                         reach_distances=(0.20, 0.25, 0.30, 0.35))
        people = generate_participants(config)
        trials = generate_trials(config, people)
        tracemalloc.start()
        try:
            written = write_dataset(tmp_path, people, trials)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        largest = max(Path(p).stat().st_size for p in written.values())
        assert largest > 3_000_000
        # the parent writers held every row and the whole JSON text: ~9x
        assert peak < largest / 2

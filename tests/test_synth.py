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

import math

import numpy as np
import pytest
from scipy.signal import butter, filtfilt

from vackit.errors import DomainError
from vackit.fitting import FitDataset
from vackit.geometry import EyeGeometry
from vackit.kinematics import (
    BLOCK_TRIALS,
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
    generate_participants,
    generate_trajectories,
    generate_trials,
    trials_as_analyzed,
    write_dataset,
)

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
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(DomainError):
            SimConfig(**kwargs)


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
        assert len({t.trial_id for t in trials}) == len(trials)
        assert trials[0].trial_id == "p00-original-d0.20-r000"

    def test_deterministic(self):
        config = _config(motor_noise_sd=0.005)
        a = generate_trials(config, generate_participants(config))
        b = generate_trials(config, generate_participants(config))
        assert [t.endpoint_z for t in a] == [t.endpoint_z for t in b]

    def test_noise_free_error_is_the_model_bias(self):
        config = _config(motor_noise_sd=0.0)
        people = generate_participants(config)
        trials = generate_trials(config, people)
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
        trials = generate_trials(config, generate_participants(config))
        for trial in trials:
            assert math.degrees(trial.disparity_difference) == pytest.approx(
                expected_deg[trial.reach_m], abs=1e-12)

    def test_transformed_with_full_response_is_unbiased(self):
        config = _config(motor_noise_sd=0.0, condition=CONDITION_TRANSFORMED)
        trials = generate_trials(config, generate_participants(config))
        assert all(t.distance_error == 0.0 for t in trials)
        assert all(t.disparity_difference == 0.0 for t in trials)

    def test_partial_response_scales_bias(self):
        base = _config(motor_noise_sd=0.0)
        people = generate_participants(base)
        original = generate_trials(base, people)
        half = generate_trials(
            _config(motor_noise_sd=0.0, condition=CONDITION_TRANSFORMED),
            [p.__class__(p.participant_id, p.ipd, -0.5, p.trial_seed,
                         p.trajectory_seed) for p in people])
        for o, h in zip(original, half):
            assert h.distance_error == pytest.approx(1.5 * o.distance_error,
                                                     rel=1e-12)

    def test_conditions_share_the_noise_stream(self):
        people = generate_participants(_config())
        on = generate_trials(_config(motor_noise_sd=0.005), people)
        tr = generate_trials(_config(motor_noise_sd=0.005,
                                     condition=CONDITION_TRANSFORMED), people)
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
        online = generate_trials(_config(motor_noise_sd=0.005), people)
        feedforward = generate_trials(
            _config(motor_noise_sd=0.005, feedback=FEEDBACK_FEEDFORWARD),
            people)
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
        online = generate_trials(config, people)
        feedforward = generate_trials(
            _config(n_participants=10, repetitions=40, motor_noise_sd=0.005,
                    feedback=FEEDBACK_FEEDFORWARD), people)
        var_ff = np.var([t.distance_error for t in feedforward])
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
        for traj, trial in zip(trajectories, trials):
            assert len(traj) == n_expected
            assert traj.z[0] == 0.0
            assert traj.z[-1] == trial.endpoint_z
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

    def test_matches_per_trial_generation(self):
        # reference: each trial's noise drawn and filtered on its own
        config = _config(n_participants=4, repetitions=7,
                         trajectory_noise_sd=0.0002, motor_noise_sd=0.002)
        people = generate_participants(config)
        trials = generate_trials(config, people)
        assert len(trials) > BLOCK_TRIALS
        got = generate_trajectories(config, trials, people)
        rngs = {p.participant_id: np.random.Generator(
            np.random.Philox(p.trajectory_seed)) for p in people}
        b, a = butter(2, 10.0, btype="low", fs=config.sample_rate)
        for traj, trial in zip(got, trials):
            u = np.clip((traj.t - config.rest_padding)
                        / config.movement_duration, 0.0, 1.0)
            z = trial.endpoint_z * (10.0 * u**3 - 15.0 * u**4 + 6.0 * u**5)
            noise = rngs[trial.participant_id].normal(
                0.0, config.trajectory_noise_sd, size=(3, len(traj)))
            assert traj.trial_id == trial.trial_id
            assert np.array_equal(traj.x, np.zeros(len(traj))
                                  + filtfilt(b, a, noise[0]))
            assert np.array_equal(traj.y, np.zeros(len(traj))
                                  + filtfilt(b, a, noise[1]))
            assert np.array_equal(traj.z, z + filtfilt(b, a, noise[2]))

    def test_analysis_recovers_trial_table(self):
        config = _config(motor_noise_sd=0.003)
        people = generate_participants(config)
        trials = generate_trials(config, people)
        trajectories = generate_trajectories(config, trials, people)
        targets = {a.target.trial_id: a.target
                   for a in trials_as_analyzed(trials)}
        analyzed = analyze_trials(trajectories, targets,
                                  EyeGeometry(ipd=0.063), config.eye_pose)
        by_id = {t.trial_id: t for t in trials}
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
        written = write_dataset(tmp_path, config, people, trials,
                                trajectories)
        assert set(written) == {"participants", "outcomes", "targets",
                                "trajectories"}
        ds = FitDataset.from_csv(written["outcomes"])
        assert len(ds) == len(trials)
        assert ds.participants == sorted({t.participant_id for t in trials})
        back, rejected = read_trajectories_csv(written["trajectories"])
        assert rejected == []
        assert len(back) == len(trials)

    def test_targets_json_carries_per_trial_ipd(self, tmp_path):
        import json

        config = _config()
        people = generate_participants(config)
        trials = generate_trials(config, people)
        written = write_dataset(tmp_path, config, people, trials)
        targets = json.loads((tmp_path / "targets.json").read_text())
        assert set(targets) == {t.trial_id for t in trials}
        entry = targets[trials[0].trial_id]
        assert entry["ipd_m"] == trials[0].ipd_m
        assert entry["reach_m"] == trials[0].reach_m

"""Seeded synthetic reaching experiments.

Generates participants, ground-truth trial outcomes, and full sampled
trajectories from a single config, providing known-answer inputs for the
trajectory analysis and model fitting pipelines.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path

import numpy as np

from .errors import DomainError
from .geometry import EyeGeometry, angle_at
from .kinematics import (
    BLOCK_TRIALS,
    _CHUNK_ROWS,
    EyePose,
    Trajectory,
    lowpass_block,
    write_outcomes_csv,
    write_trajectories_csv,
)
from .perception import BETA_BOUND_RAD, PerturbationParams, predict_endpoint

__all__ = [
    "SimConfig",
    "Participant",
    "TrialRecord",
    "generate_participants",
    "generate_trials",
    "generate_trajectories",
    "write_participants_csv",
    "write_dataset",
]

CONDITION_ORIGINAL = "original"
CONDITION_TRANSFORMED = "transformed"
CONDITIONS = (CONDITION_ORIGINAL, CONDITION_TRANSFORMED)
FEEDBACK_ONLINE = "online"
FEEDBACK_FEEDFORWARD = "feedforward"
FEEDBACKS = (FEEDBACK_ONLINE, FEEDBACK_FEEDFORWARD)

RESPONSE_MULTIPLIERS = (1.0, 0.0, -0.5)
PHYSICAL_IPD_BOUNDS = (0.045, 0.080)


@dataclass(frozen=True)
class SimConfig:
    """Full description of one synthetic experiment.

    Attributes:
        n_participants: Cohort size.
        ipd_distribution: "uniform" over [ipd_low, ipd_high] or "normal"
            with ipd_mean/ipd_sd clipped to [ipd_low, ipd_high].
        beta: True vergence offset in radians.
        motor_noise_sd: SD of Gaussian endpoint noise along the reach
            axis, in meters.
        reach_distances: Target depths from the home position, in meters.
        repetitions: Trials per distance per participant.
        movement_duration: Reach duration in seconds.
        condition: "original" (offset biases endpoints) or "transformed"
            (scene pre-corrected, no systematic error).
        feedback: "online" applies the offset bias; "feedforward" removes
            it and inflates endpoint variance by feedforward_variance_factor.
        response_mixture: Optional weights over per-participant transform
            response multipliers (1, 0, -0.5); a participant with
            multiplier m keeps a residual (1 - m) share of the bias in the
            transformed condition.  None means every participant responds
            fully.
        trajectory_noise_sd: SD of white positional noise added to the
            sampled trajectories, low-pass filtered at generation.
        rest_padding: Still time before movement onset and after the end,
            in seconds; at least 0.2 so onset detection has a clean floor.
        seed: 64-bit root seed; every output is a pure function of it.
    """

    n_participants: int = 20
    ipd_distribution: str = "uniform"
    ipd_low: float = 0.058
    ipd_high: float = 0.068
    ipd_mean: float = 0.063
    ipd_sd: float = 0.003
    beta: float = math.radians(0.22)
    motor_noise_sd: float = 0.005
    reach_distances: tuple[float, ...] = (0.20, 0.25, 0.30, 0.35)
    repetitions: int = 12
    movement_duration: float = 0.4
    condition: str = CONDITION_ORIGINAL
    feedback: str = FEEDBACK_ONLINE
    feedforward_variance_factor: float = 1.5
    response_mixture: tuple[float, float, float] | None = None
    trajectory_noise_sd: float = 0.0002
    sample_rate: float = 250.0
    rest_padding: float = 0.24
    eye_pose: EyePose = field(default_factory=EyePose)
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise DomainError(f"{f.name} must be finite, got {value!r}")
        if self.n_participants < 1:
            raise DomainError("n_participants must be >= 1")
        if self.ipd_distribution not in ("uniform", "normal"):
            raise DomainError(
                f"ipd_distribution must be uniform or normal, got "
                f"{self.ipd_distribution!r}"
            )
        lo, hi = PHYSICAL_IPD_BOUNDS
        if not (lo <= self.ipd_low <= self.ipd_high <= hi):
            raise DomainError(
                f"interpupillary range [{self.ipd_low}, {self.ipd_high}] must "
                f"lie within [{lo}, {hi}] m"
            )
        if abs(self.beta) >= BETA_BOUND_RAD:
            raise DomainError(f"|beta| must be below {BETA_BOUND_RAD} rad")
        if self.motor_noise_sd < 0 or self.trajectory_noise_sd < 0:
            raise DomainError("noise SDs must be >= 0")
        if not self.reach_distances or not all(
                math.isfinite(r) and r > 0 for r in self.reach_distances):
            raise DomainError("reach distances must be finite and positive")
        labels: dict[str, float] = {}
        for r in self.reach_distances:
            # trial ids carry the reach as d{reach:.2f}; a shared label would
            # give two trials one id and drop one target
            label = f"{r:.2f}"
            if label in labels:
                raise DomainError(
                    f"reach distances {labels[label]!r} and {r!r} share the "
                    f"trial-id label d{label}; they must differ at two decimals"
                )
            labels[label] = r
        if self.repetitions < 1:
            raise DomainError("repetitions must be >= 1")
        if self.movement_duration <= 0:
            raise DomainError("movement_duration must be positive")
        if self.condition not in CONDITIONS:
            raise DomainError(f"condition must be one of {CONDITIONS}")
        if self.feedback not in FEEDBACKS:
            raise DomainError(f"feedback must be one of {FEEDBACKS}")
        if self.feedforward_variance_factor <= 0:
            raise DomainError("feedforward_variance_factor must be positive")
        if self.response_mixture is not None:
            weights = self.response_mixture
            if len(weights) != len(RESPONSE_MULTIPLIERS) \
                    or not all(0.0 <= w < math.inf for w in weights) \
                    or sum(weights) <= 0:
                raise DomainError(
                    f"response_mixture needs {len(RESPONSE_MULTIPLIERS)} "
                    f"finite non-negative weights with positive sum"
                )
        if self.rest_padding < 0.2:
            raise DomainError("rest_padding must be >= 0.2 s")
        if self.sample_rate <= 0:
            raise DomainError("sample_rate must be positive")


@dataclass(frozen=True)
class Participant:
    """One simulated observer with private RNG streams.

    The trial and trajectory seeds are spawned per participant from the
    root seed, so generation order and thread count cannot change results.
    """

    participant_id: str
    ipd: float
    response_multiplier: float
    trial_seed: np.random.SeedSequence
    trajectory_seed: np.random.SeedSequence


@dataclass(frozen=True)
class TrialRecord:
    """Ground truth for one trial: the noisy endpoint and exact measures."""

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


def _participant_rng(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed_seq))


def generate_participants(config: SimConfig) -> list[Participant]:
    """Draw the cohort: IPDs, response multipliers, and RNG streams."""
    root = np.random.SeedSequence(config.seed)
    children = root.spawn(config.n_participants)
    width = max(2, len(str(config.n_participants - 1)))
    out = []
    for i, child in enumerate(children):
        draw_seed, trial_seed, traj_seed = child.spawn(3)
        rng = _participant_rng(draw_seed)
        if config.ipd_distribution == "uniform":
            ipd = float(rng.uniform(config.ipd_low, config.ipd_high))
        else:
            ipd = float(np.clip(rng.normal(config.ipd_mean, config.ipd_sd),
                                config.ipd_low, config.ipd_high))
        if config.response_mixture is None:
            multiplier = 1.0
        else:
            weights = np.asarray(config.response_mixture, dtype=float)
            multiplier = float(rng.choice(RESPONSE_MULTIPLIERS,
                                          p=weights / weights.sum()))
        out.append(Participant(
            participant_id=f"p{i:0{width}d}",
            ipd=ipd,
            response_multiplier=multiplier,
            trial_seed=trial_seed,
            trajectory_seed=traj_seed,
        ))
    return out


def _endpoint_bias(config: SimConfig, participant: Participant,
                   d_target: float) -> float:
    """Systematic depth bias of the endpoint of a reach whose target lies
    d_target from the eye."""
    if config.feedback == FEEDBACK_FEEDFORWARD:
        return 0.0
    eyes = EyeGeometry(ipd=participant.ipd)
    params = PerturbationParams(beta_offset=config.beta)
    bias = predict_endpoint(d_target, params, eyes) - d_target
    if config.condition == CONDITION_TRANSFORMED:
        bias *= 1.0 - participant.response_multiplier
    return bias


def generate_trials(config: SimConfig,
                    participants: list[Participant]) -> list[TrialRecord]:
    """Ground-truth trial table: biased endpoints plus Gaussian motor noise.

    The noise draw sequence depends only on the seed and the trial layout,
    not on condition or feedback, so runs differing only in those fields
    are trial-for-trial paired.  Each participant's noise is drawn in one
    call, in (reach, repetition) order, which gives the same values as one
    draw per trial.
    """
    noise_sd = config.motor_noise_sd
    if config.feedback == FEEDBACK_FEEDFORWARD:
        noise_sd *= math.sqrt(config.feedforward_variance_factor)
    pose = config.eye_pose
    condition = config.condition
    reps = config.repetitions
    rep_labels = [f"r{rep:03d}" for rep in range(reps)]
    records = []
    for participant in participants:
        rng = _participant_rng(participant.trial_seed)
        noise = rng.normal(0.0, noise_sd,
                           size=len(config.reach_distances) * reps).tolist()
        pid, ipd = participant.participant_id, participant.ipd
        half_ipd = EyeGeometry(ipd=ipd).half_ipd
        for k, reach in enumerate(config.reach_distances):
            d_target = pose.eye_distance_at(reach)
            bias = _endpoint_bias(config, participant, d_target)
            tau_target = angle_at(d_target, half_ipd)
            prefix = f"{pid}-{condition}-d{reach:.2f}-"
            for label, eps in zip(rep_labels, noise[k * reps:(k + 1) * reps]):
                z_end = reach + bias + eps
                tau_hand = angle_at(pose.eye_distance_at(z_end), half_ipd)
                records.append(TrialRecord(
                    trial_id=prefix + label,
                    participant_id=pid,
                    condition=condition,
                    reach_m=reach,
                    ipd_m=ipd,
                    endpoint_z=z_end,
                    movement_distance=z_end,
                    distance_error=z_end - reach,
                    endpoint_error=z_end - reach,
                    disparity_difference=tau_target - tau_hand,
                ))
    return records


def _minimum_jerk(u: np.ndarray) -> np.ndarray:
    return 10.0 * u**3 - 15.0 * u**4 + 6.0 * u**5


def generate_trajectories(config: SimConfig, trials: list[TrialRecord],
                          participants: list[Participant]) -> list[Trajectory]:
    """Sampled minimum-jerk depth trajectories for every trial.

    Each trial rests at the home position for the configured padding,
    moves to its endpoint along the depth axis with a minimum-jerk
    profile, then holds; optional white positional noise is low-pass
    filtered here so it cannot alias into the velocity analysis.
    """
    fs = config.sample_rate
    duration = config.rest_padding + config.movement_duration + config.rest_padding
    n = int(round(duration * fs)) + 1
    t = np.arange(n) / fs
    u = np.clip((t - config.rest_padding) / config.movement_duration, 0.0, 1.0)
    profile = _minimum_jerk(u)
    rngs = {p.participant_id: _participant_rng(p.trajectory_seed)
            for p in participants}
    trajectories = []
    for start in range(0, len(trials), BLOCK_TRIALS):
        block = trials[start:start + BLOCK_TRIALS]
        samples = np.zeros((len(block), 3, n))
        samples[:, 2] = np.outer([trial.endpoint_z for trial in block], profile)
        if config.trajectory_noise_sd > 0:
            # drawn trial by trial, in trial order, from each participant's
            # own stream; only the filtering is shared by the block
            noise = np.array([
                rngs[trial.participant_id].normal(
                    0.0, config.trajectory_noise_sd, size=(3, n))
                for trial in block
            ])
            samples += lowpass_block(noise, fs, 10.0)
        trajectories.extend(
            Trajectory(trial_id=trial.trial_id, sample_rate=fs, t=t,
                       x=x, y=y, z=z)
            for trial, (x, y, z) in zip(block, samples)
        )
    return trajectories


def write_participants_csv(participants: list[Participant],
                           path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["participant_id", "ipd_m", "response_multiplier"])
        for p in participants:
            writer.writerow([p.participant_id, repr(p.ipd),
                             repr(p.response_multiplier)])


# A targets.json entry after its key, as json.dumps(indent=2,
# sort_keys=True) writes it.
_TARGET_BODY = (': {\n    "condition": %s,\n    "ipd_m": %s,\n'
                '    "participant_id": %s,\n    "reach_m": %s\n  }')


def _json_scalar(value) -> str:
    """value as json.dumps writes it inside a container."""
    if type(value) is float and math.isfinite(value):
        return repr(value)
    return json.dumps(value)


def _write_targets_json(trials: list[TrialRecord], path: Path) -> None:
    """targets.json of the trials, one chunk of entries per write.

    The bytes equal json.dumps(entries, indent=2, sort_keys=True) + "\n"
    for the dict entries of trial id -> target fields.
    """
    ordered = sorted(trials, key=attrgetter("trial_id"))
    # As in a dict, a repeated id keeps its last trial; the sort is stable.
    ordered = [t for t, after in zip(ordered, ordered[1:] + [None])
               if after is None or after.trial_id != t.trial_id]
    last = None
    body = ""
    with path.open("w", encoding="utf-8") as fh:
        if not ordered:
            fh.write("{}\n")
            return
        fh.write("{\n")
        for start in range(0, len(ordered), _CHUNK_ROWS):
            entries = []
            for t in ordered[start:start + _CHUNK_ROWS]:
                # the trials of one (participant, reach) share their fields
                if last is None or not (
                        t.reach_m is last.reach_m and t.ipd_m is last.ipd_m
                        and t.participant_id is last.participant_id
                        and t.condition is last.condition):
                    last = t
                    body = _TARGET_BODY % (
                        _json_scalar(t.condition), _json_scalar(t.ipd_m),
                        _json_scalar(t.participant_id), _json_scalar(t.reach_m))
                entries.append("  " + encode_basestring_ascii(t.trial_id) + body)
            fh.write((",\n" if start else "") + ",\n".join(entries))
        fh.write("\n}\n")


def write_dataset(outdir: str | Path, participants: list[Participant],
                  trials: list[TrialRecord],
                  trajectories: list[Trajectory] | None = None) -> dict[str, str]:
    """Write the CSV family the analysis and fitting pipelines consume.

    outcomes.csv and targets.json are written in chunks of rows straight
    from the trial records, so no whole-file string is built.  Returns a
    name -> path map of everything written.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: dict[str, str] = {}

    path = outdir / "participants.csv"
    write_participants_csv(participants, path)
    written["participants"] = str(path)

    path = outdir / "outcomes.csv"
    # a ground-truth trial is valid, with no rejection reason and no
    # segment times
    write_outcomes_csv(
        ((t.trial_id, t.participant_id, t.condition, t.reach_m, True, None,
          None, None, t.movement_distance, t.distance_error, t.endpoint_error,
          t.disparity_difference) for t in trials),
        path)
    written["outcomes"] = str(path)

    path = outdir / "targets.json"
    _write_targets_json(trials, path)
    written["targets"] = str(path)

    if trajectories is not None:
        path = outdir / "trajectories.csv"
        write_trajectories_csv(trajectories, path)
        written["trajectories"] = str(path)
    return written

"""Seeded synthetic reaching experiments.

Generates participants, ground-truth trial outcomes, and full sampled
trajectories from a single config, providing known-answer inputs for the
trajectory analysis and model fitting pipelines.
"""

from __future__ import annotations

import csv
import json
import math
import operator
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError
from .geometry import EyeGeometry, angle_at
from .kinematics import (
    BLOCK_TRIALS,
    _CHUNK_ROWS,
    MIN_SAMPLES,
    EyePose,
    Trajectory,
    _TrialTable,
    _lowpass_in_place,
    _padded_series,
    write_outcomes_csv,
    write_trajectories_csv,
)
from .perception import BETA_BOUND_RAD, PerturbationParams, predict_endpoint

__all__ = [
    "SimConfig",
    "Participant",
    "TrialTable",
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
_NOISE_CUTOFF_HZ = 10.0


@dataclass(frozen=True)
class SimConfig:
    """Full description of one synthetic experiment.

    Attributes:
        n_participants: Cohort size.
        ipd_distribution: "uniform" over [ipd_low, ipd_high] or "normal"
            with ipd_mean/ipd_sd (ipd_sd >= 0) clipped to [ipd_low,
            ipd_high].
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
        seed: Non-negative 64-bit root seed; every output is a pure
            function of it.
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
        if self.ipd_sd < 0:
            raise DomainError(f"ipd_sd must be >= 0, got {self.ipd_sd!r}")
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
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed!r}")


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


@dataclass(frozen=True, eq=False)
class TrialTable:
    """Ground truth of every trial, one column per field.

    Row i is trial trial_id[i] of participant participant_id[i] under
    condition[i]: a target reach_m[i] deep, the participant's ipd_m[i], the
    noisy hand endpoint endpoint_z[i], and the exact hand-minus-target
    disparity_difference[i].  The endpoint is also the movement distance,
    and distance_error is the endpoint error as well.
    """

    trial_id: list[str]
    participant_id: list[str]
    condition: list[str]
    reach_m: np.ndarray
    ipd_m: np.ndarray
    endpoint_z: np.ndarray
    disparity_difference: np.ndarray

    def __len__(self) -> int:
        return len(self.trial_id)

    @property
    def distance_error(self) -> np.ndarray:
        """Endpoint minus target depth, per trial."""
        return self.endpoint_z - self.reach_m


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
                    participants: list[Participant]) -> TrialTable:
    """Ground-truth trial table: biased endpoints plus Gaussian motor noise.

    The noise draw sequence depends only on the seed and the trial layout,
    not on condition or feedback, so runs differing only in those fields
    are trial-for-trial paired.  Each participant's noise is drawn in one
    call, in (reach, repetition) order, which gives the same values as one
    draw per trial.  Each disparity is worked out per trial in scalar math,
    as geometry.angle_at keeps it.
    """
    noise_sd = config.motor_noise_sd
    if config.feedback == FEEDBACK_FEEDFORWARD:
        noise_sd *= math.sqrt(config.feedforward_variance_factor)
    pose = config.eye_pose
    condition = config.condition
    reaches = config.reach_distances
    reps = config.repetitions
    per_participant = len(reaches) * reps
    rep_labels = [f"r{rep:03d}" for rep in range(reps)]
    endpoint_z = np.empty(len(participants) * per_participant)
    disparity = np.empty_like(endpoint_z)
    trial_ids: list[str] = []
    pids: list[str] = []
    for i, participant in enumerate(participants):
        rng = _participant_rng(participant.trial_seed)
        noise = rng.normal(0.0, noise_sd, size=per_participant)
        pid = participant.participant_id
        half_ipd = EyeGeometry(ipd=participant.ipd).half_ipd
        biased, tau_target = [], []
        for reach in reaches:
            d_target = pose.eye_distance_at(reach)
            biased.append(reach + _endpoint_bias(config, participant, d_target))
            tau_target.append(angle_at(d_target, half_ipd))
            prefix = f"{pid}-{condition}-d{reach:.2f}-"
            trial_ids += [prefix + label for label in rep_labels]
        rows = slice(i * per_participant, (i + 1) * per_participant)
        # (reach + bias) + eps, the sum a float loop forms, rounded alike
        z_end = np.repeat(biased, reps) + noise
        endpoint_z[rows] = z_end
        disparity[rows] = [
            tau - angle_at(pose.eye_distance_at(z), half_ipd)
            for tau, z in zip(np.repeat(tau_target, reps).tolist(),
                              z_end.tolist())
        ]
        pids += [pid] * per_participant
    return TrialTable(
        trial_id=trial_ids,
        participant_id=pids,
        condition=[condition] * len(pids),
        reach_m=np.tile(np.repeat(np.asarray(reaches, dtype=np.float64), reps),
                        len(participants)),
        ipd_m=np.repeat([p.ipd for p in participants], per_participant),
        endpoint_z=endpoint_z,
        disparity_difference=disparity,
    )


def _minimum_jerk(u: np.ndarray) -> np.ndarray:
    return 10.0 * u**3 - 15.0 * u**4 + 6.0 * u**5


def generate_trajectories(config: SimConfig, trials: TrialTable,
                          participants: list[Participant]) -> Sequence[Trajectory]:
    """Sampled minimum-jerk depth trajectories for every trial.

    Each trial rests at the home position for the configured padding,
    moves to its endpoint along the depth axis with a minimum-jerk
    profile, then holds; optional white positional noise is low-pass
    filtered here at 10 Hz so it cannot alias into the velocity analysis,
    which needs a sample rate above 20 Hz (a DomainError otherwise).  The
    trials are copied block by block from _trajectory_blocks, the stream
    vackit simulate writes, into one trial table, all sharing one t array:
    a Sequence (not a list) whose items are Trajectory objects, built on
    access.  A trial that Trajectory refuses raises its DomainError.
    """
    blocks = _trajectory_blocks(config, trials, participants)
    t = _sample_times(config)
    m, n = len(trials), len(t)
    xyz = np.empty((3, m * n))
    for start, (*_, x, y, z) in zip(range(0, m * n, n),
                                    chain.from_iterable(blocks)):
        xyz[:, start:start + n] = x, y, z
    return _TrialTable(list(trials.trial_id), np.full(m, config.sample_rate),
                       np.full(m, n), n * np.arange(m), xyz,
                       np.zeros(m, dtype=np.intp), t)


def _sample_times(config: SimConfig) -> np.ndarray:
    """The t grid every trial shares: rest, movement, rest, at the sample
    rate.  A rate too low to filter trajectory noise is a DomainError."""
    fs = config.sample_rate
    if config.trajectory_noise_sd > 0 and not fs > 2 * _NOISE_CUTOFF_HZ:
        raise DomainError(
            f"sample_rate must exceed {2 * _NOISE_CUTOFF_HZ} Hz to filter "
            f"trajectory noise at {_NOISE_CUTOFF_HZ} Hz, got {fs!r}")
    duration = config.rest_padding + config.movement_duration + config.rest_padding
    return np.arange(int(round(duration * fs)) + 1) / fs


def _trajectory_blocks(config: SimConfig, trials: TrialTable,
                       participants: list[Participant]) -> Iterator[list[tuple]]:
    """generate_trajectories' trials, BLOCK_TRIALS at a time, each block a
    list of (trial_id, sample_rate, t, x, y, z) as _trial_views gives them.

    A rate too low to filter the noise, or trials too short for
    Trajectory, raise here, before any block is made.  A block holding a
    sample that is not finite raises Trajectory's error for its first such
    trial when it is reached, before it is yielded.  Each block's x, y and
    z are views into one array, padded for the filter when there is noise,
    that the next block overwrites: a block is read before the next is
    asked for.
    """
    t = _sample_times(config)
    if len(t) < MIN_SAMPLES and len(trials):
        # every trial shares t: the first is refused for its length
        Trajectory(trials.trial_id[0], config.sample_rate, t, t, t, t)
    return _filled_blocks(config, trials, participants, t)


def _filled_blocks(config: SimConfig, trials: TrialTable,
                   participants: list[Participant],
                   t: np.ndarray) -> Iterator[list[tuple]]:
    """_trajectory_blocks' stream, made one block at a time."""
    fs, sd, n = config.sample_rate, config.trajectory_noise_sd, len(t)
    u = np.clip((t - config.rest_padding) / config.movement_duration, 0.0, 1.0)
    profile = _minimum_jerk(u)
    rngs = {p.participant_id: _participant_rng(p.trajectory_seed)
            for p in participants}
    k = min(len(trials), BLOCK_TRIALS)
    if sd > 0:
        padded, samples = _padded_series(k, n)
    else:
        # axis-major zeros, of which only z is written: the pages of x and y
        # are never touched
        samples = np.moveaxis(np.zeros((3, k, n)), 0, 1)
    for start in range(0, len(trials), BLOCK_TRIALS):
        rows = slice(start, start + BLOCK_TRIALS)
        ids = trials.trial_id[rows]
        block = samples[:len(ids)]
        if sd > 0:
            # drawn trial by trial, in trial order, from each participant's
            # own stream; only the filtering is shared by the block
            for trial, pid in zip(block, trials.participant_id[rows]):
                trial[...] = rngs[pid].normal(0.0, sd, size=(3, n))
            _lowpass_in_place(padded[:, :3 * len(ids)], fs, _NOISE_CUTOFF_HZ)
            block[:, :2] += 0.0  # 0.0 + noise: a -0.0 comes out 0.0
            for z, endpoint in zip(block[:, 2], trials.endpoint_z[rows].tolist()):
                z += endpoint * profile
        else:
            np.multiply(trials.endpoint_z[rows, None], profile, out=block[:, 2])
        refused = ~np.isfinite(block).all(axis=(1, 2))
        if refused.any():
            i = int(refused.argmax())
            Trajectory(ids[i], fs, t, *block[i])  # raises its error
        yield [(trial_id, fs, t, *trial) for trial_id, trial in zip(ids, block)]


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
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is float and math.isfinite(value):
        return repr(value)
    return json.dumps(value)


def _write_targets_json(trials: TrialTable, path: Path) -> None:
    """targets.json of the trials, one chunk of entries per write.

    The bytes equal json.dumps(entries, indent=2, sort_keys=True) + "\n"
    for the dict entries of trial id -> target fields.
    """
    ids = trials.trial_id
    order = None
    if not all(map(str.__lt__, ids, islice(ids, 1, None))):
        # simulate's ids come sorted; otherwise write the rows in id order,
        # and as in a dict a repeated id keeps its last trial (the sort is
        # stable)
        by_id = sorted(range(len(ids)), key=ids.__getitem__)
        order = [i for i, after in zip(by_id, islice(by_id, 1, None))
                 if ids[after] != ids[i]] + by_id[-1:]
        del by_id
    with path.open("w", encoding="utf-8") as fh:
        if not ids:
            fh.write("{}\n")
            return
        fh.write("{\n")
        for start in range(0, len(ids if order is None else order), _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            if order is None:
                chunk_ids, conds = ids[rows], trials.condition[rows]
                pids = trials.participant_id[rows]
            else:
                rows = order[rows]
                chunk_ids, conds, pids = (
                    list(map(column.__getitem__, rows))
                    for column in (ids, trials.condition, trials.participant_id))
            # the trials of one (participant, reach) share their fields, so
            # each run of equal fields is formatted once; the floats' bits
            # tell -0.0 from 0.0
            reach, ipd = trials.reach_m[rows], trials.ipd_m[rows]
            n = len(conds)
            same = (np.fromiter(map(operator.eq, conds[1:], conds), bool, n - 1)
                    & np.fromiter(map(operator.eq, pids[1:], pids), bool, n - 1)
                    & (reach.view(np.int64)[1:] == reach.view(np.int64)[:-1])
                    & (ipd.view(np.int64)[1:] == ipd.view(np.int64)[:-1]))
            starts = [0, *(np.flatnonzero(~same) + 1).tolist(), n]
            bodies = []
            for a, b in zip(starts, starts[1:]):
                bodies += [_TARGET_BODY % (
                    _json_scalar(conds[a]), _json_scalar(float(ipd[a])),
                    _json_scalar(pids[a]), _json_scalar(float(reach[a])))] * (b - a)
            fh.write((",\n  " if start else "  ") + ",\n  ".join(
                map(str.__add__, map(encode_basestring_ascii, chunk_ids), bodies)))
        fh.write("\n}\n")


def write_dataset(outdir: str | Path, participants: list[Participant],
                  trials: TrialTable,
                  trajectories: Sequence[Trajectory] | Iterable[list[tuple]]
                  | None = None) -> dict[str, str]:
    """Write the CSV family the analysis and fitting pipelines consume.

    outcomes.csv and targets.json are written in chunks of rows straight
    from the trial table's columns, so no whole-file string is built;
    trajectories, when given, are anything write_trajectories_csv takes.
    They are written first: a block it refuses removes its partial file
    and leaves the directory without any file of this call.  Returns a
    name -> path map of everything written.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    trajectory_path = outdir / "trajectories.csv"
    if trajectories is not None:
        write_trajectories_csv(trajectories, trajectory_path)
    written: dict[str, str] = {}

    path = outdir / "participants.csv"
    write_participants_csv(participants, path)
    written["participants"] = str(path)

    path = outdir / "outcomes.csv"
    write_outcomes_csv(_outcome_chunks(trials), path)
    written["outcomes"] = str(path)

    path = outdir / "targets.json"
    _write_targets_json(trials, path)
    written["targets"] = str(path)

    if trajectories is not None:
        written["trajectories"] = str(trajectory_path)
    return written


def _outcome_chunks(trials: TrialTable) -> Iterator[tuple]:
    """The trials as write_outcomes_csv chunks of _CHUNK_ROWS rows.

    A ground-truth trial is valid, with no rejection reason and no segment
    times; its movement distance is its endpoint, and its distance and
    endpoint errors are one column.
    """
    for start in range(0, len(trials), _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        endpoint = trials.endpoint_z[rows]
        error = endpoint - trials.reach_m[rows]
        empty = [None] * len(endpoint)
        yield (trials.trial_id[rows], trials.participant_id[rows],
               trials.condition[rows], trials.reach_m[rows],
               [True] * len(endpoint), empty, empty, empty,
               endpoint, error, error, trials.disparity_difference[rows])

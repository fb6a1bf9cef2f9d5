"""Reaching-trajectory analysis.

Filtering, differentiation, movement segmentation, and per-trial error
measures for sampled 3D pointing movements.

World frame convention: the home position is the origin, +z is the depth
axis toward the targets, +y is up, +x is right.  The observer's eyes are
placed by an EyePose relative to the home position.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.signal import butter, filtfilt

from . import backends
from .errors import DataFormatError, DomainError
from .geometry import EyeGeometry

__all__ = [
    "Trajectory",
    "VelocitySeries",
    "MovementSegment",
    "TrialOutcome",
    "EyePose",
    "TargetSpec",
    "AnalyzedTrial",
    "lowpass_filter",
    "lowpass_block",
    "differentiate",
    "detect_segment",
    "trial_outcome",
    "analyze_trials",
    "read_trajectories_csv",
    "write_trajectories_csv",
    "write_outcomes_csv",
    "write_summary_csv",
]

DEFAULT_SAMPLE_RATE = 250.0
DEFAULT_CUTOFF_HZ = 10.0
DEFAULT_THRESHOLD = 0.050
HYSTERESIS_S = 0.020
MIN_SAMPLES = 25
# trials filtered together by analyze_trials; peak memory grows with this,
# not with the number of trials in the batch
BLOCK_TRIALS = 64


@dataclass(frozen=True)
class Trajectory:
    """A sampled 3D finger path.

    Attributes:
        trial_id: Identifier used to join trajectories with targets.
        sample_rate: Nominal sampling rate in Hz.
        t, x, y, z: Equal-length sample arrays; t in seconds, coordinates
            in meters with z the depth axis toward the targets.

    Raises:
        DomainError: If there are fewer than 25 samples (0.1 s at the
            default rate), a sample is nan or infinite, timestamps are not
            strictly increasing, or sampling deviates from the nominal
            period by more than 1%.
    """

    trial_id: str
    sample_rate: float
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self) -> None:
        arrays = {}
        for name in ("t", "x", "y", "z"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arrays[name] = arr
        n = len(arrays["t"])
        if any(len(a) != n for a in arrays.values()):
            raise DomainError(f"trial {self.trial_id}: sample arrays differ in length")
        if n < MIN_SAMPLES:
            raise DomainError(
                f"trial {self.trial_id}: need >= {MIN_SAMPLES} samples, got {n}"
            )
        if not all(np.isfinite(arr).all() for arr in arrays.values()):
            raise DomainError(f"trial {self.trial_id}: samples must be finite")
        if not 0 < self.sample_rate < math.inf:
            raise DomainError(
                f"trial {self.trial_id}: sample_rate must be positive and finite"
            )
        dt = np.diff(arrays["t"])
        if np.any(dt <= 0):
            raise DomainError(f"trial {self.trial_id}: timestamps must strictly increase")
        period = 1.0 / self.sample_rate
        if np.any(np.abs(dt - period) > 0.01 * period):
            raise DomainError(
                f"trial {self.trial_id}: sampling not uniform within 1% of "
                f"{period:.6g} s"
            )
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class VelocitySeries:
    """Per-axis velocities in m/s, aligned with the source timestamps."""

    t: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    vz: np.ndarray
    sample_rate: float

    @property
    def depth(self) -> np.ndarray:
        return self.vz


@dataclass(frozen=True)
class MovementSegment:
    """Detected movement window, inclusive sample indices."""

    onset_index: int
    termination_index: int
    onset_time: float
    termination_time: float

    def __post_init__(self) -> None:
        if not (0 <= self.onset_index < self.termination_index):
            raise DomainError(
                f"segment indices must satisfy 0 <= onset < termination, got "
                f"{self.onset_index}..{self.termination_index}"
            )


@dataclass(frozen=True)
class TrialOutcome:
    """Per-trial movement measures; measure fields are None when invalid."""

    trial_id: str
    valid: bool
    rejection_reason: str | None = None
    segment: MovementSegment | None = None
    movement_distance: float | None = None
    distance_error: float | None = None
    endpoint_error: float | None = None
    disparity_difference: float | None = None


@dataclass(frozen=True)
class EyePose:
    """Observer eye position relative to the home position.

    The default places the cyclopean eye 0.30 m behind and 0.35 m above
    the home position.  Only the eye-to-point distance enters the angle
    measures, so no gaze orientation is needed.
    """

    behind_m: float = 0.30
    above_m: float = 0.35
    lateral_m: float = 0.0

    def eye_distance_of(self, x: float | np.ndarray, y: float | np.ndarray,
                        z: float | np.ndarray) -> float | np.ndarray:
        """Distance from the cyclopean eye to a world point."""
        return np.sqrt((np.asarray(x) - self.lateral_m) ** 2
                       + (np.asarray(y) - self.above_m) ** 2
                       + (np.asarray(z) + self.behind_m) ** 2)

    def eye_distance(self, reach: float | np.ndarray) -> float | np.ndarray:
        """Distance from the eye to an on-axis table target at depth reach."""
        return self.eye_distance_of(0.0, 0.0, reach)

    def eye_distance_at(self, reach: float) -> float:
        """eye_distance(reach) on a Python float, bit for bit.

        The same expression as eye_distance_of; ``** 2`` is libm pow, as
        for numpy scalars, and can differ from ``d * d`` in the last bit.
        """
        try:
            return math.sqrt((0.0 - self.lateral_m) ** 2
                             + (0.0 - self.above_m) ** 2
                             + (reach + self.behind_m) ** 2)
        except OverflowError:
            return math.inf

    def to_dict(self) -> dict:
        return {"behind_m": self.behind_m, "above_m": self.above_m,
                "lateral_m": self.lateral_m}


@dataclass(frozen=True)
class TargetSpec:
    """Target metadata for one trial.

    ipd_m, when set, overrides the batch-level eye geometry for this
    trial's disparity measure; use it when participants' interpupillary
    distances differ.  analyze_trials rejects a trial whose ipd_m lies
    outside (0, 0.1) m as "bad ipd".
    """

    trial_id: str
    reach_m: float
    participant_id: str = ""
    condition: str = ""
    x_m: float = 0.0
    y_m: float = 0.0
    go_cue_time_s: float | None = None
    ipd_m: float | None = None


@dataclass(frozen=True)
class AnalyzedTrial:
    """A trial outcome joined with its target metadata."""

    target: TargetSpec
    outcome: TrialOutcome


@lru_cache(maxsize=32)
def _lowpass_design(sample_rate: float, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Second-order Butterworth (b, a), designed once per rate and cutoff.

    The cached arrays are shared by every caller, so they are read-only.
    """
    nyquist = sample_rate / 2.0
    if not (0.0 < cutoff < nyquist):
        raise DomainError(
            f"cutoff must be in (0, {nyquist}) Hz, got {cutoff!r}"
        )
    b, a = butter(2, cutoff, btype="low", fs=sample_rate)
    b.flags.writeable = False
    a.flags.writeable = False
    return b, a


def lowpass_block(samples: np.ndarray, sample_rate: float,
                  cutoff: float = DEFAULT_CUTOFF_HZ) -> np.ndarray:
    """Zero-phase low-pass of every series in a stack, along the last axis.

    Each series comes out bit for bit as if it were filtered on its own,
    so a (k, 3, n) block of k trials costs one call instead of 3k.

    Raises:
        DomainError: If the cutoff is not inside (0, sample_rate/2).
    """
    b, a = _lowpass_design(sample_rate, cutoff)
    return filtfilt(b, a, samples, axis=-1)


def _velocity(samples: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d/dt along the last axis: central differences, second-order ends."""
    return np.gradient(samples, t, axis=-1, edge_order=2)


def lowpass_filter(traj: Trajectory, cutoff: float = DEFAULT_CUTOFF_HZ) -> Trajectory:
    """Zero-phase second-order Butterworth low-pass, applied per axis.

    The forward-backward pass doubles the effective order and cancels the
    phase; DC gain is exactly 1.

    Raises:
        DomainError: If the cutoff is not inside (0, sample_rate/2).
    """
    x, y, z = lowpass_block(np.stack((traj.x, traj.y, traj.z)),
                            traj.sample_rate, cutoff)
    return replace(traj, x=x, y=y, z=z)


def differentiate(traj: Trajectory) -> VelocitySeries:
    """Velocity by central differences, second-order one-sided at the ends.

    Boundary estimates use the same accuracy order as the interior so that
    re-running detection on a trajectory cut at a threshold crossing sees
    the same velocity there, which keeps segmentation idempotent.
    """
    if len(traj) < 3:
        raise DomainError(f"trial {traj.trial_id}: need >= 3 samples to differentiate")
    vx, vy, vz = _velocity(np.stack((traj.x, traj.y, traj.z)), traj.t)
    return VelocitySeries(t=traj.t, vx=vx, vy=vy, vz=vz,
                          sample_rate=traj.sample_rate)


def _segment(vz: np.ndarray, t: np.ndarray, sample_rate: float,
             threshold: float) -> MovementSegment | None:
    min_run = max(1, math.ceil(HYSTERESIS_S * sample_rate))
    onset = backends.sustained_run_start(vz > threshold, min_run, 0, accept_tail=False)
    if onset < 0:
        return None
    # peak of the detected movement, not of the whole series: a brief
    # pre-onset glitch taller than the true peak must not drag the
    # termination scan before the onset
    peak = onset + int(np.argmax(vz[onset:]))
    term = backends.sustained_run_start(vz < threshold, min_run, peak + 1,
                                        accept_tail=True)
    if term < 0:
        return None
    return MovementSegment(
        onset_index=onset,
        termination_index=term,
        onset_time=float(t[onset]),
        termination_time=float(t[term]),
    )


def detect_segment(velocity: VelocitySeries,
                   threshold: float = DEFAULT_THRESHOLD) -> MovementSegment | None:
    """Find the movement window from the depth-velocity profile.

    Onset is the first sample where depth velocity exceeds the threshold
    and stays above it for at least 20 ms; termination is the first sample
    after the peak where it drops below the threshold and stays below for
    20 ms (a run cut off by the end of the recording counts as sustained,
    since recordings stop with the hand at rest).

    Args:
        velocity: Output of differentiate.
        threshold: Depth speed threshold in m/s; 0 degenerates to the first
            positive-velocity sample.

    Returns:
        The detected segment, or None when no sustained crossing exists
        (slow-movement rejection).
    """
    return _segment(velocity.depth, velocity.t, velocity.sample_rate, threshold)


def _measure(trial_id: str, target: TargetSpec, eyes: EyeGeometry,
             eye_pose: EyePose, t: np.ndarray, sample_rate: float,
             filtered: np.ndarray, vz: np.ndarray,
             threshold: float) -> TrialOutcome:
    """Segment and measure one trial from its filtered (3, n) samples."""
    segment = _segment(vz, t, sample_rate, threshold)
    if segment is None:
        return TrialOutcome(trial_id=trial_id, valid=False,
                            rejection_reason="slow")
    if target.go_cue_time_s is not None and segment.onset_time < target.go_cue_time_s:
        return TrialOutcome(trial_id=trial_id, valid=False,
                            rejection_reason="false start")
    x, y, z = filtered
    i0, i1 = segment.onset_index, segment.termination_index
    movement_distance = float(z[i1] - z[i0])
    distance_error = movement_distance - target.reach_m
    endpoint_error = float(z[i1]) - target.reach_m
    d_target = float(eye_pose.eye_distance_of(target.x_m, target.y_m, target.reach_m))
    d_hand = float(eye_pose.eye_distance_of(x[i1], y[i1], z[i1]))
    tau_target = 2.0 * math.atan2(eyes.half_ipd, d_target)
    tau_hand = 2.0 * math.atan2(eyes.half_ipd, d_hand)
    return TrialOutcome(
        trial_id=trial_id,
        valid=True,
        segment=segment,
        movement_distance=movement_distance,
        distance_error=distance_error,
        endpoint_error=endpoint_error,
        disparity_difference=tau_target - tau_hand,
    )


def _block_outcomes(trajectories: list[Trajectory], targets: list[TargetSpec],
                    eyes: list[EyeGeometry], eye_pose: EyePose, cutoff: float,
                    threshold: float) -> list[TrialOutcome]:
    """Outcomes of trials that share one sample rate and one t grid.

    The trials are filtered as one (k, 3, n) stack and their depth
    velocities taken with one gradient call; every trial's numbers equal
    those of a batch of one.
    """
    head = trajectories[0]
    filtered = lowpass_block(
        np.array([(traj.x, traj.y, traj.z) for traj in trajectories]),
        head.sample_rate, cutoff)
    vz = _velocity(filtered[:, 2], head.t)
    return [
        _measure(traj.trial_id, target, trial_eyes, eye_pose, head.t,
                 head.sample_rate, f, v, threshold)
        for traj, target, trial_eyes, f, v
        in zip(trajectories, targets, eyes, filtered, vz)
    ]


def trial_outcome(traj: Trajectory, target: TargetSpec, eyes: EyeGeometry,
                  eye_pose: EyePose, cutoff: float = DEFAULT_CUTOFF_HZ,
                  threshold: float = DEFAULT_THRESHOLD) -> TrialOutcome:
    """Full single-trial pipeline: filter, differentiate, segment, measure.

    Measures (filtered coordinates throughout):
      * movement_distance: depth displacement from onset to termination.
      * distance_error: movement_distance minus the target reach distance.
      * endpoint_error: endpoint depth minus target depth.
      * disparity_difference: the hand's binocular disparity minus the
        target's at the endpoint, equal to the target's subtended angle
        minus the hand's in the eye frame; negative when the hand stops
        short of the target.
    """
    return _block_outcomes([traj], [target], [eyes], eye_pose, cutoff,
                           threshold)[0]


def analyze_trials(trajectories: list[Trajectory], targets: dict[str, TargetSpec],
                   eyes: EyeGeometry, eye_pose: EyePose,
                   cutoff: float = DEFAULT_CUTOFF_HZ,
                   threshold: float = DEFAULT_THRESHOLD) -> list[AnalyzedTrial]:
    """Analyze a batch of trials, ordered by trial_id.

    Trials without a matching target are flagged invalid with reason
    "no target", and trials whose target sets an ipd_m outside (0, 0.1) m
    with reason "bad ipd", rather than aborting the batch.  Trials that
    share a sample rate and a t grid are filtered in blocks of
    BLOCK_TRIALS; the outcomes equal trial_outcome's for each trial on its
    own.
    """
    ordered = sorted(trajectories, key=lambda tr: tr.trial_id)
    results: list[AnalyzedTrial | None] = [None] * len(ordered)
    trial_eyes: list[EyeGeometry | None] = [None] * len(ordered)
    groups: dict[tuple[float, bytes], list[int]] = {}
    for i, traj in enumerate(ordered):
        target = targets.get(traj.trial_id)
        reason = None
        if target is None:
            target = TargetSpec(trial_id=traj.trial_id, reach_m=float("nan"))
            reason = "no target"
        elif target.ipd_m is None:
            trial_eyes[i] = eyes
        else:
            try:
                trial_eyes[i] = EyeGeometry(ipd=target.ipd_m)
            except DomainError:
                reason = "bad ipd"
        if reason is None:
            groups.setdefault((traj.sample_rate, traj.t.tobytes()), []).append(i)
        else:
            results[i] = AnalyzedTrial(
                target=target,
                outcome=TrialOutcome(trial_id=traj.trial_id, valid=False,
                                     rejection_reason=reason),
            )
    for members in groups.values():
        for start in range(0, len(members), BLOCK_TRIALS):
            block = members[start:start + BLOCK_TRIALS]
            block_targets = [targets[ordered[i].trial_id] for i in block]
            outcomes = _block_outcomes(
                [ordered[i] for i in block], block_targets,
                [trial_eyes[i] for i in block], eye_pose, cutoff, threshold)
            for i, target, outcome in zip(block, block_targets, outcomes):
                results[i] = AnalyzedTrial(target=target, outcome=outcome)
    return results


TRAJECTORY_HEADER = ["trial_id", "t", "x", "y", "z"]


def read_trajectories_csv(
    path: str | Path,
) -> tuple[list[Trajectory], list[TrialOutcome]]:
    """Read trajectories from a CSV with header trial_id,t,x,y,z (SI units).

    Rows are grouped by trial_id.  Trials with sampling gaps, irregular
    periods, too few samples, or a nan or infinite value come back as
    invalid outcomes (reason "missing data") instead of aborting the
    batch; malformed rows or non-increasing timestamps are file errors.

    Returns:
        (trajectories, rejected), each sorted by trial_id.

    Raises:
        DataFormatError: On a bad header, an unparseable row, or
            timestamps that do not strictly increase within a trial.
    """
    path = Path(path)
    groups: dict[str, list[tuple[float, float, float, float]]] = {}
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != TRAJECTORY_HEADER:
            raise DataFormatError(
                f"expected header {','.join(TRAJECTORY_HEADER)}", str(path), 1
            )
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                groups.setdefault(row[0], []).append(
                    (float(row[1]), float(row[2]), float(row[3]), float(row[4]))
                )
            except (ValueError, IndexError):
                raise DataFormatError(f"bad sample row {row!r}", str(path),
                                      line_no) from None
    trajectories: list[Trajectory] = []
    rejected: list[TrialOutcome] = []
    for trial_id, samples in groups.items():
        arr = np.asarray(samples, dtype=np.float64)
        dt = np.diff(arr[:, 0])
        # a single sample or a non-finite timestamp leaves no period to
        # check here; Trajectory rejects such a trial as missing data
        well_timed = len(dt) > 0 and bool(np.isfinite(arr[:, 0]).all())
        if well_timed and np.any(dt <= 0):
            raise DataFormatError(f"trial {trial_id}: timestamps must strictly "
                                  f"increase", str(path))
        rate = 1.0 / float(np.median(dt)) if well_timed else math.nan
        try:
            trajectories.append(Trajectory(
                trial_id=trial_id, sample_rate=rate,
                t=arr[:, 0], x=arr[:, 1], y=arr[:, 2], z=arr[:, 3],
            ))
        except DomainError:
            rejected.append(TrialOutcome(trial_id=trial_id, valid=False,
                                         rejection_reason="missing data"))
    return (sorted(trajectories, key=lambda tr: tr.trial_id),
            sorted(rejected, key=lambda out: out.trial_id))


def _csv_field(value: str) -> str:
    """value as csv.writer renders it in a row: quoted only when needed."""
    buf = io.StringIO()
    csv.writer(buf).writerow([value, ""])
    return buf.getvalue()[:-len(",\r\n")]


def _csv_fields(values: list[str]) -> list[str]:
    """_csv_field of each value, with one csv.writer call when none is quoted."""
    buf = io.StringIO()
    csv.writer(buf).writerow(values)
    if buf.getvalue() == ",".join(values) + "\r\n":
        return values
    return [_csv_field(value) for value in values]


def write_trajectories_csv(trajectories: list[Trajectory], path: str | Path) -> None:
    """Write trajectories in the trial_id,t,x,y,z schema.

    The bytes equal a csv.writer row per sample; each trial is formatted
    as one string, and consecutive trials on the same t grid share its
    formatted timestamps.
    """
    path = Path(path)
    grid: bytes | None = None
    times: list[str] = []
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRAJECTORY_HEADER) + "\r\n")
        for traj in trajectories:
            if traj.t.tobytes() != grid:
                grid, times = traj.t.tobytes(), list(map(repr, traj.t.tolist()))
            trial_id = _csv_field(traj.trial_id)
            fh.write("".join([
                f"{trial_id},{t},{x!r},{y!r},{z!r}\r\n" for t, x, y, z
                in zip(times, traj.x.tolist(), traj.y.tolist(), traj.z.tolist())
            ]))


OUTCOME_HEADER = [
    "trial_id", "participant_id", "condition", "target_reach_m", "valid",
    "rejection_reason", "onset_time_s", "termination_time_s",
    "movement_distance_m", "distance_error_m", "endpoint_error_m",
    "disparity_difference_rad",
]


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def write_outcomes_csv(analyzed: list[AnalyzedTrial], path: str | Path) -> None:
    """Write one row per analyzed trial, ordered as given."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(OUTCOME_HEADER)
        for item in analyzed:
            out, tgt = item.outcome, item.target
            seg = out.segment
            writer.writerow([
                out.trial_id, tgt.participant_id, tgt.condition,
                _fmt(tgt.reach_m if math.isfinite(tgt.reach_m) else None),
                "1" if out.valid else "0",
                out.rejection_reason or "",
                _fmt(seg.onset_time if seg else None),
                _fmt(seg.termination_time if seg else None),
                _fmt(out.movement_distance),
                _fmt(out.distance_error),
                _fmt(out.endpoint_error),
                _fmt(out.disparity_difference),
            ])


def write_summary_csv(analyzed: list[AnalyzedTrial], path: str | Path) -> None:
    """Write means and 95% CIs of the error measures per (condition, reach)."""
    groups: dict[tuple[str, float], list[TrialOutcome]] = {}
    for item in analyzed:
        if item.outcome.valid:
            key = (item.target.condition, item.target.reach_m)
            groups.setdefault(key, []).append(item.outcome)
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "condition", "target_reach_m", "n",
            "mean_distance_error_m", "ci95_distance_error_m",
            "mean_endpoint_error_m", "ci95_endpoint_error_m",
            "mean_disparity_difference_rad", "ci95_disparity_difference_rad",
        ])
        for (condition, reach) in sorted(groups):
            outs = groups[(condition, reach)]
            row: list[str] = [condition, repr(float(reach)), str(len(outs))]
            for attr in ("distance_error", "endpoint_error", "disparity_difference"):
                vals = np.array([getattr(o, attr) for o in outs], dtype=float)
                mean = float(np.mean(vals))
                if len(vals) > 1:
                    ci = 1.96 * float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
                else:
                    ci = 0.0
                row.extend([repr(mean), repr(ci)])
            writer.writerow(row)

"""Reaching-trajectory analysis.

Filtering, differentiation, movement segmentation, and per-trial error
measures for sampled 3D pointing movements.  Every filter call, of one
trial or of a block, fills the one padded layout of _padded_series.  The
types that hold arrays compare and hash by identity.

World frame convention: the home position is the origin, +z is the depth
axis toward the targets, +y is up, +x is right.  The observer's eyes are
placed by an EyePose relative to the home position.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataFormatError, DomainError
from .geometry import EyeGeometry, angle_at
from .meshio import _column_chunks, _csv_records, _row_bound, _runs

__all__ = [
    "Trajectory",
    "VelocitySeries",
    "MovementSegment",
    "TrialOutcome",
    "EyePose",
    "TargetSpec",
    "AnalyzedTrial",
    "lowpass_filter",
    "differentiate",
    "detect_segment",
    "trial_outcome",
    "analyze_trials",
    "read_trajectories_csv",
    "write_trajectories_csv",
    "outcome_row",
    "outcome_columns",
    "write_outcomes_csv",
    "write_summary_csv",
]

DEFAULT_CUTOFF_HZ = 10.0
DEFAULT_THRESHOLD = 0.050
HYSTERESIS_S = 0.020
MIN_SAMPLES = 25
# trials filtered together by analyze_trials, and generated, filtered and
# written together by vackit simulate (synth._trajectory_blocks); the
# filter's Python loop steps once per sample over the whole block, so small
# blocks pay for it.  Peak memory grows with this and with the trial length,
# not with the batch size: a block is one padded copy, filtered in place
# (2.9 MB for 512 trials of 221 samples), and analyze then segments it a
# window at a time from a scratch of one window (analyze_trials of 576
# trials peaks at about 3.9 MB at 221 samples, 111 MB at 8,001).
BLOCK_TRIALS = 512
# trials of a block copied in, and later segmented, at a time
_WINDOW_TRIALS = 64
# odd-extension length at each end of a filtered series: scipy filtfilt's
# default, 3 * max(len(a), len(b)) for an order-2 filter
_PADLEN = 9


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class _TrialTable(Sequence):
    """Trials as columns, shaped like synth.TrialTable: trial i is
    trial_id[i], sampled at sample_rate[i] Hz; its x, y and z are columns
    start[i] to start[i] + length[i] of the (3, rows) xyz, and its t the
    length[i] values of t from t_start[i], so trials on one grid can share
    them.  Indexing builds (and checks) a Trajectory of views; nothing else
    does.  Like a Trajectory, it compares equal only to itself.
    """

    trial_id: list[str]
    sample_rate: np.ndarray
    length: np.ndarray
    start: np.ndarray
    xyz: np.ndarray
    t_start: np.ndarray
    t: np.ndarray

    def __len__(self) -> int:
        return len(self.trial_id)

    def __getitem__(self, i: int) -> Trajectory:
        a, b, n = self.start[i], self.t_start[i], self.length[i]
        return Trajectory(self.trial_id[i], float(self.sample_rate[i]),
                          self.t[b:b + n], *self.xyz[:, a:a + n])


def _trial_views(trials: Sequence[Trajectory]) -> list[tuple]:
    """(trial_id, sample_rate, t, x, y, z) of each trial, in order: views
    into a _TrialTable's arrays, or a Trajectory's own; nothing is copied
    and no Trajectory is built."""
    if not isinstance(trials, _TrialTable):
        return [(tr.trial_id, tr.sample_rate, tr.t, tr.x, tr.y, tr.z)
                for tr in trials]
    return [(trial_id, rate, trials.t[b:b + n], *trials.xyz[:, a:a + n])
            for trial_id, rate, n, a, b in zip(
                trials.trial_id, trials.sample_rate.tolist(),
                trials.length.tolist(), trials.start.tolist(),
                trials.t_start.tolist())]


@dataclass(frozen=True, eq=False)
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

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise DomainError(f"eye pose {f.name} must be finite, got {value!r}")

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
        """eye_distance(reach) on a Python float, bit for bit."""
        return self._distance_to(0.0, 0.0, reach)

    def _distance_to(self, x: float, y: float, z: float) -> float:
        """eye_distance_of(x, y, z) on Python floats, bit for bit.

        The same expression; ``** 2`` is libm pow, as for numpy scalars,
        and can differ from ``d * d`` in the last bit.  A square past the
        float range, which math raises on, is left to numpy, which gives
        inf, or nan with a nan coordinate.  So is a nan result: of two nan
        terms, numpy's sum keeps the second's sign and payload, and Python's
        the first's once CPython has specialized the addition.
        """
        try:
            d = math.sqrt((x - self.lateral_m) ** 2 + (y - self.above_m) ** 2
                          + (z + self.behind_m) ** 2)
        except OverflowError:
            d = math.nan
        if d == d:
            return d
        with np.errstate(over="ignore"):
            return float(self.eye_distance_of(x, y, z))


@dataclass(frozen=True)
class TargetSpec:
    """Target metadata for one trial.

    ipd_m, when set, overrides the batch-level eye geometry for this
    trial's disparity measure; use it when participants' interpupillary
    distances differ.  analyze_trials rejects a trial as "bad target" when
    reach_m is not finite and positive or x_m, y_m or a set go_cue_time_s
    is not finite, and as "bad ipd" when ipd_m lies outside (0, 0.1) m.
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
def _lowpass_design(sample_rate: float,
                    cutoff: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Second-order Butterworth (b, a) and its step-response state zi.

    A step-for-step transcription of scipy.signal.butter(2, cutoff,
    fs=sample_rate) (prewarp, analog poles, bilinear transform, zpk2tf) and
    of scipy.signal.lfilter_zi, so every coefficient has the same bits.
    Designed once per rate and cutoff; the cached arrays are shared by every
    caller, so they are read-only.
    """
    nyquist = sample_rate / 2.0
    if not (0.0 < cutoff < nyquist):
        raise DomainError(
            f"cutoff must be in (0, {nyquist}) Hz, got {cutoff!r}"
        )
    warped = 4.0 * float(np.tan(np.pi * (cutoff / nyquist) / 2.0))
    poles = warped * -np.exp(1j * np.pi * np.array([-1.0, 1.0]) / 4)
    gain = warped ** 2 * np.real(1.0 / np.prod(4.0 - poles))
    b = gain * np.poly([-1.0, -1.0])
    a = np.poly((4.0 + poles) / (4.0 - poles))
    companion = np.array([[-a[1], -a[2]], [1.0, 0.0]])
    zi = np.linalg.solve(np.eye(2) - companion.T, b[1:] - a[1:] * b[0])
    for arr in (b, a, zi):
        arr.flags.writeable = False
    return b, a, zi


def _lfilter_rows(b: np.ndarray, a: np.ndarray, zi: np.ndarray,
                  x: np.ndarray) -> None:
    """Direct-form-II-transposed filter, in place, down axis 0 of x.

    The initial state is zi * x[0], and each step does scipy's C loop's
    operations on the same operands (a row's x terms are taken before its
    output overwrites it), so every series comes out as
    scipy.signal.lfilter(b, a, series, zi=zi * series[0]) does.
    """
    b0, b1, b2 = b.tolist()
    a1, a2 = a[1:].tolist()
    z0, z1 = zi[0] * x[0], zi[1] * x[0]
    w, xb, ya = np.empty_like(z0), np.empty_like(z0), np.empty_like(z0)
    for xk in x:
        # y = z0 + b0·x;  z0 = z1 + x·b1 − y·a1;  z1 = x·b2 − y·a2
        np.add(z1, np.multiply(xk, b1, out=xb), out=w)
        np.multiply(xk, b2, out=z1)
        np.add(z0, np.multiply(xk, b0, out=xb), out=xk)
        z0, w = w, z0
        z0 -= np.multiply(xk, a1, out=ya)
        z1 -= np.multiply(xk, a2, out=ya)


def _padded_series(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """An empty (n + 18, 3k) array for _lowpass_in_place and its middle rows
    as a (k, 3, n) view: trial i's axis a is column 3i + a.  Every filter
    call, of one trial or of a block, uses this layout."""
    padded = np.empty((n + 2 * _PADLEN, 3 * k))
    return padded, padded[_PADLEN:-_PADLEN].reshape(n, k, 3).transpose(1, 2, 0)


def _lowpass_in_place(x: np.ndarray, sample_rate: float,
                      cutoff: float) -> None:
    """Zero-phase low-pass, in place, of the m series held in the middle n
    rows of a time-major (n + 18, m) float64 array.

    Bit for bit scipy.signal.filtfilt(b, a, x[9:-9], axis=0) with the
    order-2 Butterworth (b, a): the 9-sample odd extensions go into the end
    rows, then the forward and the reversed pass run in place, each step
    one row operation over every series.  Raises DomainError if the cutoff
    is not inside (0, sample_rate/2).
    """
    b, a, zi = _lowpass_design(sample_rate, cutoff)
    mid = x[_PADLEN:-_PADLEN]
    np.subtract(2 * mid[:1], mid[_PADLEN:0:-1], out=x[:_PADLEN])
    np.subtract(2 * mid[-1:], mid[-2:-_PADLEN - 2:-1], out=x[-_PADLEN:])
    _lfilter_rows(b, a, zi, x)
    _lfilter_rows(b, a, zi, x[::-1])


def _velocity(f: np.ndarray, t: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """d/dt down axis 0 of a 2-d f, into out (a new array when None):
    np.gradient(f, t, axis=0, edge_order=2) bit for bit, its three-point
    expressions for an even t and for any other evaluated term by term into
    out, so only an uneven t needs a scratch array, as large as out."""
    out = np.empty(f.shape) if out is None else out
    inner, dt = out[1:-1], np.diff(t)
    if (dt == dt[0]).all():
        h = dt[0]
        np.divide(np.subtract(f[2:], f[:-2], out=inner), 2.0 * h, out=inner)
        ends = (-1.5 / h, 2.0 / h, -0.5 / h), (0.5 / h, -2.0 / h, 1.5 / h)
    else:
        d1, d2 = dt[:-1, None], dt[1:, None]
        scratch = np.empty_like(inner)
        np.multiply(-d2 / (d1 * (d1 + d2)), f[:-2], out=inner)
        inner += np.multiply((d2 - d1) / (d1 * d2), f[1:-1], out=scratch)
        inner += np.multiply(d1 / (d2 * (d1 + d2)), f[2:], out=scratch)
        (d1, d2), (e1, e2) = dt[:2], dt[-2:]
        ends = ((-(2.0 * d1 + d2) / (d1 * (d1 + d2)), (d1 + d2) / (d1 * d2),
                 -d1 / (d2 * (d1 + d2))),
                (e2 / (e1 * (e1 + e2)), -(e2 + e1) / (e1 * e2),
                 (2.0 * e2 + e1) / (e2 * (e1 + e2))))
    (a, b, c), (p, q, r) = ends
    out[0] = a * f[0] + b * f[1] + c * f[2]
    out[-1] = p * f[-3] + q * f[-2] + r * f[-1]
    return out


def lowpass_filter(traj: Trajectory, cutoff: float = DEFAULT_CUTOFF_HZ) -> Trajectory:
    """Zero-phase second-order Butterworth low-pass, applied per axis.

    The forward-backward pass doubles the effective order and cancels the
    phase; DC gain is exactly 1.  The trial is filtered as a block of one,
    as analyze_trials filters its blocks, so the bits are the same.  Its
    Python loop steps once per sample; for many trials, use analyze_trials.

    Raises:
        DomainError: If the cutoff is not inside (0, sample_rate/2).
    """
    padded, (xyz,) = _padded_series(1, len(traj))
    xyz[...] = traj.x, traj.y, traj.z
    _lowpass_in_place(padded, traj.sample_rate, cutoff)
    return replace(traj, x=xyz[0], y=xyz[1], z=xyz[2])  # Trajectory copies


def differentiate(traj: Trajectory) -> VelocitySeries:
    """Velocity by central differences, second-order one-sided at the ends.

    Boundary estimates use the same accuracy order as the interior so that
    re-running detection on a trajectory cut at a threshold crossing sees
    the same velocity there, which keeps segmentation idempotent.
    """
    vx, vy, vz = _velocity(np.column_stack((traj.x, traj.y, traj.z)), traj.t).T
    return VelocitySeries(t=traj.t, vx=vx, vy=vy, vz=vz,
                          sample_rate=traj.sample_rate)


def _run_starts(flags: np.ndarray, min_run: int, start: np.ndarray,
                accept_tail: bool) -> np.ndarray:
    """Per row of a (k, n) flag block, where its first sustained run begins.

    Columns before start[row] count as False, so a run already in progress
    at start[row] is counted from there.  The runs of True of every row are
    [begin, end) pairs, taken from the edges of the row-padded block by one
    np.nonzero; each row takes its first run at least min_run long, or with
    accept_tail its first that reaches the end of the row (movement
    termination: the recording stops while the hand is at rest).

    Returns:
        One start index per row, -1 where no run qualifies.
    """
    k, n = flags.shape
    padded = np.zeros((k, n + 2), dtype=np.bool_)
    padded[:, 1:-1] = flags & (np.arange(n) >= start[:, None])
    # every padded row begins and ends False, so its edges pair up
    rows, edges = np.nonzero(padded[:, 1:] != padded[:, :-1])
    row, begin, end = rows[::2], edges[::2], edges[1::2]
    found = (end - begin >= min_run) | (accept_tail & (end == n))
    hit, first = np.unique(row[found], return_index=True)
    out = np.full(k, -1, dtype=np.intp)
    out[hit] = begin[found][first]
    return out


def _check_threshold(threshold: float) -> None:
    """Refuse a speed threshold that would label every trial wrongly."""
    if not 0.0 <= threshold < math.inf:
        raise DomainError(f"threshold must be finite and >= 0 m/s, got {threshold!r}")


def _segments(vz: np.ndarray, t: Sequence[np.ndarray], sample_rate: float,
              threshold: float) -> list[MovementSegment | None]:
    """The movement segment of each row of a (k, n) depth-velocity block,
    t holding each row's timestamps; None where a row has none.  Callers
    pass at most _WINDOW_TRIALS rows, so its masked copy stays small."""
    k, n = vz.shape
    min_run = max(1, math.ceil(HYSTERESIS_S * sample_rate))
    onset = _run_starts(vz > threshold, min_run, np.zeros(k, dtype=np.intp),
                        accept_tail=False)
    # peak of the detected movement, not of the whole series: a brief
    # pre-onset glitch taller than the true peak must not drag the
    # termination scan before the onset.  Series without samples have no
    # onset, and nothing to take an argmax of.
    peak = (np.argmax(np.where(np.arange(n) >= onset[:, None], vz, -np.inf),
                      axis=1) if n else onset)
    term = _run_starts(vz < threshold, min_run, peak + 1, accept_tail=True)
    return [MovementSegment(i0, i1, float(times[i0]), float(times[i1]))
            if i0 >= 0 and i1 >= 0 else None
            for i0, i1, times in zip(onset.tolist(), term.tolist(), t)]


def detect_segment(velocity: VelocitySeries,
                   threshold: float = DEFAULT_THRESHOLD) -> MovementSegment | None:
    """Find the movement window from the depth-velocity profile.

    Onset is the first sample where depth velocity exceeds the threshold
    and stays above it for at least 20 ms; termination is the first sample
    after the peak where it drops below the threshold and stays below for
    20 ms (a run cut off by the end of the recording counts as sustained,
    since recordings stop with the hand at rest); the peak is the fastest
    sample at or after the onset.  analyze_trials runs the same scan on
    a window of trials at a time.

    Args:
        velocity: Output of differentiate.
        threshold: Depth speed threshold in m/s, finite and >= 0; 0
            degenerates to the first positive-velocity sample.

    Returns:
        The detected segment, or None when no sustained crossing exists
        (slow-movement rejection), the series is empty, or its peak is its
        last sample.
    """
    _check_threshold(threshold)
    return _segments(velocity.depth[None], [velocity.t], velocity.sample_rate,
                     threshold)[0]


def _measure(trial_id: str, target: TargetSpec, eyes: EyeGeometry,
             eye_pose: EyePose, segment: MovementSegment | None,
             filtered: np.ndarray) -> TrialOutcome:
    """Measure one trial from its segment and filtered (3, n) samples."""
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
    d_target = eye_pose._distance_to(target.x_m, target.y_m, target.reach_m)
    d_hand = eye_pose._distance_to(float(x[i1]), float(y[i1]), float(z[i1]))
    tau_target = angle_at(d_target, eyes.half_ipd)
    tau_hand = angle_at(d_hand, eyes.half_ipd)
    return TrialOutcome(
        trial_id=trial_id,
        valid=True,
        segment=segment,
        movement_distance=movement_distance,
        distance_error=distance_error,
        endpoint_error=endpoint_error,
        disparity_difference=tau_target - tau_hand,
    )


def _block_outcomes(trials: list[tuple], targets: list[TargetSpec],
                    eyes: list[EyeGeometry], eye_pose: EyePose, cutoff: float,
                    threshold: float) -> list[TrialOutcome]:
    """Outcomes of trials, as _trial_views gives them, that share one
    sample rate and one length.

    The trials are copied into one padded time-major array and filtered in
    place (which never reads t).  Then, a window at a time, their depth
    velocities go into a scratch of _WINDOW_TRIALS, one _velocity call per
    t grid among them (straight from the block when they share one, from a
    copy of its columns otherwise); one _segments call segments them, and
    each trial is measured.  So the block holds the padded array and that
    scratch; every trial's numbers equal those of a batch of one.
    """
    ids, rates, t = zip(*(tr[:3] for tr in trials))
    k, n = len(trials), len(t[0])
    padded, series = _padded_series(k, n)
    for i in range(0, k, _WINDOW_TRIALS):  # whole cache lines a write
        series[i:i + _WINDOW_TRIALS] = np.array(
            [tr[3:] for tr in trials[i:i + _WINDOW_TRIALS]])
    _lowpass_in_place(padded, rates[0], cutoff)
    z = series[:, 2].T  # time-major, as the filter leaves it
    scratch = np.empty((n, _WINDOW_TRIALS))
    outcomes: list[TrialOutcome] = []
    for i in range(0, k, _WINDOW_TRIALS):
        window = slice(i, i + _WINDOW_TRIALS)
        zw, vz = z[:, window], scratch[:, :len(t[window])]
        grids: dict[bytes, list[int]] = {}
        for j, times in enumerate(t[window]):
            grids.setdefault(times.tobytes(), []).append(j)
        for cols in grids.values():
            if len(grids) == 1:  # the common case: no copy of the depth columns
                _velocity(zw, t[i], out=vz)
            else:
                vz[:, cols] = _velocity(zw[:, cols], t[i + cols[0]])
        segments = _segments(vz.T, t[window], rates[0], threshold)
        outcomes += [_measure(ids[j], targets[j], eyes[j], eye_pose, segment,
                              series[j]) for j, segment in enumerate(segments, i)]
    return outcomes


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

    The threshold, in m/s, must be finite and >= 0.  It filters a block of
    one trial, as lowpass_filter does: 65-75 ms at 8,001 samples on 2 cores,
    against 1.1-1.3 ms a trial in analyze_trials, the route for many trials.
    """
    _check_threshold(threshold)
    return _block_outcomes(_trial_views([traj]), [target], [eyes], eye_pose,
                           cutoff, threshold)[0]


def analyze_trials(trajectories: Sequence[Trajectory],
                   targets: dict[str, TargetSpec],
                   eyes: EyeGeometry, eye_pose: EyePose,
                   cutoff: float = DEFAULT_CUTOFF_HZ,
                   threshold: float = DEFAULT_THRESHOLD) -> list[AnalyzedTrial]:
    """Analyze a batch of trials, ordered by trial_id.

    Trials without a matching target are flagged invalid with reason
    "no target", trials whose target has a reach that is not finite and
    positive or a non-finite x_m, y_m or go_cue_time_s with reason "bad
    target", and trials whose target sets an ipd_m outside (0, 0.1) m with
    reason "bad ipd", rather than aborting the batch.  Trials that
    share a sample rate and a length are filtered in blocks of
    BLOCK_TRIALS, whatever their t grids, copied straight from the trial
    table that read_trajectories_csv and synth.generate_trajectories
    return, or from each Trajectory of any other sequence; the outcomes equal
    trial_outcome's for each trial on its own.  A threshold that is not
    finite, or is negative, is a DomainError before any trial is filtered,
    and so is a cutoff that is not finite and positive; one at or above a
    block's Nyquist frequency is a DomainError when that block is filtered.
    """
    _check_threshold(threshold)
    ordered = sorted(_trial_views(trajectories), key=lambda tr: tr[0])
    results: list[AnalyzedTrial | None] = [None] * len(ordered)
    trial_eyes: list[EyeGeometry | None] = [None] * len(ordered)
    groups: dict[tuple[float, int], list[int]] = {}
    for i, (trial_id, rate, t, *_) in enumerate(ordered):
        target = targets.get(trial_id)
        reason = None
        if target is None:
            target = TargetSpec(trial_id=trial_id, reach_m=float("nan"))
            reason = "no target"
        elif not (0.0 < target.reach_m < math.inf
                  and math.isfinite(target.x_m) and math.isfinite(target.y_m)
                  and (target.go_cue_time_s is None
                       or math.isfinite(target.go_cue_time_s))):
            reason = "bad target"
        elif target.ipd_m is None:
            trial_eyes[i] = eyes
        else:
            try:
                trial_eyes[i] = EyeGeometry(ipd=target.ipd_m)
            except DomainError:
                reason = "bad ipd"
        if reason is None:
            groups.setdefault((rate, len(t)), []).append(i)
        else:
            results[i] = AnalyzedTrial(
                target=target,
                outcome=TrialOutcome(trial_id=trial_id, valid=False,
                                     rejection_reason=reason),
            )
    for members in groups.values():
        for start in range(0, len(members), BLOCK_TRIALS):
            block = members[start:start + BLOCK_TRIALS]
            block_targets = [targets[ordered[i][0]] for i in block]
            outcomes = _block_outcomes(
                [ordered[i] for i in block], block_targets,
                [trial_eyes[i] for i in block], eye_pose, cutoff, threshold)
            for i, target, outcome in zip(block, block_targets, outcomes):
                results[i] = AnalyzedTrial(target=target, outcome=outcome)
    # each block's filter design refuses such a cutoff first; this refuses
    # it when no trial reached a block
    if not 0.0 < cutoff < math.inf:
        raise DomainError(f"cutoff must be finite and > 0 Hz, got {cutoff!r}")
    return results


TRAJECTORY_HEADER = ["trial_id", "t", "x", "y", "z"]
# The rows of trajectories.csv as the column parse reads them.
_SAMPLE_DTYPE = np.dtype([("trial_id", object)]
                         + [(axis, np.float64) for axis in "txyz"])


def read_trajectories_csv(
    path: str | Path,
) -> tuple[Sequence[Trajectory], list[TrialOutcome]]:
    """Read trajectories from a CSV with header trial_id,t,x,y,z (SI units).

    Rows are grouped by trial_id.  Trials with sampling gaps, irregular
    periods, too few samples, or a nan or infinite value come back as
    invalid outcomes (reason "missing data") instead of aborting the
    batch; malformed rows or non-increasing timestamps are file errors.

    The rows are parsed in C a chunk at a time (``_column_chunks``) into
    one (4, rows) float64 array sized before the parse, and a trial id of
    any length, kept once per trial.  The rates (inverse median periods)
    and Trajectory's rules, as masks, are worked out for up to
    BLOCK_TRIALS trials of one length at a time.  A file the column parse
    cannot promise the row loop's result for (quoted ids, a malformed row,
    a trial's rows not contiguous, ...) is read row by row instead, with
    the same trials, order and errors.

    Returns:
        (trajectories, rejected), each sorted by trial_id; trajectories is
        a trial table over the array, a Sequence (not a list) whose items
        are Trajectory objects of views into it.

    Raises:
        DataFormatError: On a bad header, an unparseable row, or
            timestamps that do not strictly increase within a trial (the
            first such trial in the file is named).
    """
    path = Path(path)
    ids, lengths, columns = (_read_trajectory_columns(path)
                             or _read_trajectory_rows(path))
    length = np.array(lengths, dtype=np.intp)
    start = np.cumsum(length) - length
    rate = np.full(len(ids), math.nan)
    late = len(ids)  # the first trial, in file order, whose time goes back
    for n in set(lengths) - {1}:
        group = np.flatnonzero(length == n)
        for members in np.split(group, range(BLOCK_TRIALS, len(group), BLOCK_TRIALS)):
            first = start[members]  # a member's samples: its window of a row
            t = sliding_window_view(columns[0], n)[first]
            # a non-finite timestamp, like a single sample, leaves no period
            # to check: such a trial is missing data
            timed = np.isfinite(t).all(axis=1)
            dt = np.diff(t, axis=1)
            del t
            back = timed & (dt <= 0).any(axis=1)
            if back.any():
                late = min(late, members[back.argmax()])
            with np.errstate(all="ignore"):
                block_rate = 1.0 / _median(dt)
                period = 1.0 / block_rate[:, None]
                dt -= period  # each period's deviation, in place
                even = ~(np.abs(dt, out=dt) > 0.01 * period).any(axis=1)
            for row in columns[1:]:  # and every x, y and z finite
                timed &= np.isfinite(sliding_window_view(row, n)[first]).all(axis=1)
            rate[members] = np.where(timed & even, block_rate, math.nan)
    if late < len(ids):
        raise DataFormatError(f"trial {ids[late]}: timestamps must strictly "
                              f"increase", str(path))
    # the rest of Trajectory's rules: enough samples
    keep = ((length >= MIN_SAMPLES) & (0.0 < rate) & (rate < math.inf)).tolist()
    order = sorted(range(len(ids)), key=ids.__getitem__)
    kept = [i for i in order if keep[i]]
    return (_TrialTable([ids[i] for i in kept], rate[kept], length[kept],
                        start[kept], columns[1:], start[kept], columns[0]),
            [TrialOutcome(trial_id=ids[i], valid=False,
                          rejection_reason="missing data")
             for i in order if not keep[i]])


def _read_trajectory_columns(path: Path) -> tuple | None:
    """read_trajectories_csv's trials, parsed in C, or None (nothing filled
    kept) whenever the row loop might read them otherwise."""
    ids, lengths = [], []  # per trial, in file order: its id and its rows
    try:
        with path.open("rb") as fh:
            columns, end = np.empty((4, _row_bound(fh))), 0
            for rows in _column_chunks(fh, ",".join(TRAJECTORY_HEADER),
                                       _SAMPLE_DTYPE):
                heads, counts = _runs(rows["trial_id"])
                counts = counts.tolist()
                if ids and ids[-1] == heads[0]:  # split by the chunk boundary
                    lengths[-1] += counts.pop(0)
                    del heads[0]
                ids += heads
                lengths += counts
                columns[:, end:end + len(rows)] = [rows[axis] for axis in "txyz"]
                end += len(rows)
    except ValueError:  # UnicodeDecodeError included
        return None
    if not ids or len(set(ids)) < len(ids):
        return None
    return ids, lengths, columns[:, :end]


def _median(values: np.ndarray) -> np.ndarray:
    """np.median along the last axis, without nan, bit for bit.

    np.median imports numpy.ma on its first call; np.partition does not,
    and picks the same middle elements of each row.  np.median averages
    them with a sum that starts at 0.0, so a -0.0 median comes back 0.0;
    the 0.0 terms here do the same.
    """
    half = values.shape[-1] // 2
    if values.shape[-1] % 2:
        return 0.0 + np.partition(values, half, axis=-1)[..., half]
    middle = np.partition(values, (half - 1, half), axis=-1)
    return (0.0 + middle[..., half - 1] + middle[..., half]) / 2.0


def _read_trajectory_rows(path: Path) -> tuple[list[str], list[int], np.ndarray]:
    """The trial ids in first-appearance order, their lengths and their
    samples as one (4, rows) array, trial after trial, by a csv.reader row
    loop with one float() per field."""
    groups: dict[str, list[tuple[float, float, float, float]]] = {}
    records = _csv_records(path)
    if [h.strip() for h in next(records)] != TRAJECTORY_HEADER:
        raise DataFormatError(
            f"expected header {','.join(TRAJECTORY_HEADER)}", str(path), 1
        )
    for line_no, row in records:
        try:
            groups.setdefault(row[0], []).append(
                (float(row[1]), float(row[2]), float(row[3]), float(row[4]))
            )
        except (ValueError, IndexError):
            raise DataFormatError(f"bad sample row {row!r}", str(path),
                                  line_no) from None
    samples = [sample for trial in groups.values() for sample in trial]
    return (list(groups), list(map(len, groups.values())),
            np.array(samples, dtype=np.float64).reshape(-1, 4).T.copy())


def _csv_field(value: str) -> str:
    """value as csv.writer renders it in a row: quoted only when needed."""
    buf = io.StringIO()
    csv.writer(buf).writerow([value, ""])
    return buf.getvalue()[:-len(",\r\n")]


# csv.writer quotes a field of a row of several exactly when it holds one
# of these characters.
_CSV_QUOTED = (",", '"', "\r", "\n")


def _csv_fields(values: list[str]) -> list[str]:
    """_csv_field of each value; values itself when none needs quoting."""
    text = "".join(values)
    if any(c in text for c in _CSV_QUOTED):
        return [_csv_field(value) for value in values]
    return values


def write_trajectories_csv(trajectories: Sequence[Trajectory] | Iterable[list[tuple]],
                           path: str | Path) -> None:
    """Write trajectories in the trial_id,t,x,y,z schema.

    trajectories is a Sequence of Trajectory, a trial table (as
    read_trajectories_csv returns it) included, or an iterable of blocks, a
    list of them included, each a list of (trial_id, sample_rate, t, x, y,
    z) as _trial_views gives them, written before the next block is asked
    for: vackit simulate streams synth._trajectory_blocks so.  The bytes
    equal a csv.writer row per sample.  Each trial is formatted as one
    string, and consecutive trials on the same t grid share its formatted
    timestamps, across block edges too.  If a block raises, the part
    written is removed and the error propagates.
    """
    blocks = trajectories
    if isinstance(blocks, Sequence) and not isinstance(next(iter(blocks), None), list):
        blocks = [_trial_views(trajectories)]  # a Sequence of trials: one block
    grid: bytes | None = None
    times: list[str] = []
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        try:
            fh.write(",".join(TRAJECTORY_HEADER) + "\r\n")
            for block in blocks:
                for trial_id, (_, _, t, x, y, z) in zip(
                        _csv_fields([tr[0] for tr in block]), block):
                    if t.tobytes() != grid:
                        grid, times = t.tobytes(), list(map(repr, t.tolist()))
                    fh.write("".join([
                        f"{trial_id},{t},{x!r},{y!r},{z!r}\r\n" for t, x, y, z
                        in zip(times, x.tolist(), y.tolist(), z.tolist())
                    ]))
                del block  # not alive while the next one is made
        except BaseException:
            fh.close()
            path.unlink()
            raise


OUTCOME_HEADER = [
    "trial_id", "participant_id", "condition", "target_reach_m", "valid",
    "rejection_reason", "onset_time_s", "termination_time_s",
    "movement_distance_m", "distance_error_m", "endpoint_error_m",
    "disparity_difference_rad",
]


def outcome_row(item: AnalyzedTrial) -> tuple:
    """An analyzed trial as an outcomes.csv row."""
    out, tgt, seg = item.outcome, item.target, item.outcome.segment
    return (out.trial_id, tgt.participant_id, tgt.condition, tgt.reach_m,
            out.valid, out.rejection_reason,
            seg.onset_time if seg else None,
            seg.termination_time if seg else None,
            out.movement_distance, out.distance_error, out.endpoint_error,
            out.disparity_difference)


def outcome_columns(analyzed: Iterable[AnalyzedTrial]) -> Iterator[tuple]:
    """Analyzed trials as write_outcomes_csv chunks of _CHUNK_ROWS rows."""
    rows = map(outcome_row, analyzed)
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        yield tuple(zip(*chunk))


# Rows formatted per write.  A chunk's text is held twice (str, then its
# UTF-8 encoding), so this keeps the writers' peak memory a small fraction
# of the files they write.
_CHUNK_ROWS = 1024


def _float_fields(column) -> list[str]:
    """A column of floats or None as outcomes.csv fields: None empty."""
    if isinstance(column, np.ndarray):
        return list(map(repr, column.tolist()))
    return ["" if v is None else repr(float(v)) for v in column]


def _reach_fields(column) -> list[str]:
    """A column of reaches as outcomes.csv fields: one not finite empty."""
    # a chunk of trials repeats a few reaches: format each bit pattern once,
    # so -0.0 and 0.0 keep their own text
    bits, index = np.unique(np.asarray(column, dtype=np.float64)
                            .view(np.int64), return_inverse=True)
    texts = [repr(r) if math.isfinite(r) else ""
             for r in bits.view(np.float64).tolist()]
    return [texts[i] for i in index.tolist()]


def write_outcomes_csv(chunks: Iterable[Sequence], path: str | Path) -> None:
    """Write outcomes.csv from chunks of columns, rows in the order given.

    Each chunk holds the OUTCOME_HEADER columns in order, all of one
    length above zero: trial_id, participant_id and condition (str),
    target_reach_m, valid (truth values), rejection_reason (str or None),
    then six columns of floats or None; the reach and float columns may be
    float64 arrays.  outcome_columns makes the chunks of analyzed trials.
    None, and a reach that is not finite, are written empty, and floats
    with repr: the bytes equal one csv.writer row per trial.  Each chunk
    is formatted as one string; its distinct reaches are formatted once
    each, and a measure column that is the same object as the one
    before it once.
    """
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(OUTCOME_HEADER) + "\r\n")
        for trial_id, pid, condition, reach, valid, reason, *measures in chunks:
            fields = [
                _csv_fields(list(trial_id)), _csv_fields(list(pid)),
                _csv_fields(list(condition)), _reach_fields(reach),
                ["1" if v else "0" for v in valid],
                _csv_fields([r or "" for r in reason]),
            ]
            previous = formatted = None
            for column in measures:
                if column is not previous:
                    formatted, previous = _float_fields(column), column
                fields.append(formatted)
            fh.write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")


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

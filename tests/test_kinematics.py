"""Trajectory-analysis tests.

Synthetic movements use the minimum-jerk profile

    s(u) = D * (10 u^3 - 15 u^4 + 6 u^5),   u = (t - t0) / T in [0, 1]

whose peak speed is 1.875 * D / T (0.78125 m/s for D = 0.25 m,
T = 0.6 s).  With a 50 mm/s threshold the detector clips a predictable
sliver at each end of the movement; solving 1.875*D/T * (u - u0)... the
crossing positions numerically gives a total clipped displacement
2*s(u_cross) of

    D = 0.20 m, T = 0.4 s  ->  0.848 mm
    D = 0.25 m, T = 0.4 s  ->  0.750 mm
    D = 0.30 m, T = 0.4 s  ->  0.679 mm

all comfortably inside the 1 mm recovery budget.

The dual-pass second-order Butterworth at 10 Hz (250 Hz sampling) has
amplitude gain 0.9999 at 1 Hz and 0.0244 at 25 Hz, and exactly zero
phase, which the gain and cross-correlation tests pin down.
"""

from __future__ import annotations

import ast
import csv
import io
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vackit.kinematics as kin
import vackit.synth as synth
from vackit.correction import MeshModel
from vackit.errors import DataFormatError, DomainError
from vackit.fitting import FitDataset
from vackit.geometry import EyeGeometry
from vackit.kinematics import (
    AnalyzedTrial,
    EyePose,
    MovementSegment,
    TargetSpec,
    Trajectory,
    TrialOutcome,
    VelocitySeries,
    analyze_trials,
    detect_segment,
    differentiate,
    lowpass_filter,
    outcome_columns,
    read_trajectories_csv,
    trial_outcome,
    write_outcomes_csv,
    write_summary_csv,
    write_trajectories_csv,
)

from outcomes_reference import write_outcomes_csv_rowwise

FS = 250.0
EYES = EyeGeometry(ipd=0.063)
POSE = EyePose()


def _minimum_jerk_trajectory(distance: float, duration: float,
                             rest: float = 0.24, fs: float = FS,
                             trial_id: str = "t0") -> Trajectory:
    total = 2 * rest + duration
    n = int(round(total * fs)) + 1
    t = np.arange(n) / fs
    u = np.clip((t - rest) / duration, 0.0, 1.0)
    z = distance * (10 * u**3 - 15 * u**4 + 6 * u**5)
    zeros = np.zeros_like(t)
    return Trajectory(trial_id=trial_id, sample_rate=fs, t=t,
                      x=zeros, y=zeros, z=z)


def _noisy_trajectory(distance: float, duration: float,
                      rng: np.random.Generator, fs: float = FS,
                      trial_id: str = "t0", t0: float = 0.0) -> Trajectory:
    clean = _minimum_jerk_trajectory(distance, duration, fs=fs)
    x, y, z = rng.normal(0.0, 5e-4, size=(3, len(clean))) \
        + (clean.x, clean.y, clean.z)
    return Trajectory(trial_id=trial_id, sample_rate=fs, t=t0 + clean.t,
                      x=x, y=y, z=z)


def _sine_trajectory(freq: float, amp: float = 0.01, seconds: float = 2.0,
                     fs: float = FS) -> Trajectory:
    n = int(round(seconds * fs)) + 1
    t = np.arange(n) / fs
    z = amp * np.sin(2 * math.pi * freq * t)
    zeros = np.zeros_like(t)
    return Trajectory(trial_id="sine", sample_rate=fs, t=t,
                      x=zeros, y=zeros, z=z)


def _tone_amplitude(signal: np.ndarray, t: np.ndarray, freq: float) -> float:
    # exact for a pure tone: least-squares projection onto sin/cos
    basis = np.column_stack([np.sin(2 * math.pi * freq * t),
                             np.cos(2 * math.pi * freq * t)])
    coef, *_ = np.linalg.lstsq(basis, signal, rcond=None)
    return float(np.hypot(coef[0], coef[1]))


def _csv_writer_bytes(trajectories: list[Trajectory]) -> bytes:
    """Reference trajectory CSV: one csv.writer row per sample."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(kin.TRAJECTORY_HEADER)
    for traj in trajectories:
        for i in range(len(traj)):
            writer.writerow([traj.trial_id, repr(float(traj.t[i])),
                             repr(float(traj.x[i])), repr(float(traj.y[i])),
                             repr(float(traj.z[i]))])
    return buf.getvalue().encode("utf-8")


@st.composite
def _trajectory_sets(draw) -> list[Trajectory]:
    ids = draw(st.lists(
        st.text(st.characters(blacklist_categories=("Cs",),
                              blacklist_characters="\x00"), max_size=6),
        min_size=1, max_size=4, unique=True))
    n = draw(st.integers(kin.MIN_SAMPLES, kin.MIN_SAMPLES + 8))
    rate = draw(st.sampled_from([100.0, FS, 1000.0]))
    coords = st.floats(allow_nan=False, allow_infinity=False)
    out = []
    for trial_id in ids:
        t0 = draw(st.floats(-1e3, 1e3))
        x, y, z = np.reshape(draw(st.lists(coords, min_size=3 * n,
                                           max_size=3 * n)), (3, n))
        out.append(Trajectory(trial_id, rate, t0 + np.arange(n) / rate,
                              x, y, z))
    return out


class TestTrajectoryValidation:
    def test_too_few_samples(self):
        t = np.arange(10) / FS
        with pytest.raises(DomainError):
            Trajectory("short", FS, t, t, t, t)

    @pytest.mark.parametrize("n", [0, 2, kin.MIN_SAMPLES - 1])
    def test_refuses_fewer_than_min_samples(self, n):
        # so differentiate, whose differences need 3, never sees fewer
        t = np.arange(n) / FS
        with pytest.raises(DomainError, match=(
                f"^trial short: need >= {kin.MIN_SAMPLES} samples, got {n}$")):
            Trajectory("short", FS, t, t, t, t)

    def test_nonuniform_sampling(self):
        t = np.arange(30) / FS
        t[10] += 0.5 / FS
        z = np.zeros(30)
        with pytest.raises(DomainError):
            Trajectory("gap", FS, t, z, z, z)

    def test_non_increasing_timestamps(self):
        t = np.arange(30) / FS
        t[5] = t[4]
        z = np.zeros(30)
        with pytest.raises(DomainError):
            Trajectory("dup", FS, t, z, z, z)

    def test_length_mismatch(self):
        t = np.arange(30) / FS
        with pytest.raises(DomainError):
            Trajectory("len", FS, t, t, t, t[:-1])

    @pytest.mark.parametrize("axis", ["t", "x", "y", "z"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample(self, axis, bad):
        arrays = {"t": np.arange(30) / FS, "x": np.zeros(30),
                  "y": np.zeros(30), "z": np.zeros(30)}
        arrays[axis][12] = bad
        with pytest.raises(DomainError, match="finite"):
            Trajectory("bad", FS, **arrays)

    @pytest.mark.parametrize("rate", [0.0, -FS, math.nan, math.inf])
    def test_bad_sample_rate(self, rate):
        t = np.arange(30) / FS
        with pytest.raises(DomainError, match="sample_rate"):
            Trajectory("rate", rate, t, t, t, t)


def _trial_table() -> synth.TrialTable:
    config = synth.SimConfig(n_participants=2, seed=0)
    return synth.generate_trials(config, synth.generate_participants(config))


# a maker of each type that holds arrays, so that two calls give two
# distinct, equal-valued instances
ARRAY_HOLDERS = {
    "Trajectory": lambda: _minimum_jerk_trajectory(0.25, 0.4),
    "VelocitySeries": lambda: differentiate(_minimum_jerk_trajectory(0.25, 0.4)),
    "MeshModel": lambda: MeshModel(np.eye(3), np.array([[0, 1, 2]])),
    "FitDataset": lambda: FitDataset(np.array(["p0", "p1"], dtype=object),
                                     np.array(["original"] * 2, dtype=object),
                                     np.array([0.2, 0.3]), np.array([0.01, -0.02])),
    "TrialTable": _trial_table,
}


class TestArrayHoldingTypes:
    """Types that hold arrays compare and hash by identity: an == over their
    fields would ask an array for one truth value, and raise."""

    @pytest.mark.parametrize("make", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS)
    def test_compare_hash_and_contain_by_identity(self, make):
        a, b = make(), make()
        assert a == a and not a == b and a != b
        assert len({a, b, a}) == 2 and hash(a) == hash(a)
        assert a in [b, a] and b not in [a]

    def test_trial_table_membership_does_not_raise(self, tmp_path):
        traj = _minimum_jerk_trajectory(0.25, 0.4)
        path = tmp_path / "traj.csv"
        write_trajectories_csv([traj], path)
        table, _ = read_trajectories_csv(path)
        assert len(table) == 1 and table[0] is not table[0]
        assert traj not in table and table[0] not in table
        assert table == table and table != [table[0]]


class TestLowpassFilter:
    def test_dc_gain_is_one(self):
        n = 300
        t = np.arange(n) / FS
        flat = Trajectory("dc", FS, t, np.zeros(n), np.zeros(n),
                          np.full(n, 0.5))
        out = lowpass_filter(flat, 10.0)
        np.testing.assert_allclose(out.z, 0.5, atol=1e-12)

    def test_passband_gain_at_1hz(self):
        traj = _sine_trajectory(1.0)
        out = lowpass_filter(traj, 10.0)
        keep = slice(50, -50)  # drop edge transients
        gain = (_tone_amplitude(out.z[keep], traj.t[keep], 1.0)
                / _tone_amplitude(traj.z[keep], traj.t[keep], 1.0))
        assert gain >= 0.99
        assert gain == pytest.approx(0.99990, abs=5e-4)

    def test_stopband_gain_at_25hz(self):
        traj = _sine_trajectory(25.0)
        out = lowpass_filter(traj, 10.0)
        keep = slice(50, -50)
        gain = (_tone_amplitude(out.z[keep], traj.t[keep], 25.0)
                / _tone_amplitude(traj.z[keep], traj.t[keep], 25.0))
        assert gain <= 0.03

    def test_zero_phase(self):
        traj = _sine_trajectory(1.0)
        out = lowpass_filter(traj, 10.0)
        a = traj.z[50:-50] - np.mean(traj.z[50:-50])
        b = out.z[50:-50] - np.mean(out.z[50:-50])
        xcorr = np.correlate(b, a, mode="full")
        assert int(np.argmax(xcorr)) == len(a) - 1  # peak at lag 0

    def test_cutoff_bounds_checked(self):
        traj = _sine_trajectory(1.0)
        target = TargetSpec(trial_id=traj.trial_id, reach_m=0.25)
        for cutoff in (0.0, -1.0, FS / 2, math.nan):
            message = rf"cutoff must be in \(0, {FS / 2}\) Hz, got {cutoff!r}"
            with pytest.raises(DomainError, match=message):
                lowpass_filter(traj, cutoff)
            with pytest.raises(DomainError, match=message):
                trial_outcome(traj, target, EYES, POSE, cutoff=cutoff)
            with pytest.raises(DomainError, match=message):
                analyze_trials([traj], {traj.trial_id: target}, EYES, POSE,
                               cutoff=cutoff)

    @pytest.mark.parametrize("cutoff", [0.0, -1.0, math.inf, math.nan])
    def test_cutoff_checked_when_no_trial_is_filtered(self, cutoff):
        # without a target no trial reaches a block's Nyquist check
        with pytest.raises(DomainError, match=r"cutoff must be finite and > 0 Hz"):
            analyze_trials([_sine_trajectory(1.0)], {}, EYES, POSE, cutoff=cutoff)

    def test_matches_one_dimensional_filtfilt(self):
        signal = _scipy_signal()
        traj = _noisy_trajectory(0.25, 0.4, np.random.default_rng(1))
        out = lowpass_filter(traj, 8.0)
        b, a = signal.butter(2, 8.0, btype="low", fs=FS)
        for axis in "xyz":
            assert np.array_equal(getattr(out, axis),
                                  signal.filtfilt(b, a, getattr(traj, axis)))



def _scipy_signal():
    """scipy.signal, the filter's oracle; a test that needs it is skipped
    where scipy is not installed, as in a runtime-only install."""
    return pytest.importorskip("scipy.signal")


def _bits(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype=np.float64).tobytes()


# sample rates and cutoffs (as a fraction of the Nyquist frequency) that the
# numpy filter is held to scipy on, bit for bit
ORACLE_RATES = (60.0, 90.0, 100.0, 120.0, 200.0, 240.0, 250.0, 500.0,
                1000.0, 44100.0)
ORACLE_FRACTIONS = (0.001, 0.01, 0.05, 0.08, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999)


def _scaled_normal(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 10.0 ** rng.uniform(-6, 3), shape)


def _in_place_filtered(x: np.ndarray, rate: float, cutoff: float) -> np.ndarray:
    """The (n, m) series x filtered by the in-place kernel; the padding rows
    start as nan, so any the kernel failed to write would show."""
    padded = np.full((len(x) + 2 * kin._PADLEN, x.shape[1]), np.nan)
    padded[kin._PADLEN:-kin._PADLEN] = x
    kin._lowpass_in_place(padded, rate, cutoff)
    return padded[kin._PADLEN:-kin._PADLEN]


def _block_filtered(x: np.ndarray, rate: float, cutoff: float) -> np.ndarray:
    """The (k, 3, n) trials x filtered in a padded block from
    _padded_series, as analysis and simulation filter theirs."""
    padded, block = kin._padded_series(*x.shape[::2])
    padded[...] = np.nan  # a padding row the kernel failed to write shows
    block[...] = x
    kin._lowpass_in_place(padded, rate, cutoff)
    return block


class TestLowpassOracle:
    """The numpy Butterworth design and filtfilt against scipy.signal."""

    def test_design_grid_matches_butter_and_lfilter_zi(self):
        signal = _scipy_signal()
        for rate in ORACLE_RATES:
            for fraction in ORACLE_FRACTIONS:
                cutoff = fraction * rate / 2.0
                b, a, zi = kin._lowpass_design.__wrapped__(rate, cutoff)
                want_b, want_a = signal.butter(2, cutoff, btype="low", fs=rate)
                assert _bits(b) == _bits(want_b), (rate, cutoff)
                assert _bits(a) == _bits(want_a), (rate, cutoff)
                assert _bits(zi) == _bits(signal.lfilter_zi(want_b, want_a)), \
                    (rate, cutoff)

    @settings(max_examples=200, deadline=None)
    @given(rate=st.floats(1.0, 1e5), fraction=st.floats(1e-4, 0.9999))
    def test_design_matches_butter_and_lfilter_zi(self, rate, fraction):
        signal = _scipy_signal()
        cutoff = fraction * rate / 2.0
        b, a, zi = kin._lowpass_design.__wrapped__(rate, cutoff)
        want_b, want_a = signal.butter(2, cutoff, btype="low", fs=rate)
        assert _bits(b) == _bits(want_b)
        assert _bits(a) == _bits(want_a)
        assert _bits(zi) == _bits(signal.lfilter_zi(want_b, want_a))

    def test_design_is_cached_read_only(self):
        design = kin._lowpass_design(FS, 10.0)
        assert kin._lowpass_design(FS, 10.0) is design
        for arr in design:
            assert not arr.flags.writeable

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(10, 400), k=st.integers(0, 5),
           rate=st.sampled_from(ORACLE_RATES),
           fraction=st.sampled_from(ORACLE_FRACTIONS),
           seed=st.integers(0, 2**32 - 1))
    def test_block_matches_filtfilt(self, n, k, rate, fraction, seed):
        # k trials of x, y and z, in the layout every filter call uses
        signal = _scipy_signal()
        x = _scaled_normal(seed, (k, 3, n))
        cutoff = fraction * rate / 2.0
        b, a = signal.butter(2, cutoff, btype="low", fs=rate)
        assert _bits(_block_filtered(x, rate, cutoff)) == \
            _bits(signal.filtfilt(b, a, x, axis=-1))

    def test_default_block_matches_filtfilt(self):
        # one full block of the analysis' default shape and filter
        signal = _scipy_signal()
        x = np.random.default_rng(3).normal(0.0, 2e-4, (kin.BLOCK_TRIALS, 3, 221))
        b, a = signal.butter(2, 10.0, btype="low", fs=FS)
        assert _bits(_block_filtered(x, FS, 10.0)) == \
            _bits(signal.filtfilt(b, a, x, axis=-1))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(10, 300), m=st.integers(0, 7),
           rate=st.sampled_from(ORACLE_RATES),
           fraction=st.sampled_from(ORACLE_FRACTIONS),
           seed=st.integers(0, 2**32 - 1))
    def test_in_place_kernel_matches_filtfilt(self, n, m, rate, fraction,
                                              seed):
        signal = _scipy_signal()
        x = _scaled_normal(seed, (n, m))
        cutoff = fraction * rate / 2.0
        b, a = signal.butter(2, cutoff, btype="low", fs=rate)
        assert _bits(_in_place_filtered(x, rate, cutoff)) == \
            _bits(signal.filtfilt(b, a, x, axis=0))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(10, 300), k=st.integers(0, 5),
           rate=st.sampled_from(ORACLE_RATES),
           fraction=st.sampled_from(ORACLE_FRACTIONS),
           seed=st.integers(0, 2**32 - 1))
    def test_block_matches_in_place_kernel(self, n, k, rate, fraction, seed):
        # without scipy: the block view is the padded array's middle rows,
        # trial i's axis a in column 3i + a
        x = _scaled_normal(seed, (k, 3, n))
        cutoff = fraction * rate / 2.0
        padded, block = kin._padded_series(k, n)
        assert padded.shape == (n + 2 * kin._PADLEN, 3 * k)
        assert block.shape == (k, 3, n)
        assert k == 0 or np.shares_memory(padded, block)
        columns = x.reshape(3 * k, n).T
        assert _bits(_block_filtered(x, rate, cutoff)) == \
            _bits(_in_place_filtered(columns, rate, cutoff).T)

    @pytest.mark.parametrize("cutoff", [0.0, -1.0, FS / 2, FS, math.nan,
                                        math.inf])
    def test_cutoff_outside_nyquist_raises_domain_error(self, cutoff):
        message = rf"cutoff must be in \(0, {FS / 2}\) Hz, got {cutoff!r}"
        with pytest.raises(DomainError, match=message):
            lowpass_filter(_sine_trajectory(1.0), cutoff)

    def test_cli_import_leaves_scipy_unloaded(self):
        src = Path(kin.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c",
             "import vackit.cli, sys; print('scipy' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout == "False\n"

    def test_package_source_imports_no_scipy(self):
        # scipy is a test-only oracle.  The import check above sees only
        # import time; this one also sees an import inside a function.  A
        # test reaches scipy only through pytest.importorskip, so that the
        # suite runs, oracles skipped, where scipy is not installed.
        package = Path(kin.__file__).resolve().parent
        here = Path(__file__).resolve()
        sources = sorted(package.glob("*.py")) + sorted(here.parent.glob("*.py"))
        assert package / "kinematics.py" in sources and here in sources
        found = []
        for source in sources:
            for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module or ""]
                else:
                    continue
                found += [f"{source.parent.name}/{source.name}:{node.lineno}: {name}"
                          for name in names
                          if name.split(".")[0] == "scipy"]
        assert found == []


class TestDifferentiate:
    def test_linear_ramp_exact(self):
        n = 100
        t = np.arange(n) / FS
        z = 0.37 * t
        traj = Trajectory("ramp", FS, t, np.zeros(n), np.zeros(n), z)
        v = differentiate(traj)
        np.testing.assert_allclose(v.vz, 0.37, rtol=1e-12)
        np.testing.assert_allclose(v.vx, 0.0, atol=1e-15)

    def test_matches_one_dimensional_gradient(self):
        traj = _noisy_trajectory(0.25, 0.4, np.random.default_rng(2))
        v = differentiate(traj)
        for axis, vel in zip("xyz", (v.vx, v.vy, v.vz)):
            assert np.array_equal(
                vel, np.gradient(getattr(traj, axis), traj.t, edge_order=2))

    def test_peak_speed_of_minimum_jerk(self):
        traj = _minimum_jerk_trajectory(0.25, 0.6)
        v = differentiate(traj)
        assert float(np.max(v.depth)) == pytest.approx(0.78125, rel=5e-3)

    def test_filtered_peak_speed_within_one_percent(self):
        traj = _minimum_jerk_trajectory(0.25, 0.6)
        v = differentiate(lowpass_filter(traj, 10.0))
        assert float(np.max(v.depth)) == pytest.approx(0.78125, rel=0.01)


class TestDetectSegment:
    def test_brackets_the_movement(self):
        traj = _minimum_jerk_trajectory(0.25, 0.4)
        seg = detect_segment(differentiate(lowpass_filter(traj, 10.0)))
        assert seg is not None
        # movement occupies [0.24, 0.64] s
        assert 0.23 <= seg.onset_time <= 0.30
        assert 0.58 <= seg.termination_time <= 0.66

    def test_no_crossing_returns_none(self):
        traj = _minimum_jerk_trajectory(0.005, 0.4)  # peak 23 mm/s
        assert detect_segment(differentiate(lowpass_filter(traj, 10.0))) is None

    @pytest.mark.parametrize("onset, termination", [(5, 5), (6, 5), (-1, 3)])
    def test_segment_needs_onset_before_termination(self, onset, termination):
        message = ("segment indices must satisfy 0 <= onset < termination, "
                   f"got {onset}..{termination}")
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            MovementSegment(onset, termination, 0.0, 0.1)

    def test_hysteresis_rejects_single_sample_blips(self):
        n = 200
        t = np.arange(n) / FS
        v = np.zeros(n)
        v[40] = 1.0               # one-sample spike: shorter than 20 ms
        v[100:140] = 0.4          # sustained movement
        series = VelocitySeries(t=t, vx=np.zeros(n), vy=np.zeros(n), vz=v,
                                sample_rate=FS)
        seg = detect_segment(series, threshold=0.05)
        assert seg is not None
        assert seg.onset_index == 100

    def test_segmentation_idempotent_on_velocity_window(self):
        traj = _minimum_jerk_trajectory(0.25, 0.4)
        v = differentiate(lowpass_filter(traj, 10.0))
        seg = detect_segment(v)
        i0, i1 = seg.onset_index, seg.termination_index
        sub = VelocitySeries(t=v.t[i0:i1 + 1], vx=v.vx[i0:i1 + 1],
                             vy=v.vy[i0:i1 + 1], vz=v.vz[i0:i1 + 1],
                             sample_rate=v.sample_rate)
        again = detect_segment(sub)
        assert again is not None
        assert abs(again.onset_index - 0) <= 1
        assert abs(again.termination_index - (i1 - i0)) <= 1

    def test_segmentation_idempotent_on_truncated_trajectory(self):
        # detection runs downstream of the filter, so truncate the
        # filtered trajectory; re-filtering a window with no rest padding
        # is out of scope for the idempotence guarantee
        for d, duration in [(0.20, 0.4), (0.25, 0.4), (0.30, 0.4),
                            (0.25, 0.6)]:
            traj = _minimum_jerk_trajectory(d, duration)
            filtered = lowpass_filter(traj, 10.0)
            seg = detect_segment(differentiate(filtered))
            i0, i1 = seg.onset_index, seg.termination_index
            sub = Trajectory("sub", FS, filtered.t[i0:i1 + 1],
                             filtered.x[i0:i1 + 1], filtered.y[i0:i1 + 1],
                             filtered.z[i0:i1 + 1])
            again = detect_segment(differentiate(sub))
            assert again is not None
            assert abs(again.onset_index - 0) <= 1
            assert abs(again.termination_index - (i1 - i0)) <= 1

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -0.05])
    def test_bad_threshold_refused_by_every_entry(self, threshold,
                                                  monkeypatch):
        """A threshold that is not finite, or is negative, would label every
        trial slow; each entry point refuses it before filtering."""
        traj = _minimum_jerk_trajectory(0.25, 0.4)
        monkeypatch.setattr(kin, "_lowpass_in_place", None)  # never reached
        target = TargetSpec(trial_id=traj.trial_id, reach_m=0.25)
        calls = [
            lambda: detect_segment(differentiate(traj), threshold=threshold),
            lambda: trial_outcome(traj, target, EYES, POSE, threshold=threshold),
            lambda: analyze_trials([traj], {traj.trial_id: target}, EYES, POSE,
                                   threshold=threshold),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="threshold must be finite"):
                call()

    def test_zero_threshold_is_legal(self):
        traj = _minimum_jerk_trajectory(0.25, 0.4)
        seg = detect_segment(differentiate(lowpass_filter(traj, 10.0)),
                             threshold=0.0)
        assert seg is not None


class TestTrialOutcome:
    def test_distance_recovery_within_one_millimeter(self):
        for d in (0.20, 0.25, 0.30):
            traj = _minimum_jerk_trajectory(d, 0.4)
            target = TargetSpec(trial_id=traj.trial_id, reach_m=d)
            out = trial_outcome(traj, target, EYES, POSE)
            assert out.valid
            assert abs(out.movement_distance - d) < 1e-3
            # the detector always clips a little at both ends
            assert out.movement_distance < d

    def test_clipped_displacement_matches_prediction(self):
        # the continuous-time crossing positions bound the miss from
        # above; sampling can only move each endpoint inward by up to one
        # at-threshold sample (0.05 m/s / 250 Hz = 0.2 mm per side)
        predicted_miss = {0.20: 0.848e-3, 0.25: 0.750e-3, 0.30: 0.679e-3}
        sample_slip = 2 * 0.05 / FS
        for d, miss in predicted_miss.items():
            traj = _minimum_jerk_trajectory(d, 0.4)
            target = TargetSpec(trial_id=traj.trial_id, reach_m=d)
            out = trial_outcome(traj, target, EYES, POSE)
            realized = d - out.movement_distance
            assert miss - sample_slip - 1e-4 < realized < miss + 1e-4

    def test_slow_trial_rejected(self):
        traj = _minimum_jerk_trajectory(0.005, 0.4)
        out = trial_outcome(traj, TargetSpec(trial_id="t0", reach_m=0.25),
                            EYES, POSE)
        assert not out.valid
        assert out.rejection_reason == "slow"
        assert out.movement_distance is None

    def test_false_start_rejected(self):
        traj = _minimum_jerk_trajectory(0.25, 0.4)  # onset near 0.25 s
        early = TargetSpec(trial_id="t0", reach_m=0.25, go_cue_time_s=0.5)
        out = trial_outcome(traj, early, EYES, POSE)
        assert not out.valid
        assert out.rejection_reason == "false start"
        ok = TargetSpec(trial_id="t0", reach_m=0.25, go_cue_time_s=0.1)
        assert trial_outcome(traj, ok, EYES, POSE).valid

    def test_distance_error_offset_is_onset_depth(self):
        # structurally, distance error = endpoint error - filtered onset
        # depth; pin that identity down before the special case below
        traj = _minimum_jerk_trajectory(0.25, 0.4)
        target = TargetSpec(trial_id="t0", reach_m=0.25)
        out = trial_outcome(traj, target, EYES, POSE)
        z_onset = lowpass_filter(traj, 10.0).z[out.segment.onset_index]
        assert (out.distance_error - out.endpoint_error) == pytest.approx(
            -z_onset, abs=1e-15)

    def test_distance_error_equals_endpoint_error_from_home(self):
        # shift the whole path so the filtered onset sample sits exactly
        # at z = 0; a depth offset does not change velocities, so the
        # segment is the same and the two error measures coincide
        traj = _minimum_jerk_trajectory(0.25, 0.4)
        target = TargetSpec(trial_id="t0", reach_m=0.25)
        first = trial_outcome(traj, target, EYES, POSE)
        base = lowpass_filter(traj, 10.0).z[first.segment.onset_index]
        shifted = Trajectory("t0", FS, traj.t, traj.x, traj.y, traj.z - base)
        out = trial_outcome(shifted, target, EYES, POSE)
        assert out.segment == first.segment
        assert abs(out.distance_error - out.endpoint_error) < 1e-9

    def test_spatial_scaling_is_exact(self):
        # doubling the coordinates and the threshold doubles the distance
        # measures bit for bit (every operation scales by a power of two)
        traj = _minimum_jerk_trajectory(0.25, 0.4)
        doubled = Trajectory("x2", FS, traj.t, 2 * traj.x, 2 * traj.y,
                             2 * traj.z)
        target1 = TargetSpec(trial_id="t0", reach_m=0.25)
        target2 = TargetSpec(trial_id="x2", reach_m=0.50)
        out1 = trial_outcome(traj, target1, EYES, POSE, threshold=0.05)
        out2 = trial_outcome(doubled, target2, EYES, POSE, threshold=0.10)
        assert out1.valid and out2.valid
        assert out1.segment.onset_index == out2.segment.onset_index
        assert out1.segment.termination_index == out2.segment.termination_index
        assert out2.movement_distance == 2 * out1.movement_distance

    def test_undershoot_gives_negative_disparity_difference(self):
        traj = _minimum_jerk_trajectory(0.25, 0.4)
        out = trial_outcome(traj, TargetSpec(trial_id="t0", reach_m=0.25),
                            EYES, POSE)
        # the clipped endpoint stops short of the target, which sits
        # farther from the eyes, so the hand subtends a larger angle
        assert out.disparity_difference < 0

    def test_disparity_difference_matches_eye_frame_angles(self):
        traj = _minimum_jerk_trajectory(0.25, 0.4)
        target = TargetSpec(trial_id="t0", reach_m=0.25)
        out = trial_outcome(traj, target, EYES, POSE)
        filtered = lowpass_filter(traj, 10.0)
        i1 = out.segment.termination_index
        d_target = POSE.eye_distance(0.25)
        d_hand = float(POSE.eye_distance_of(filtered.x[i1], filtered.y[i1],
                                            filtered.z[i1]))
        expected = (2 * math.atan2(EYES.half_ipd, d_target)
                    - 2 * math.atan2(EYES.half_ipd, d_hand))
        assert out.disparity_difference == pytest.approx(expected, abs=1e-15)


class TestEyePose:
    def test_seated_geometry_distances(self):
        expected = {0.20: 0.6103277807866851, 0.25: 0.6519202405202649,
                    0.30: 0.6946221994724902, 0.35: 0.7382411530116700}
        for reach, d in expected.items():
            assert POSE.eye_distance(reach) == pytest.approx(d, abs=1e-15)

    def test_colocated_pose_is_euclidean_depth(self):
        pose = EyePose(behind_m=0.0, above_m=0.0)
        assert pose.eye_distance(0.4) == pytest.approx(0.4, rel=1e-15)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["behind_m", "above_m", "lateral_m"])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(DomainError, match=f"^eye pose {name} must be finite"):
            EyePose(**{name: value})

    @settings(max_examples=300, deadline=None)
    @given(reach=st.one_of(st.floats(-2.0, 2.0), st.floats(allow_nan=True)),
           behind=st.floats(-1.0, 1.0), above=st.floats(-1.0, 1.0),
           lateral=st.floats(-1.0, 1.0))
    def test_scalar_distance_is_bitwise_the_numpy_distance(
            self, reach, behind, above, lateral):
        pose = EyePose(behind_m=behind, above_m=above, lateral_m=lateral)
        with np.errstate(over="ignore"):
            expected = float(pose.eye_distance(reach))
        got = pose.eye_distance_at(reach)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(point=st.tuples(*[st.one_of(st.floats(-2.0, 2.0),
                                       st.floats(allow_nan=True))] * 3),
           behind=st.floats(-1.0, 1.0), above=st.floats(-1.0, 1.0),
           lateral=st.floats(-1.0, 1.0))
    # a square past the float range with a nan coordinate: numpy gives nan
    @example(point=(0.0, 1.3407807929942597e+154, math.nan), behind=0.0,
             above=0.0, lateral=0.0)
    # two nan terms of different sign: numpy's sum keeps the second's bits
    @example(point=(math.nan, 0.0, -math.nan), behind=0.0, above=0.0,
             lateral=0.0)
    def test_scalar_distance_to_a_point_is_bitwise_the_numpy_distance(
            self, point, behind, above, lateral):
        """The scalar form _measure takes for the target and the hand."""
        pose = EyePose(behind_m=behind, above_m=above, lateral_m=lateral)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = float(pose.eye_distance_of(*map(np.float64, point)))
        # CPython specializes a float addition after a few runs of it, and
        # the specialized one can keep the other nan of two, so the call is
        # checked past that point too
        for _ in range(10):
            got = pose._distance_to(*point)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    def test_scalar_distance_on_many_reaches(self):
        # numpy squares a float64 scalar with pow but an array with x * x,
        # so the scalar call, not the vectorized one, is the reference
        reaches = np.random.default_rng(3).uniform(-0.5, 1.0, 20_000).tolist()
        expected = [float(POSE.eye_distance(r)) for r in reaches]
        got = [POSE.eye_distance_at(r) for r in reaches]
        assert np.array(got).tobytes() == np.array(expected).tobytes()


class TestAnalyzeTrials:
    def _batch(self):
        t1 = _minimum_jerk_trajectory(0.20, 0.4, trial_id="a")
        t2 = _minimum_jerk_trajectory(0.30, 0.4, trial_id="b")
        targets = {
            "a": TargetSpec(trial_id="a", reach_m=0.20, participant_id="p0",
                            condition="original"),
            "b": TargetSpec(trial_id="b", reach_m=0.30, participant_id="p0",
                            condition="original"),
        }
        return [t2, t1], targets

    def test_ordered_by_trial_id(self):
        trajectories, targets = self._batch()
        analyzed = analyze_trials(trajectories, targets, EYES, POSE)
        assert [a.outcome.trial_id for a in analyzed] == ["a", "b"]
        assert all(a.outcome.valid for a in analyzed)

    def test_missing_target_flagged_not_fatal(self):
        trajectories, targets = self._batch()
        del targets["b"]
        analyzed = analyze_trials(trajectories, targets, EYES, POSE)
        by_id = {a.outcome.trial_id: a.outcome for a in analyzed}
        assert by_id["a"].valid
        assert not by_id["b"].valid
        assert by_id["b"].rejection_reason == "no target"

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           windows=st.lists(st.sampled_from(["shared", "offset", "own"]),
                            min_size=2, max_size=2), last=st.integers(1, 64),
           pick=st.none() | st.tuples(st.floats(0.0, 1.0), st.floats(0.5, 1.0)))
    # a second window on one grid, not the block's first trial's, and a
    # second window that mixes grids, each with a threshold from a trial there
    @example(seed=0, windows=["own", "shared"], last=64, pick=(0.9, 0.6))
    @example(seed=0, windows=["shared", "own"], last=64, pick=(0.9, 0.6))
    def test_batch_equals_per_trial_outcomes_on_drawn_blocks(self, seed, windows,
                                                             last, pick):
        # two 64-trial windows of one rate and length, each on one jittered t
        # grid, on even grids offset by multiples of 13.7 ms, or on a jittered
        # grid per trial (within Trajectory's 1%); interleaved, trials of
        # another rate or length, with no target, a bad target or ipd, or a
        # go cue after onset.  A threshold (pick) halfway between two of one
        # trial's speeds lets a velocity off by up to 1% move an onset
        rng = np.random.default_rng(seed)
        shared = (np.arange(41) + rng.uniform(-0.0045, 0.0045, 41)) / 100.0
        trials = []                # (rate, duration, t grid, label)
        for kind in [kind for kind in windows for _ in range(64)][:64 + last]:
            extra = rng.integers(12)
            if extra < 6:
                trials.append([(100.0, 0.36, "own", None), (80.0, 0.3, "own", None),
                               *((100.0, 0.3, kind, label) for label in (
                                   "bad target", "bad ipd", "no target",
                                   "false start"))][extra])
            trials.append((100.0, 0.3, kind, None))
        trajectories, targets = [], {}
        for fs, duration, kind, label in trials:
            n = round((0.1 + duration) * fs) + 1
            t = {"shared": shared,
                 "offset": 0.0137 * rng.integers(7) + np.arange(n) / fs,
                 "own": (np.arange(n) + rng.uniform(-0.0045, 0.0045, n)) / fs}[kind]
            u = np.clip((t - t[0] - 0.05) / duration, 0.0, 1.0)
            reach = rng.choice([0.005, 0.2, 0.25, 0.3])
            x, y, z = rng.normal(0.0, 5e-4, (3, n))
            trial_id = f"tr{len(trajectories):03d}"
            trajectories.append(Trajectory(trial_id, fs, t, x, y, z + reach * (
                10 * u**3 - 15 * u**4 + 6 * u**5)))
            if label != "no target":
                targets[trial_id] = TargetSpec(
                    trial_id=trial_id, reach_m=-reach if label == "bad target" else reach,
                    go_cue_time_s=0.5 if label == "false start" else None,
                    ipd_m=0.5 if label == "bad ipd" else (None, 0.058)[rng.integers(2)])
        threshold = kin.DEFAULT_THRESHOLD
        if pick is not None:
            speeds = np.unique(differentiate(lowpass_filter(
                trajectories[int(pick[0] * (len(trajectories) - 1))])).vz)
            speeds = speeds[speeds >= 0]
            m = int(pick[1] * (len(speeds) - 2))
            threshold = (speeds[m] + speeds[m + 1]) / 2
        want = []
        for traj, (*_, label) in zip(trajectories, trials):
            target = targets.get(traj.trial_id)
            want.append(TrialOutcome(trial_id=traj.trial_id, valid=False,
                                     rejection_reason=label)
                        if label in ("bad target", "bad ipd", "no target") else
                        trial_outcome(traj, target, EYES if target.ipd_m is None
                                      else EyeGeometry(ipd=target.ipd_m), POSE,
                                      threshold=threshold))
        for block_trials in (1, 63, 64, 65, 256, 512):
            with mock.patch.object(kin, "BLOCK_TRIALS", block_trials):
                analyzed = analyze_trials(trajectories[::-1], targets, EYES, POSE,
                                          threshold=threshold)
            assert [item.outcome for item in analyzed] == want, block_trials
            assert all(item.target == targets[item.target.trial_id]
                       for item in analyzed if item.target.trial_id in targets)

    @pytest.mark.parametrize("block_trials", [64, 256])
    def test_batch_equals_per_trial_outcomes(self, monkeypatch, block_trials):
        # mixed lengths, two sample rates, shifted t grids, slow and
        # false-start trials, trials without a target, and one group
        # large enough to span more than one block (shrunk to keep the
        # batch small).  At 256, one block holds a t grid of more than 64
        # trials among shifted ones, so it spans several 64-trial windows
        # that mix grids
        monkeypatch.setattr(kin, "BLOCK_TRIALS", block_trials)
        rng = np.random.default_rng(7)
        trajectories, targets = [], {}
        for i in range(2 * kin.BLOCK_TRIALS):
            trial_id = f"tr{i:03d}"
            distance = 0.005 if i % 8 == 3 else (0.20, 0.25, 0.30)[i % 3]
            trajectories.append(_noisy_trajectory(
                distance, 0.5 if i % 6 == 5 else 0.4, rng,
                fs=200.0 if i % 10 == 9 else FS, trial_id=trial_id,
                t0=1.0 if i % 9 == 4 else 0.0))
            if i % 11 != 2:
                targets[trial_id] = TargetSpec(
                    trial_id=trial_id, reach_m=distance,
                    go_cue_time_s=0.5 if i % 13 == 7 else None,
                    ipd_m=0.058 if i % 4 == 1 else None)
        groups: dict[tuple[float, bytes], int] = {}
        for traj in trajectories:
            if traj.trial_id in targets:
                key = (traj.sample_rate, traj.t.tobytes())
                groups[key] = groups.get(key, 0) + 1
        assert len(groups) > 3 and max(groups.values()) > kin.BLOCK_TRIALS
        # shifted grids share a filter block with unshifted ones: each rate
        # and length's trials, in trial_id order, cut into blocks
        lengths: dict[tuple[float, int], list[bytes]] = {}
        for traj in trajectories:
            if traj.trial_id in targets:
                lengths.setdefault((traj.sample_rate, len(traj.t)),
                                   []).append(traj.t.tobytes())
        blocks = [grids[i:i + block_trials] for grids in lengths.values()
                  for i in range(0, len(grids), block_trials)]
        largest = [max(map(block.count, set(block))) for block in blocks
                   if len(set(block)) > 1]
        assert largest and (block_trials == 64 or max(largest) > 64)

        analyzed = analyze_trials(trajectories[::-1], targets, EYES, POSE)
        assert [a.outcome.trial_id for a in analyzed] == \
            [traj.trial_id for traj in trajectories]
        for traj, item in zip(trajectories, analyzed):
            target = targets.get(traj.trial_id)
            if target is None:
                assert item.outcome.rejection_reason == "no target"
                continue
            trial_eyes = EYES if target.ipd_m is None else \
                EyeGeometry(ipd=target.ipd_m)
            assert item.target == target
            assert item.outcome == trial_outcome(traj, target, trial_eyes, POSE)
        reasons = {a.outcome.rejection_reason for a in analyzed}
        assert reasons == {None, "slow", "false start", "no target"}

    def test_offset_grids_filter_in_one_block(self, monkeypatch):
        # recorded trials each with their own timestamps but one rate and
        # length are filtered together, since the filter never reads t
        calls = []
        lowpass_in_place = kin._lowpass_in_place

        def counting_lowpass_in_place(padded, *args):
            calls.append(padded.shape[1] // 3)
            return lowpass_in_place(padded, *args)

        rng = np.random.default_rng(11)
        trajectories = []
        for i in range(20):
            # an offset and a jitter of up to 0.4% of the period per sample
            traj = _noisy_trajectory(0.25, 0.4, rng, trial_id=f"tr{i:02d}",
                                     t0=0.0137 * i)
            jitter = rng.uniform(-0.004, 0.004, len(traj.t)) / FS
            trajectories.append(replace(traj, t=traj.t + jitter))
        targets = {traj.trial_id: TargetSpec(trial_id=traj.trial_id,
                                             reach_m=0.25)
                   for traj in trajectories}
        assert len({traj.t.tobytes() for traj in trajectories}) == 20
        monkeypatch.setattr(kin, "_lowpass_in_place", counting_lowpass_in_place)
        analyzed = analyze_trials(trajectories, targets, EYES, POSE)
        assert calls == [20]
        for traj, item in zip(trajectories, analyzed):
            assert item.outcome.valid
            assert item.outcome == trial_outcome(traj, targets[traj.trial_id],
                                                 EYES, POSE)

    @pytest.mark.parametrize("n_grids", [1, 3, 9])
    def test_block_velocity_is_each_trials_own(self, monkeypatch, n_grids):
        # the block's depth velocity, one gradient down the time axis per t
        # grid, has the bits of each trial's own, filtered and
        # differentiated alone.  The block spans three 64-trial windows:
        # with several grids the first two hold one grid each, the second
        # not the first trial's, and the third mixes every grid
        rng = np.random.default_rng(5)
        trajectories = [_noisy_trajectory(
            0.25, 0.4, rng, trial_id=f"tr{i:03d}",
            t0=0.0137 * ((i // 64 if i < 128 else i) % n_grids))
            for i in range(150)]
        targets = {traj.trial_id: TargetSpec(trial_id=traj.trial_id,
                                             reach_m=0.25)
                   for traj in trajectories}
        assert len({traj.t.tobytes() for traj in trajectories}) == n_grids
        rows = {}
        segments = kin._segments

        def capturing_segments(vz, t, *args):
            # _trial_views hands each trajectory's own t array down, so its
            # identity names the trial a row belongs to
            assert len(t) <= kin._WINDOW_TRIALS
            for row, times in zip(vz, t, strict=True):
                assert id(times) not in rows
                rows[id(times)] = row.copy()
            return segments(vz, t, *args)

        monkeypatch.setattr(kin, "_segments", capturing_segments)
        analyze_trials(trajectories, targets, EYES, POSE)
        assert len(rows) == len(trajectories)
        for traj in trajectories:
            row = rows[id(traj.t)]
            filtered = lowpass_filter(traj)
            assert _bits(row) == _bits(differentiate(filtered).vz)
            assert _bits(row) == _bits(
                np.gradient(filtered.z, traj.t, edge_order=2))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(3, 40), m=st.integers(1, 5),
           even=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_velocity_is_numpy_gradient_bitwise(self, n, m, even, seed):
        # both of np.gradient's branches, evenly spaced t (whole numbers,
        # so every difference is exact) and uneven t, evaluated into a
        # transposed view
        rng = np.random.default_rng(seed)
        f = rng.normal(0.0, 1.0, (n, 3 * m))[:, ::3]
        t = 7.0 + 3.0 * np.arange(n) if even else \
            np.cumsum(rng.uniform(0.001, 0.01, n))
        assert (np.diff(t) == np.diff(t)[0]).all() == even
        out = np.empty((m, n))
        kin._velocity(f, t, out=out.T)
        want = np.gradient(f, t, axis=0, edge_order=2)
        assert _bits(out.T) == _bits(want)
        assert _bits(kin._velocity(f, t)) == _bits(want)

    def test_block_holds_about_one_padded_copy(self):
        # the block is filtered in place, and its depth velocity evaluated,
        # segmented and measured 64 trials at a time from one scratch: the
        # peak is the padded array and little more (measured 1.25 and 1.27
        # padded arrays), not a velocity array of the block's size, a stack,
        # or a copy per pass.  A list of trajectories and a trial table are
        # read in place, so neither is copied whole.
        rng = np.random.default_rng(9)
        trajectories = [_noisy_trajectory(0.25, 0.52, rng, fs=1000.0,
                                          trial_id=f"tr{i:03d}")
                        for i in range(256)]
        targets = {traj.trial_id: TargetSpec(trial_id=traj.trial_id,
                                             reach_m=0.25)
                   for traj in trajectories}
        n = len(trajectories[0])
        padded_bytes = (n + 2 * kin._PADLEN) * 3 * len(trajectories) * 8
        xyz = np.array([(tr.x, tr.y, tr.z) for tr in trajectories])
        table = kin._TrialTable(
            [tr.trial_id for tr in trajectories],
            np.full(len(trajectories), 1000.0), np.full(len(trajectories), n),
            n * np.arange(len(trajectories)),
            np.moveaxis(xyz, 1, 0).reshape(3, -1),
            np.zeros(len(trajectories), dtype=np.intp), trajectories[0].t)
        assert np.array_equal(table[7].z, trajectories[7].z)
        for batch in (trajectories, table):
            tracemalloc.start()
            try:
                analyze_trials(batch, targets, EYES, POSE)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1.35 * padded_bytes

    @pytest.mark.parametrize("column,value", [("t", "inf"), ("x", "nan"),
                                              ("z", "-inf")])
    def test_non_finite_trial_leaves_block_untouched(self, tmp_path,
                                                     column, value):
        rng = np.random.default_rng(3)
        trajectories = [_noisy_trajectory(0.25, 0.4, rng, trial_id=f"tr{i:02d}")
                        for i in range(12)]
        targets = {tr.trial_id: TargetSpec(trial_id=tr.trial_id, reach_m=0.25)
                   for tr in trajectories}
        path = tmp_path / "traj.csv"
        write_trajectories_csv(trajectories, path)
        before = analyze_trials(read_trajectories_csv(path)[0], targets,
                                EYES, POSE)
        lines = path.read_bytes().decode("utf-8").split("\r\n")
        index = lines.index(next(ln for ln in lines if ln.startswith("tr05,")))
        fields = lines[index + 100].split(",")
        fields[kin.TRAJECTORY_HEADER.index(column)] = value
        lines[index + 100] = ",".join(fields)
        path.write_bytes("\r\n".join(lines).encode("utf-8"))

        back, rejected = read_trajectories_csv(path)
        assert rejected == [TrialOutcome(trial_id="tr05", valid=False,
                                         rejection_reason="missing data")]
        assert analyze_trials(back, targets, EYES, POSE) == \
            [item for item in before if item.outcome.trial_id != "tr05"]

    @pytest.mark.parametrize("ipd", [0.0, -0.063, 0.1, 0.63, math.nan,
                                     math.inf])
    def test_bad_ipd_trial_leaves_block_untouched(self, ipd):
        rng = np.random.default_rng(4)
        trajectories = [_noisy_trajectory(0.25, 0.4, rng, trial_id=f"tr{i:02d}")
                        for i in range(12)]
        targets = {tr.trial_id: TargetSpec(trial_id=tr.trial_id, reach_m=0.25,
                                           ipd_m=0.060)
                   for tr in trajectories}
        before = analyze_trials(trajectories, targets, EYES, POSE)
        targets["tr05"] = replace(targets["tr05"], ipd_m=ipd)

        after = analyze_trials(trajectories, targets, EYES, POSE)
        by_id = {item.outcome.trial_id: item for item in after}
        assert by_id["tr05"].target == targets["tr05"]
        assert by_id["tr05"].outcome == TrialOutcome(
            trial_id="tr05", valid=False, rejection_reason="bad ipd")
        assert [item for item in after if item.outcome.trial_id != "tr05"] == \
            [item for item in before if item.outcome.trial_id != "tr05"]

    @pytest.mark.parametrize("field, value", [
        ("reach_m", math.nan), ("reach_m", math.inf), ("reach_m", 0.0),
        ("reach_m", -0.25), ("x_m", math.nan), ("y_m", -math.inf),
        ("go_cue_time_s", math.nan), ("go_cue_time_s", math.inf)])
    def test_bad_target_trial_leaves_block_untouched(self, field, value):
        rng = np.random.default_rng(4)
        trajectories = [_noisy_trajectory(0.25, 0.4, rng, trial_id=f"tr{i:02d}")
                        for i in range(12)]
        targets = {tr.trial_id: TargetSpec(trial_id=tr.trial_id, reach_m=0.25,
                                           go_cue_time_s=0.0)
                   for tr in trajectories}
        before = analyze_trials(trajectories, targets, EYES, POSE)
        targets["tr05"] = replace(targets["tr05"], **{field: value})

        after = analyze_trials(trajectories, targets, EYES, POSE)
        by_id = {item.outcome.trial_id: item for item in after}
        assert by_id["tr05"].target == targets["tr05"]
        assert by_id["tr05"].outcome == TrialOutcome(
            trial_id="tr05", valid=False, rejection_reason="bad target")
        assert [item for item in after if item.outcome.trial_id != "tr05"] == \
            [item for item in before if item.outcome.trial_id != "tr05"]

    def test_per_trial_ipd_override(self):
        traj = _minimum_jerk_trajectory(0.25, 0.4, trial_id="a")
        narrow = {"a": TargetSpec(trial_id="a", reach_m=0.25, ipd_m=0.055)}
        wide = {"a": TargetSpec(trial_id="a", reach_m=0.25, ipd_m=0.070)}
        out_n = analyze_trials([traj], narrow, EYES, POSE)[0].outcome
        out_w = analyze_trials([traj], wide, EYES, POSE)[0].outcome
        # wider eyes subtend larger angles, so the same undershoot maps to
        # a larger magnitude disparity difference
        assert abs(out_w.disparity_difference) > abs(out_n.disparity_difference)


def _median_inputs():
    """Float arrays without nan, often with repeated values and signed
    zeros, which np.median and a partition may place differently; the
    long ones are sample periods of a trial's length, rounded to repeat."""
    pool = st.sampled_from([-0.0, 0.0, 0.004, 0.004000000000000001, 1.0,
                            -np.inf, np.inf])
    periods = st.builds(
        lambda n, seed: np.round(
            np.random.default_rng(seed).normal(0.004, 1e-6, n), 7),
        st.integers(219, 222), st.integers(0, 2**32 - 1))
    return st.one_of(
        st.lists(st.floats(allow_nan=False), min_size=1, max_size=60),
        st.lists(pool, min_size=1, max_size=60), periods)


class TestTrajectoryCsv:
    @settings(max_examples=500, deadline=None)
    @given(values=_median_inputs())
    def test_median_matches_numpy_bitwise(self, values):
        values = np.array(values)
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = kin._median(values), np.median(values)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), k=st.integers(1, 6), m=st.integers(1, 12))
    def test_median_along_rows_is_each_rows_median(self, data, k, m):
        # odd and even row lengths; signed zeros, subnormals, infinities
        # and repeated values, which a partition may place differently
        pool = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, 0.004,
                                0.004000000000000001, 1.0, -np.inf, np.inf])
        rows = np.array(data.draw(st.lists(
            st.lists(pool | st.floats(allow_nan=False), min_size=m,
                     max_size=m), min_size=k, max_size=k)))
        with np.errstate(over="ignore", invalid="ignore"):
            got = kin._median(rows)
            want = [kin._median(row) for row in rows]
        assert got.shape == (k,)
        assert got.tobytes() == np.array(want).tobytes()

    def test_round_trip(self, tmp_path):
        traj = _minimum_jerk_trajectory(0.25, 0.4, trial_id="p0-a")
        path = tmp_path / "traj.csv"
        write_trajectories_csv([traj], path)
        back, rejected = read_trajectories_csv(path)
        assert rejected == []
        assert len(back) == 1
        assert np.array_equal(back[0].z, traj.z)
        assert back[0].sample_rate == pytest.approx(FS, rel=1e-9)

    def test_gap_becomes_missing_data(self, tmp_path):
        traj = _minimum_jerk_trajectory(0.25, 0.4, trial_id="gappy")
        keep = np.ones(len(traj), dtype=bool)
        keep[50:53] = False  # drop 3 consecutive samples
        path = tmp_path / "gap.csv"
        write_trajectories_csv([Trajectory("ok", FS, traj.t, traj.x, traj.y,
                                           traj.z)], path)
        lines = path.read_text().splitlines()
        body = [line.replace("ok", "gappy") for i, line in
                enumerate(lines[1:]) if keep[i]]
        path.write_text("\n".join([lines[0]] + body) + "\n")
        trajectories, rejected = read_trajectories_csv(path)
        assert len(trajectories) == 0
        assert len(rejected) == 1
        assert rejected[0].rejection_reason == "missing data"

    def test_short_trial_becomes_missing_data(self, tmp_path):
        path = tmp_path / "short.csv"
        rows = ["trial_id,t,x,y,z"]
        rows += [f"tiny,{i / FS},0,0,0" for i in range(10)]
        path.write_text("\n".join(rows) + "\n")
        trajectories, rejected = read_trajectories_csv(path)
        assert len(trajectories) == 0
        assert rejected[0].rejection_reason == "missing data"

    def test_single_sample_trial_becomes_missing_data(self, tmp_path):
        path = tmp_path / "lone.csv"
        write_trajectories_csv([_minimum_jerk_trajectory(0.25, 0.4,
                                                         trial_id="good")], path)
        with path.open("a", encoding="utf-8", newline="") as fh:
            fh.write("lone,0.5,0.0,0.0,0.0\r\n")
        trajectories, rejected = read_trajectories_csv(path)
        assert [tr.trial_id for tr in trajectories] == ["good"]
        assert rejected == [TrialOutcome(trial_id="lone", valid=False,
                                         rejection_reason="missing data")]

    def test_bad_header_is_file_error(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("id,t,x,y,z\n")
        with pytest.raises(DataFormatError) as exc:
            read_trajectories_csv(path)
        assert exc.value.line == 1

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "row.csv"
        path.write_text("trial_id,t,x,y,z\nt0,0.0,0,0,0\nt0,oops,0,0,0\n")
        with pytest.raises(DataFormatError) as exc:
            read_trajectories_csv(path)
        assert exc.value.line == 3

    def test_bad_row_line_counts_physical_lines(self, tmp_path):
        # a quoted newline makes the first record span lines 2 and 3, so the
        # bad row ends on line 4
        path = tmp_path / "tq.csv"
        path.write_text('trial_id,t,x,y,z\n"a\nb",0.0,0,0,0\nq,zz,0,0,0\n',
                        encoding="utf-8", newline="")
        with pytest.raises(DataFormatError) as exc:
            read_trajectories_csv(path)
        assert exc.value.line == 4
        assert str(exc.value) == \
            f"bad sample row ['q', 'zz', '0', '0', '0'] [{path}:4]"

    def test_non_increasing_time_is_file_error(self, tmp_path):
        path = tmp_path / "time.csv"
        rows = ["trial_id,t,x,y,z"]
        rows += [f"t0,{i / FS},0,0,0" for i in range(30)]
        rows.append(f"t0,{10 / FS},0,0,0")
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataFormatError):
            read_trajectories_csv(path)

    def test_two_sample_non_increasing_time_is_file_error(self, tmp_path):
        path = tmp_path / "pair.csv"
        path.write_text("trial_id,t,x,y,z\nt0,0.5,0,0,0\nt0,0.5,0,0,0\n")
        with pytest.raises(DataFormatError, match="strictly increase"):
            read_trajectories_csv(path)

    def test_bytes_match_csv_writer_for_awkward_ids(self, tmp_path):
        rng = np.random.default_rng(5)
        ids = ["a,b", 'say "hi"', "", " lead", "two\nlines", "plain"]
        # alternating t grids exercise the shared timestamp formatting
        trajectories = [_noisy_trajectory(0.25, 0.4, rng, trial_id=tid,
                                          t0=0.5 * (i % 2))
                        for i, tid in enumerate(ids)]
        path = tmp_path / "traj.csv"
        write_trajectories_csv(trajectories, path)
        assert path.read_bytes() == _csv_writer_bytes(trajectories)
        back, rejected = read_trajectories_csv(path)
        assert rejected == []
        assert [tr.trial_id for tr in back] == sorted(ids)

    @settings(max_examples=60, deadline=None)
    @given(trajectories=st.data())
    def test_write_read_round_trip_property(self, tmp_path_factory,
                                            trajectories):
        trajectories = trajectories.draw(_trajectory_sets())
        path = tmp_path_factory.mktemp("prop") / "traj.csv"
        write_trajectories_csv(trajectories, path)
        assert path.read_bytes() == _csv_writer_bytes(trajectories)
        back, rejected = read_trajectories_csv(path)
        assert rejected == []
        assert [tr.trial_id for tr in back] == \
            sorted(tr.trial_id for tr in trajectories)
        by_id = {tr.trial_id: tr for tr in trajectories}
        for got in back:
            want = by_id[got.trial_id]
            for axis in "txyz":
                assert np.array_equal(getattr(got, axis), getattr(want, axis))
            assert got.sample_rate == pytest.approx(want.sample_rate, rel=1e-6)


class TestOutcomeWriters:
    def _analyzed(self):
        traj = _minimum_jerk_trajectory(0.25, 0.4, trial_id="a")
        target = TargetSpec(trial_id="a", reach_m=0.25, participant_id="p0",
                            condition="original")
        outcome = trial_outcome(traj, target, EYES, POSE)
        rejected = AnalyzedTrial(
            target=TargetSpec(trial_id="b", reach_m=0.25, participant_id="p0",
                              condition="original"),
            outcome=TrialOutcome(trial_id="b", valid=False,
                                 rejection_reason="missing data"),
        )
        return [AnalyzedTrial(target=target, outcome=outcome), rejected]

    def test_outcomes_schema(self, tmp_path):
        path = tmp_path / "outcomes.csv"
        write_outcomes_csv(outcome_columns(self._analyzed()), path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(kin.OUTCOME_HEADER)
        assert len(lines) == 3
        valid_row = lines[1].split(",")
        assert valid_row[4] == "1"
        rejected_row = lines[2].split(",")
        assert rejected_row[4] == "0"
        assert rejected_row[5] == "missing data"
        assert rejected_row[8] == ""  # no measures on invalid trials

    def _assert_bytes_match_rowwise(self, analyzed, tmp_path):
        write_outcomes_csv(outcome_columns(analyzed), tmp_path / "new.csv")
        write_outcomes_csv_rowwise(analyzed, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "old.csv").read_bytes()

    def test_bytes_match_rowwise_writer(self, tmp_path):
        valid, rejected = self._analyzed()
        awkward = []
        for k, text in enumerate(["a,b", 'say "hi"', "two\nlines", "cr\r",
                                  "", " lead", "plain"]):
            target = replace(valid.target, trial_id=f"{text}{k}",
                             participant_id=text, condition=text[::-1],
                             reach_m=[0.25, math.nan, math.inf, -math.inf,
                                      -0.0, 1e-7, 3][k])
            outcome = replace(valid.outcome if k % 2 else rejected.outcome,
                              trial_id=f"{text}{k}",
                              rejection_reason=None if k % 2 else text)
            awkward.append(AnalyzedTrial(target=target, outcome=outcome))
        for analyzed in ([], [valid], [valid, rejected], awkward):
            self._assert_bytes_match_rowwise(analyzed, tmp_path)

    def test_bytes_match_rowwise_writer_across_chunks(self, tmp_path):
        valid, rejected = self._analyzed()
        for count in (kin._CHUNK_ROWS, kin._CHUNK_ROWS + 1):
            analyzed = [
                AnalyzedTrial(target=replace(item.target, participant_id=f"p,{i}"),
                              outcome=replace(item.outcome, trial_id=f"t{i}"))
                for i, item in zip(range(count), [valid, rejected] * count)
            ]
            self._assert_bytes_match_rowwise(analyzed, tmp_path)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.text(st.characters(blacklist_categories=("Cs",),
                              blacklist_characters="\x00"), max_size=5),
        st.floats(allow_nan=True, allow_infinity=True),
        st.booleans(),
        st.one_of(st.none(), st.floats(allow_nan=True, allow_infinity=True)),
    ), max_size=6))
    def test_bytes_match_rowwise_writer_property(self, tmp_path_factory, rows):
        analyzed = [
            AnalyzedTrial(
                target=TargetSpec(trial_id=text, reach_m=reach,
                                  participant_id=text, condition=text * 2),
                outcome=TrialOutcome(
                    trial_id=text, valid=ok,
                    rejection_reason=None if ok else text,
                    segment=MovementSegment(0, 5, 0.0, 0.02) if ok else None,
                    movement_distance=value, distance_error=value,
                    endpoint_error=value, disparity_difference=value))
            for text, reach, ok, value in rows
        ]
        self._assert_bytes_match_rowwise(analyzed,
                                         tmp_path_factory.mktemp("rows"))

    def test_summary_covers_valid_trials_only(self, tmp_path):
        path = tmp_path / "summary.csv"
        write_summary_csv(self._analyzed(), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2  # header + the one (condition, reach) cell
        row = lines[1].split(",")
        assert row[0] == "original"
        assert int(row[2]) == 1

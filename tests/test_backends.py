"""Array-kernel tests.

correction.transform_points must agree with the scalar transform_point to
rounding (numpy's vectorized libm may round the last bit differently than
scalar libm), name the first vertex it cannot correct, leave its input
untouched, and copy the input bitwise at zero offset;
kinematics._run_starts, the block run scan, is pinned on hand-made flag
arrays as blocks of one row, and must equal the sliding-window scan row by
row on any block; kinematics._segments must segment every row of a block as
the per-series scan does.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from run_start_reference import sustained_run_start_windows
from vackit.correction import transform_point, transform_points
from vackit.errors import DomainError
from vackit.geometry import EyeGeometry, ScenePoint
from vackit.kinematics import (
    HYSTERESIS_S,
    VelocitySeries,
    _run_starts,
    _segments,
    detect_segment,
)
from vackit.perception import PerturbationParams

EYES = EyeGeometry(ipd=0.064)


def sustained_run_start(flags: np.ndarray, min_run: int, start: int = 0,
                        accept_tail: bool = False) -> int:
    """_run_starts on a block of one row."""
    return int(_run_starts(flags[None], min_run, np.array([start]),
                           accept_tail)[0])


def remap(xyz: np.ndarray, beta: float) -> np.ndarray:
    return transform_points(xyz, EYES, PerturbationParams(beta))


def first_bad(xyz: np.ndarray, beta: float) -> int:
    """Index named by the error for the first row that cannot be corrected;
    the input must come through untouched."""
    before = xyz.copy()
    with pytest.raises(DomainError, match=r"cannot be corrected") as info:
        remap(xyz, beta)
    assert xyz.tobytes() == before.tobytes()
    return int(str(info.value).split()[1])


# The kernels once had a compiled twin, and a module of their own; the
# module name and the "numpy" id keep the test names that the suite's
# history records.
@pytest.fixture(params=["numpy"])
def backend(request):
    return request.param


def _random_cloud(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.column_stack([
        rng.uniform(-0.3, 0.3, n),
        rng.uniform(-0.3, 0.3, n),
        rng.uniform(0.2, 1.5, n),
    ])


class TestRemapPoints:
    def test_matches_scalar_transform(self, backend):
        xyz = _random_cloud(64, seed=1)
        before = xyz.copy()
        beta = math.radians(0.22)
        out = remap(xyz, beta)
        assert xyz.tobytes() == before.tobytes()
        params = PerturbationParams(beta)
        for src, dst in zip(xyz, out):
            expected = transform_point(ScenePoint(*src), EYES, params)
            assert dst[0] == src[0] and dst[1] == src[1]
            assert dst[2] == pytest.approx(expected.z, rel=1e-14)

    def test_zero_offset_bitwise_copy(self, backend):
        xyz = _random_cloud(64, seed=2)
        out = remap(xyz, 0.0)
        assert np.array_equal(out, xyz)
        assert out is not xyz

    def test_first_bad_vertex_reported(self, backend):
        xyz = _random_cloud(8, seed=3)
        xyz[5] = [0.3, 0.3, 0.05]  # radicand goes negative under -0.04 rad
        assert first_bad(xyz, -0.04) == 5
        with pytest.raises(DomainError,
                           match=r"^vertex 5 at \(0\.3, 0\.3, 0\.05\) "):
            transform_points(xyz, EYES, PerturbationParams(-0.04),
                             kind="vertex")

    def test_behind_viewer_rejected(self, backend):
        xyz = _random_cloud(4, seed=4)
        xyz[2, 2] = -0.4
        assert first_bad(xyz, math.radians(0.22)) == 2

    def test_too_distant_rejected(self, backend):
        xyz = np.array([[0.0, 0.0, 2.0]])
        assert first_bad(xyz, 0.04) == 0


class TestSustainedRunStart:
    def test_first_long_run(self, backend):
        flags = np.array([0, 1, 0, 1, 1, 1, 0], dtype=bool)
        assert sustained_run_start(flags, 3) == 3

    def test_short_runs_skipped(self, backend):
        flags = np.array([1, 1, 0, 1, 1, 0], dtype=bool)
        assert sustained_run_start(flags, 3) == -1

    def test_min_run_one_finds_any_true(self, backend):
        flags = np.array([0, 0, 1, 0], dtype=bool)
        assert sustained_run_start(flags, 1) == 2

    def test_start_offset_skips_earlier_runs(self, backend):
        flags = np.array([1, 1, 1, 0, 1, 1, 1], dtype=bool)
        assert sustained_run_start(flags, 3, start=1) == 4
        # a run already in progress at `start` is counted from `start`
        assert sustained_run_start(flags, 2, start=1) == 1

    def test_tail_run_accepted_when_asked(self, backend):
        flags = np.array([0, 0, 0, 1, 1], dtype=bool)
        assert sustained_run_start(flags, 4) == -1
        assert sustained_run_start(flags, 4, accept_tail=True) == 3

    def test_tail_not_accepted_when_last_false(self, backend):
        flags = np.array([0, 1, 1, 0], dtype=bool)
        assert sustained_run_start(flags, 3, accept_tail=True) == -1

    def test_all_true_with_tail(self, backend):
        flags = np.ones(3, dtype=bool)
        assert sustained_run_start(flags, 10, accept_tail=True) == 0

    def test_start_past_end(self, backend):
        flags = np.ones(3, dtype=bool)
        assert sustained_run_start(flags, 1, start=3) == -1

    @given(data=st.data(), k=st.integers(1, 6), n=st.integers(0, 60),
           min_run=st.integers(1, 8), accept_tail=st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_equals_sliding_window_scan(self, data, k, n, min_run,
                                        accept_tail):
        flags = data.draw(arrays(np.bool_, (k, n)))
        start = np.array(data.draw(st.lists(st.integers(0, 70), min_size=k,
                                            max_size=k)))
        got = _run_starts(flags, min_run, start, accept_tail)
        assert got.tolist() == [
            sustained_run_start_windows(row, min_run, int(first), accept_tail)
            for row, first in zip(flags, start)]


def segment_one(vz: np.ndarray, t: np.ndarray, sample_rate: float,
                threshold: float):
    """(onset, termination, onset time, termination time) of one series by
    the sliding-window scan, or None: the per-series segmentation that
    _segments does for a whole block."""
    min_run = max(1, math.ceil(HYSTERESIS_S * sample_rate))
    onset = sustained_run_start_windows(vz > threshold, min_run)
    if onset < 0:
        return None
    peak = onset + int(np.argmax(vz[onset:]))
    term = sustained_run_start_windows(vz < threshold, min_run, peak + 1,
                                       accept_tail=True)
    if term < 0:
        return None
    return onset, term, float(t[onset]), float(t[term])


def _series(vz) -> VelocitySeries:
    vz = np.asarray(vz, dtype=np.float64)
    zeros = np.zeros_like(vz)
    return VelocitySeries(t=np.arange(len(vz)) / 250.0, vx=zeros, vy=zeros,
                          vz=vz, sample_rate=250.0)


class TestSegments:
    # speeds on a coarse grid, so that ties for the peak and samples equal
    # to the threshold are common
    @given(data=st.data(), k=st.integers(1, 5), n=st.integers(0, 40),
           threshold=st.sampled_from([0.0, 0.05, 0.1]),
           sample_rate=st.sampled_from([50.0, 100.0, 250.0]))
    @settings(max_examples=300, deadline=None)
    def test_block_equals_per_series_scan(self, data, k, n, threshold,
                                          sample_rate):
        vz = data.draw(arrays(np.float64, (k, n),
                              elements=st.sampled_from([-0.05, 0.0, 0.05,
                                                        0.1, 0.2])))
        t = [np.arange(n) / sample_rate + row for row in range(k)]
        got = [None if seg is None else
               (seg.onset_index, seg.termination_index, seg.onset_time,
                seg.termination_time)
               for seg in _segments(vz, t, sample_rate, threshold)]
        assert got == [segment_one(row, times, sample_rate, threshold)
                       for row, times in zip(vz, t)]

    def test_empty_series_has_no_segment(self):
        assert detect_segment(_series([])) is None

    def test_peak_on_last_sample_has_no_segment(self):
        # the termination scan starts after the peak, past the last sample
        assert detect_segment(_series(np.linspace(0.0, 1.0, 40))) is None

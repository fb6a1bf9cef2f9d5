"""Array-kernel tests.

remap_points must agree with the scalar transform_point to rounding
(numpy's vectorized libm may round the last bit differently than scalar
libm), report the first vertex it cannot correct, and copy the input
bitwise at zero offset; sustained_run_start is pinned on hand-made flag
arrays.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from vackit.backends import remap_points, sustained_run_start
from vackit.correction import transform_point
from vackit.geometry import EyeGeometry, ScenePoint
from vackit.perception import PerturbationParams


# The kernels once had a compiled twin; the "numpy" id keeps the test
# names that the suite's history records.
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
        beta = math.radians(0.22)
        out, bad = remap_points(xyz, 0.032, beta)
        assert bad == -1
        eyes = EyeGeometry(ipd=0.064)
        params = PerturbationParams(beta)
        for src, dst in zip(xyz, out):
            expected = transform_point(ScenePoint(*src), eyes, params)
            assert dst[0] == src[0] and dst[1] == src[1]
            assert dst[2] == pytest.approx(expected.z, rel=1e-14)

    def test_zero_offset_bitwise_copy(self, backend):
        xyz = _random_cloud(64, seed=2)
        out, bad = remap_points(xyz, 0.032, 0.0)
        assert bad == -1
        assert np.array_equal(out, xyz)
        assert out is not xyz

    def test_first_bad_vertex_reported(self, backend):
        xyz = _random_cloud(8, seed=3)
        xyz[5] = [0.3, 0.3, 0.05]  # radicand goes negative under -0.04 rad
        out, bad = remap_points(xyz, 0.032, -0.04)
        assert bad == 5
        assert np.array_equal(out, xyz)

    def test_behind_viewer_rejected(self, backend):
        xyz = _random_cloud(4, seed=4)
        xyz[2, 2] = -0.4
        _, bad = remap_points(xyz, 0.032, math.radians(0.22))
        assert bad == 2

    def test_too_distant_rejected(self, backend):
        xyz = np.array([[0.0, 0.0, 2.0]])
        _, bad = remap_points(xyz, 0.032, 0.04)
        assert bad == 0


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

    def test_min_run_validated(self, backend):
        with pytest.raises(ValueError):
            sustained_run_start(np.ones(3, dtype=bool), 0)

"""Depth-remap (geometric compensation) tests.

The remap solves for the displayed distance whose perceived distance,
under a given vergence offset, equals the intended one:

    tau_corrected = tau(z) - beta
    z_tilde       = half_ipd / tan(tau_corrected / 2)

Reference (ipd = 0.064 m, beta = 0.22 deg, 40-digit arithmetic):

    z = 0.45 m  ->  z_tilde = 0.462549388001867174247482666 m

Pushing z_tilde back through the perception model with the same offset
must land exactly on z again; that inverse property is the contract and
it is checked pointwise here and on a dense grid in the acceptance
suite.  A superficially similar variant that subtracts the offset from
the half-angle instead, which is the offset doubled on the full angle, is
kept in the array kernel behind vackit transform's comparison flag; it
does not satisfy the inverse property and a test pins that down.

The array kernel runs in row blocks; across block edges its output must
keep every bit of the whole-array expression.
"""

from __future__ import annotations

import math

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vackit.correction as correction
from vackit.correction import (
    CorrectionCurveRow,
    MeshModel,
    predicted_correction_curve,
    remap_depth,
    transform_mesh,
    transform_point,
    transform_points,
)
from vackit.errors import DomainError
from vackit.geometry import EyeGeometry, ScenePoint, shift_distances
from vackit.perception import PerturbationParams, fixated_distance_error, predict_endpoint

EYES64 = EyeGeometry(ipd=0.064)
EYES63 = EyeGeometry(ipd=0.063)
BETA = math.radians(0.22)
PARAMS = PerturbationParams(BETA)

Z_TILDE_045 = 0.462549388001867174247482666


class TestRemapDepth:
    def test_reference_value(self):
        z_tilde = remap_depth(0.45, EYES64, PARAMS)
        assert z_tilde == pytest.approx(Z_TILDE_045, abs=1e-15)

    def test_positive_offset_pushes_farther(self):
        assert remap_depth(0.45, EYES64, PARAMS) > 0.45

    def test_negative_offset_pulls_nearer(self):
        assert remap_depth(0.45, EYES64, PerturbationParams(-BETA)) < 0.45

    def test_zero_offset_identity(self):
        for z in (0.2, 0.45, 1.0, 2.5):
            assert remap_depth(z, EYES64, PerturbationParams(0.0)) == \
                pytest.approx(z, rel=1e-14)

    def test_inverse_property_pointwise(self):
        for z in (0.2, 0.3, 0.45, 0.8, 1.5):
            z_tilde = remap_depth(z, EYES64, PARAMS)
            round_trip = predict_endpoint(z_tilde, PARAMS, EYES64)
            assert abs(round_trip - z) < 1e-12 * z

    def test_rejects_nonpositive_depth(self):
        with pytest.raises(DomainError):
            remap_depth(0.0, EYES64, PARAMS)

    def test_too_distant_to_correct(self):
        # with a large positive offset the corrected angle hits zero for
        # far points; 2 m at 0.04 rad offset is past that horizon
        params = PerturbationParams(0.04)
        with pytest.raises(DomainError):
            remap_depth(2.0, EYES64, params)


def _literal(points, eyes, params):
    """vackit transform --compat-literal-half-angle on a copy of points."""
    out = np.array(points, dtype=np.float64)
    correction._remap_in_place(out, eyes, params, literal_half_angle=True)
    return out


class TestLiteralHalfAngleVariant:
    """The half-angle variant is the remap at twice the offset."""

    def test_differs_from_default(self):
        literal = remap_depth(0.45, EYES64, PerturbationParams(2.0 * BETA))
        assert abs(literal - Z_TILDE_045) > 1e-3

    def test_breaks_inverse_property(self):
        literal = remap_depth(0.45, EYES64, PerturbationParams(2.0 * BETA))
        round_trip = predict_endpoint(literal, PARAMS, EYES64)
        assert abs(round_trip - 0.45) > 1e-3

    def test_agrees_with_default_at_zero_offset(self):
        zero = PerturbationParams(0.0)
        on_axis = np.array([[0.0, 0.0, 0.45]])
        assert _literal(on_axis, EYES64, zero).tobytes() == \
            transform_points(on_axis, EYES64, zero).tobytes()


class TestTransformPoint:
    def test_on_axis_matches_remap_depth(self):
        p = transform_point(ScenePoint(0, 0, 0.45), EYES64, PARAMS)
        assert p.x == 0.0 and p.y == 0.0
        assert p.z == pytest.approx(Z_TILDE_045, abs=1e-15)

    def test_preserves_lateral_coordinates(self):
        p = transform_point(ScenePoint(0.1, -0.05, 0.5), EYES64, PARAMS)
        assert p.x == 0.1
        assert p.y == -0.05

    def test_preserves_cyclopean_remap(self):
        # the corrected point's cyclopean distance equals the remapped
        # cyclopean distance of the original
        src = ScenePoint(0.12, 0.08, 0.6)
        out = transform_point(src, EYES64, PARAMS)
        d_tilde = remap_depth(src.cyclopean_distance, EYES64, PARAMS)
        assert out.cyclopean_distance == pytest.approx(d_tilde, rel=1e-14)

    def test_inverse_property_off_axis(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            src = ScenePoint(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                             rng.uniform(0.2, 1.5))
            out = transform_point(src, EYES64, PARAMS)
            perceived = predict_endpoint(out.cyclopean_distance, PARAMS, EYES64)
            assert abs(perceived - src.cyclopean_distance) < 1e-12

    def test_radicand_failure_reports_coordinates(self):
        # strong negative offset pulls the point so close that no
        # positive depth reproduces the corrected distance
        params = PerturbationParams(-0.04)
        with pytest.raises(DomainError) as exc:
            transform_point(ScenePoint(0.3, 0.3, 0.05), EYES64, params)
        assert "0.3" in str(exc.value)


def _tetra_mesh() -> MeshModel:
    vertices = np.array([
        [0.00, 0.00, 0.50],
        [0.10, 0.00, 0.55],
        [0.00, 0.10, 0.60],
        [-0.10, -0.10, 0.45],
    ])
    faces = np.array([[0, 1, 2], [0, 1, 3], [1, 2, 3]])
    return MeshModel(vertices=vertices, faces=faces, provenance="unit-test")


class TestMeshModel:
    def test_face_index_out_of_range(self):
        with pytest.raises(DomainError):
            MeshModel(vertices=np.zeros((2, 3)) + [0, 0, 1.0],
                      faces=np.array([[0, 1, 2]]),
                      provenance="bad")

    def test_vertex_shape_checked(self):
        with pytest.raises(DomainError):
            MeshModel(vertices=np.zeros((3, 2)),
                      faces=np.zeros((0, 3), dtype=np.int64),
                      provenance="bad")

    @pytest.mark.parametrize("bad", [2**32 + 1, -2**32 + 1])
    @pytest.mark.parametrize("as_array", [False, True])
    def test_index_past_int32_refused_not_wrapped(self, bad, as_array):
        # both wrap to 1 in int32: the range is checked before the narrowing
        faces = [[0, 1, bad]]
        with pytest.raises(DomainError, match="^face indices out of vertex range$"):
            MeshModel(vertices=np.ones((3, 3)),
                      faces=np.array(faces, dtype=np.int64) if as_array else faces)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, np.float64])
    def test_faces_kept_as_int32_values_unchanged(self, dtype):
        faces = np.array([[0, 1, 2], [2, 1, 0], [0, 2, 1]], dtype=dtype)
        mesh = MeshModel(vertices=np.ones((3, 3)), faces=faces)
        assert mesh.faces.dtype == np.int32
        assert mesh.faces.tolist() == faces.astype(np.int64).tolist()

    def test_int32_faces_are_not_copied(self):
        faces = np.array([[0, 1, 2]], dtype=np.int32)
        mesh = MeshModel(vertices=np.ones((3, 3)), faces=faces)
        assert np.shares_memory(mesh.faces, faces)

    def test_face_dtype_widens_past_int32(self):
        # every index of such a mesh, plus the writer's 1, fits in int32
        assert correction._face_dtype(2**31 - 1) == np.int32
        assert correction._face_dtype(2**31) == np.int64


class TestTransformMesh:
    def test_depths_match_pointwise_transform(self):
        mesh = _tetra_mesh()
        out = transform_mesh(mesh, EYES64, PARAMS)
        for src, dst in zip(mesh.vertices, out.vertices):
            expected = transform_point(ScenePoint(*src), EYES64, PARAMS)
            assert dst[0] == src[0] and dst[1] == src[1]
            assert dst[2] == pytest.approx(expected.z, rel=1e-14)

    def test_faces_and_provenance_carried_over(self):
        mesh = _tetra_mesh()
        out = transform_mesh(mesh, EYES64, PARAMS)
        np.testing.assert_array_equal(out.faces, mesh.faces)
        assert out.provenance == mesh.provenance

    def test_zero_offset_is_bitwise_identity(self):
        mesh = _tetra_mesh()
        out = transform_mesh(mesh, EYES64, PerturbationParams(0.0))
        assert np.array_equal(out.vertices, mesh.vertices)

    def test_uncorrectable_vertex_is_indexed(self):
        vertices = np.array([[0.0, 0.0, 0.5], [0.3, 0.3, 0.05]])
        mesh = MeshModel(vertices=vertices,
                         faces=np.zeros((0, 3), dtype=np.int64),
                         provenance="unit-test")
        with pytest.raises(DomainError) as exc:
            transform_mesh(mesh, EYES64, PerturbationParams(-0.04))
        assert "vertex 1" in str(exc.value)


class TestTransformPoints:
    def test_equals_mesh_transform(self):
        mesh = _tetra_mesh()
        out = transform_points(mesh.vertices, EYES64, PARAMS)
        assert np.array_equal(out, transform_mesh(mesh, EYES64, PARAMS).vertices)

    def test_uncorrectable_point_message(self):
        points = np.array([[0.0, 0.0, 0.5], [0.3, 0.3, 0.05]])
        with pytest.raises(DomainError) as exc:
            transform_points(points, EYES64, PerturbationParams(-0.04))
        assert str(exc.value) == "point 1 at (0.3, 0.3, 0.05) cannot be corrected"
        mesh = MeshModel(vertices=points, faces=np.zeros((0, 3), dtype=np.int64))
        with pytest.raises(DomainError) as exc:
            transform_mesh(mesh, EYES64, PerturbationParams(-0.04))
        assert str(exc.value) == "vertex 1 at (0.3, 0.3, 0.05) cannot be corrected"


def _whole_array(points, eyes, params):
    """transform_points as one expression over the whole array: the
    reference for its block kernel."""
    shift = -params.beta_offset
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    d_tilde, ok = shift_distances(np.sqrt(x * x + y * y + z * z),
                                  float(eyes.half_ipd), shift)
    radicand = d_tilde * d_tilde - x * x - y * y
    assert (ok & (z > 0.0) & (radicand > 0.0)).all()
    if shift == 0.0:
        return points.copy()
    return np.column_stack([x, y, np.sqrt(radicand)])


class TestTransformPointsBlocks:
    """transform_points evaluates _BLOCK_ROWS rows at a time; these arrays
    straddle three block edges."""

    N = 3 * correction._BLOCK_ROWS + 17

    def _points(self, seed):
        rng = np.random.default_rng(seed)
        return np.column_stack([rng.uniform(-0.1, 0.1, self.N),
                                rng.uniform(-0.1, 0.1, self.N),
                                rng.uniform(0.3, 1.0, self.N)])

    @pytest.mark.parametrize("beta", [BETA, 0.0])
    @pytest.mark.parametrize("doubled", [False, True])
    def test_bits_equal_the_whole_array_expression(self, beta, doubled):
        # doubled: the offset vackit transform's half-angle variant applies
        points = self._points(11)
        params = PerturbationParams(2.0 * beta if doubled else beta)
        out = transform_points(points, EYES64, params)
        want = _whole_array(points, EYES64, params)
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("beta, bad", [
        (-0.04, [0.3, 0.3, 0.05]),   # cannot keep x and y
        (0.0, [0.1, 0.0, -0.5]),     # behind the viewer, also with no shift
    ])
    def test_bad_point_named_by_its_global_index(self, beta, bad):
        points = self._points(12)
        first = correction._BLOCK_ROWS + 5
        points[first] = points[2 * correction._BLOCK_ROWS + 1] = bad
        x, y, z = bad
        with pytest.raises(DomainError) as exc:
            transform_points(points, EYES64, PerturbationParams(beta))
        assert str(exc.value) == f"point {first} at ({x}, {y}, {z}) cannot be corrected"


# Rows no offset here can correct: laterally too far for its corrected
# distance, behind the viewer, on the eye axis too near, not finite.
UNCORRECTABLE = [[0.3, 0.3, 0.05], [0.1, 0.0, -0.5], [0.0, 0.0, 0.0005],
                 [0.0, 0.0, math.inf], [math.nan, 0.0, 0.5]]


class TestRemapInPlace:
    """_remap_in_place, which transform_points runs on its copy and vackit
    transform on the array it read, in blocks of 4 rows.  Its half-angle
    variant at beta is transform_points at 2 * beta, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_transform_points(self, data):
        n = data.draw(st.integers(0, 14))
        row = st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3),
                        st.floats(0.05, 3.0))
        points = np.array(data.draw(st.lists(row, min_size=n, max_size=n)),
                          dtype=np.float64).reshape(n, 3)
        for i in data.draw(st.lists(st.integers(0, n - 1), max_size=2)) if n else []:
            points[i] = data.draw(st.sampled_from(UNCORRECTABLE))
        beta = data.draw(st.sampled_from([0.0, BETA, -0.04])
                         | st.floats(-0.049, 0.049))
        kind = data.draw(st.sampled_from(["point", "vertex"]))
        literal = data.draw(st.booleans())
        # the variant runs at half the drawn offset, so 2 * beta is in bounds
        params = PerturbationParams(beta / 2 if literal else beta)
        reference = PerturbationParams(2 * params.beta_offset if literal else beta)
        work = points.copy()
        with mock.patch.object(correction, "_BLOCK_ROWS", 4):
            try:
                want = transform_points(points, EYES64, reference, kind=kind)
            except DomainError as exc:
                error = str(exc)
            else:
                correction._remap_in_place(work, EYES64, params, kind=kind,
                                           literal_half_angle=literal)
                assert work.tobytes() == want.tobytes()
                return
            with pytest.raises(DomainError) as exc:
                correction._remap_in_place(work, EYES64, params, kind=kind,
                                           literal_half_angle=literal)
            assert str(exc.value) == error
            # the failing row's block and the ones after it are as given
            start = int(error.split()[1]) // 4 * 4
            assert work[start:].tobytes() == points[start:].tobytes()
            assert work[:start].tobytes() == transform_points(
                points[:start], EYES64, reference, kind=kind).tobytes()

    def test_later_block_refused_with_its_block_untouched(self):
        points = np.tile([0.05, -0.02, 0.6], (12, 1))
        points[9] = UNCORRECTABLE[0]
        # the half-angle variant runs at -0.04 rad too, where no
        # PerturbationParams holds twice the offset
        for literal in (False, True):
            work = points.copy()
            with mock.patch.object(correction, "_BLOCK_ROWS", 4), \
                    pytest.raises(DomainError) as exc:
                correction._remap_in_place(work, EYES64,
                                           PerturbationParams(-0.04),
                                           literal_half_angle=literal)
            assert str(exc.value) == \
                "point 9 at (0.3, 0.3, 0.05) cannot be corrected"
            assert not np.array_equal(work[:8], points[:8])
            assert work[8:].tobytes() == points[8:].tobytes()


class TestTransformPointsLiteral:
    """The half-angle variant runs through the array kernel, which doubles
    the offset: it is transform_points at 2 * beta."""

    def test_agrees_with_rowwise_transform_point(self):
        rng = np.random.default_rng(5)
        points = np.column_stack([rng.uniform(-0.2, 0.2, 500),
                                  rng.uniform(-0.2, 0.2, 500),
                                  rng.uniform(0.3, 1.5, 500)])
        for beta in (BETA, -0.01):
            out = _literal(points, EYES64, PerturbationParams(beta))
            assert np.array_equal(out[:, :2], points[:, :2])
            doubled = PerturbationParams(2.0 * beta)
            rowwise = np.array([transform_point(ScenePoint(*p), EYES64,
                                                doubled).z for p in points])
            # numpy's and libm's atan2/tan may differ in the last bits
            assert np.all(np.abs(out[:, 2] - rowwise) <= 4 * np.spacing(rowwise))
            assert not np.array_equal(
                out, transform_points(points, EYES64, PerturbationParams(beta)))

    def test_literal_doubles_the_shift(self):
        points = np.array([[0.0, 0.0, 0.45], [0.1, -0.05, 0.7]])
        doubled = PerturbationParams(2.0 * BETA)
        assert _literal(points, EYES64, PARAMS).tobytes() == \
            transform_points(points, EYES64, doubled).tobytes()

    def test_zero_offset_is_bitwise_identity(self):
        points = np.random.default_rng(6).uniform(0.1, 0.9, (200, 3))
        work = points.copy()
        correction._remap_in_place(work, EYES64, PerturbationParams(0.0),
                                   literal_half_angle=True)
        assert work.tobytes() == points.tobytes()

    @pytest.mark.parametrize("bad", [
        [0.0, 0.0, 0.0005],  # corrected angle past pi
        [0.3, 0.3, 0.05],    # corrected distance cannot keep x and y
    ])
    def test_raises_on_the_same_first_bad_row(self, bad):
        doubled = PerturbationParams(-0.04)
        points = np.array([[0.0, 0.0, 0.45], [0.1, 0.0, 0.5], bad,
                           [0.3, 0.3, 0.05]])
        for p in points[:2]:
            transform_point(ScenePoint(*p), EYES64, doubled)
        with pytest.raises(DomainError):
            transform_point(ScenePoint(*bad), EYES64, doubled)
        x, y, z = bad
        with pytest.raises(DomainError) as exc:
            _literal(points, EYES64, PerturbationParams(-0.02))
        assert str(exc.value) == f"point 2 at ({x}, {y}, {z}) cannot be corrected"


class TestPredictedCorrectionCurve:
    def test_row_values_match_closed_form(self):
        distances = [0.6103277807866851, 0.6519202405202649,
                     0.6946221994724902, 0.7382411530116700]
        expected = [-0.021947235716105798, -0.024971221240677457,
                    -0.028271044744710545, -0.031844362235094779]
        rows = predicted_correction_curve(distances, EYES63, PARAMS)
        assert [r.distance for r in rows] == distances
        for row, err in zip(rows, expected):
            assert row.original_error == pytest.approx(err, abs=1e-15)

    def test_uncorrected_error_matches_fixated_error(self):
        distances = np.linspace(0.3, 1.0, 8)
        rows = predicted_correction_curve(distances, EYES63, PARAMS)
        closed = fixated_distance_error(distances, 0.063, BETA)
        np.testing.assert_allclose([r.original_error for r in rows], closed,
                                   atol=1e-15)

    def test_transformed_error_vanishes(self):
        rows = predicted_correction_curve(np.linspace(0.3, 1.0, 8),
                                          EYES63, PARAMS)
        for row in rows:
            assert abs(row.transformed_error) < 1e-12

    def test_rows_are_plain_records(self):
        row = predicted_correction_curve([0.5], EYES63, PARAMS)[0]
        assert isinstance(row, CorrectionCurveRow)
        assert row.distance == 0.5

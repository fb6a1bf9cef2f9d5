"""OBJ and point-CSV round-trip tests.

Coordinates are written with ``repr`` so a write/read cycle is exact at
float64 resolution.  Malformed input must fail with the file path and a
1-based line number in the error, because the command line surfaces
those directly.  The chunked writers are checked byte for byte against
per-line reference writers, and the array-based triangulation against a
per-face fan.
"""

from __future__ import annotations

import csv
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vackit.correction import MeshModel
from vackit.errors import DataFormatError
from vackit.meshio import (
    _CHUNK_ROWS,
    read_obj,
    read_points_csv,
    write_obj,
    write_points_csv,
)

# Writing files inside a property test reuses tmp_path across examples.
FILE_SETTINGS = settings(max_examples=20, deadline=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])
SIZES = [1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1]
SPECIAL_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-310,
                  2.2250738585072014e-308, 1e22, -1e22, 1.7976931348623157e308,
                  0.1, 1 / 3]
any_float = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())


def reference_write_obj(mesh: MeshModel, path) -> None:
    """Per-line OBJ writer: the format contract of write_obj."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for x, y, z in mesh.vertices:
            fh.write(f"v {float(x)!r} {float(y)!r} {float(z)!r}\n")
        for line in mesh.normal_lines:
            fh.write(line + "\n")
        for a, b, c in mesh.faces:
            fh.write(f"f {int(a) + 1} {int(b) + 1} {int(c) + 1}\n")


def reference_write_points_csv(points: np.ndarray, path) -> None:
    """Per-row csv.writer points writer: the format contract of write_points_csv."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "z"])
        for x, y, z in points:
            writer.writerow([repr(float(x)), repr(float(y)), repr(float(z))])


def reference_fan(faces: list[list[int]], n_vertices: int) -> list[list[int]]:
    """Per-face fan triangulation of 1-based or negative OBJ references."""
    out = []
    for refs in faces:
        idx = [r + n_vertices if r < 0 else r - 1 for r in refs]
        out.extend([idx[0], idx[k], idx[k + 1]] for k in range(1, len(idx) - 1))
    return out


def _tile(values: list[float], rows: int) -> np.ndarray:
    return np.resize(np.array(values, dtype=np.float64), (rows, 3))


def _write(path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestReadObj:
    def test_vertices_and_triangles(self, tmp_path):
        p = _write(tmp_path / "tri.obj", """\
# comment
v 0.0 0.0 0.5
v 0.1 0.0 0.55
v 0.0 0.1 0.6
f 1 2 3
""")
        mesh = read_obj(p)
        assert mesh.vertices.shape == (3, 3)
        assert mesh.vertices[1, 2] == 0.55
        np.testing.assert_array_equal(mesh.faces, [[0, 1, 2]])
        assert mesh.provenance == p

    def test_quad_is_fan_triangulated(self, tmp_path):
        p = _write(tmp_path / "quad.obj", """\
v 0 0 1
v 1 0 1
v 1 1 1
v 0 1 1
f 1 2 3 4
""")
        mesh = read_obj(p)
        np.testing.assert_array_equal(mesh.faces, [[0, 1, 2], [0, 2, 3]])

    def test_negative_indices_count_from_end(self, tmp_path):
        p = _write(tmp_path / "neg.obj", """\
v 0 0 1
v 1 0 1
v 0 1 1
f -3 -2 -1
""")
        mesh = read_obj(p)
        np.testing.assert_array_equal(mesh.faces, [[0, 1, 2]])

    def test_slash_references_ignored(self, tmp_path):
        p = _write(tmp_path / "slash.obj", """\
v 0 0 1
v 1 0 1
v 0 1 1
vn 0 0 1
f 1//1 2//1 3//1
""")
        mesh = read_obj(p)
        np.testing.assert_array_equal(mesh.faces, [[0, 1, 2]])
        assert mesh.normal_lines == ("vn 0 0 1",)

    def test_bad_vertex_reports_line(self, tmp_path):
        p = _write(tmp_path / "bad.obj", "v 0 0 1\nv nope 0 1\n")
        with pytest.raises(DataFormatError) as exc:
            read_obj(p)
        assert exc.value.line == 2
        assert exc.value.path == p

    def test_face_index_out_of_range_reports_line(self, tmp_path):
        p = _write(tmp_path / "range.obj", "v 0 0 1\nv 1 0 1\nv 0 1 1\nf 1 2 9\n")
        with pytest.raises(DataFormatError) as exc:
            read_obj(p)
        assert exc.value.line == 4

    def test_empty_file_rejected(self, tmp_path):
        p = _write(tmp_path / "empty.obj", "# nothing here\n")
        with pytest.raises(DataFormatError):
            read_obj(p)


class TestObjRoundTrip:
    def test_exact_vertex_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        vertices = np.column_stack([
            rng.uniform(-0.3, 0.3, 20),
            rng.uniform(-0.3, 0.3, 20),
            rng.uniform(0.2, 1.5, 20),
        ])
        faces = np.array([[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        mesh = MeshModel(vertices=vertices, faces=faces, provenance="mem",
                         normal_lines=("vn 0 0 1",))
        out = tmp_path / "round.obj"
        write_obj(mesh, out)
        back = read_obj(out)
        assert np.array_equal(back.vertices, vertices)
        assert np.array_equal(back.faces, faces)
        assert back.normal_lines == ("vn 0 0 1",)

    def test_written_file_is_plain_ascii(self, tmp_path):
        mesh = MeshModel(vertices=np.array([[0.0, 0.0, 0.5]]),
                         faces=np.zeros((0, 3), dtype=np.int64),
                         provenance="mem")
        out = tmp_path / "ascii.obj"
        write_obj(mesh, out)
        text = out.read_text(encoding="utf-8")
        assert text == "v 0.0 0.0 0.5\n"


class TestPointsCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        pts = np.column_stack([
            rng.uniform(-1, 1, 10),
            rng.uniform(-1, 1, 10),
            rng.uniform(0.1, 2, 10),
        ])
        out = tmp_path / "pts.csv"
        write_points_csv(pts, out)
        back = read_points_csv(out)
        assert np.array_equal(back, pts)

    def test_header_required(self, tmp_path):
        p = _write(tmp_path / "hdr.csv", "a,b,c\n1,2,3\n")
        with pytest.raises(DataFormatError) as exc:
            read_points_csv(p)
        assert exc.value.line == 1

    def test_bad_row_reports_line(self, tmp_path):
        p = _write(tmp_path / "row.csv", "x,y,z\n0,0,1\n0,oops,1\n")
        with pytest.raises(DataFormatError) as exc:
            read_points_csv(p)
        assert exc.value.line == 3

    def test_bad_row_line_counts_physical_lines(self, tmp_path):
        # a quoted newline makes the second record span two lines, and a
        # blank line still counts: the bad row sits on line 5
        p = _write(tmp_path / "row.csv", 'x,y,z\n"0\n",0,1\n\n0,oops,1\n')
        with pytest.raises(DataFormatError) as exc:
            read_points_csv(p)
        assert exc.value.line == 5
        assert str(exc.value) == f"bad point row ['0', 'oops', '1'] [{p}:5]"

    def test_empty_body_rejected(self, tmp_path):
        p = _write(tmp_path / "body.csv", "x,y,z\n")
        with pytest.raises(DataFormatError):
            read_points_csv(p)


class TestByteOrderMark:
    def test_obj_bom_keeps_first_vertex(self, tmp_path):
        # 4 vertices: a dropped first vertex would shift every index by one
        # and still leave "f 1 2 3" in range.
        p = _write(tmp_path / "bom.obj",
                   "\ufeffv 0 0 1\nv 1 0 1\nv 1 1 1\nv 0 1 1\nf 1 2 3\n")
        mesh = read_obj(p)
        np.testing.assert_array_equal(mesh.vertices[0], [0.0, 0.0, 1.0])
        assert mesh.vertices.shape == (4, 3)
        np.testing.assert_array_equal(mesh.faces, [[0, 1, 2]])

    def test_points_csv_bom_header_accepted(self, tmp_path):
        p = _write(tmp_path / "bom.csv", "\ufeffx,y,z\n1,2,3\n")
        np.testing.assert_array_equal(read_points_csv(p), [[1.0, 2.0, 3.0]])


class TestObjErrorOrder:
    """Per-line errors in file order, then no vertices, then face indices."""

    @pytest.mark.parametrize("text, message, line", [
        # A bad vertex on a later line wins over an earlier bad face token.
        ("v 0 0 1\nf 1 x 3\nv nope 0 1\n", "bad vertex 'v nope 0 1'", 3),
        # A short f line wins over an earlier out-of-range index.
        ("v 0 0 1\nv 1 0 1\nv 0 1 1\nf 1 2 9\nf 1 2\n",
         "face needs >= 3 vertices", 5),
        ("v 0 0 1\nf 1 2 3\nv 1 0\n", "vertex needs 3 coordinates", 3),
        # No vertices wins over any face error.
        ("# only faces\nf 1 2 3\nf x y z\nf 1 2 99\n", "no vertices found", None),
        # In face order: the first failing token, bad or out of range.
        ("v 0 0 1\nv 1 0 1\nv 0 1 1\nf 1 zz 99\n", "bad face index 'zz'", 4),
        ("v 0 0 1\nv 1 0 1\nv 0 1 1\nf 1 99 zz\n", "face index '99' out of range", 4),
        ("v 0 0 1\nv 1 0 1\nv 0 1 1\nf 1 2 3 0\n", "face index '0' out of range", 4),
        ("v 0 0 1\nv 1 0 1\nv 0 1 1\nf /1 2 3\n", "bad face index '/1'", 4),
        ("v 0 0 1\nv 1 0 1\nv 0 1 1\nf 1 2 -99999999999999999999999/2\nf 1 2 x\n",
         "face index '-99999999999999999999999/2' out of range", 4),
    ])
    def test_first_error_wins(self, tmp_path, text, message, line):
        p = _write(tmp_path / "order.obj", text)
        with pytest.raises(DataFormatError) as exc:
            read_obj(p)
        where = f" [{p}:{line}]" if line is not None else f" [{p}]"
        assert str(exc.value) == message + where
        assert exc.value.line == line

    def test_out_of_range_reports_own_token_in_multi_face_file(self, tmp_path):
        lines = ["v 0 0 1", "v 1 0 1", "v 0 1 1", "v 1 1 1", "vn 0 0 1",
                 "f 1 2 3", "f 1//1 2//1 3//1 4//1", "# comment", "f -1 -2 -3",
                 "f 1/1/1 2/1/1 3/1/1 -5//1 4/1/1", "f 1 2 x", "f 1 2 77"]
        p = _write(tmp_path / "multi.obj", "\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as exc:
            read_obj(p)
        assert str(exc.value) == f"face index '-5//1' out of range [{p}:10]"
        assert exc.value.line == 10


class TestChunkedWritersMatchReference:
    @pytest.mark.parametrize("n", [0] + SIZES)
    @FILE_SETTINGS
    @given(values=st.lists(any_float, min_size=1, max_size=30))
    def test_points_csv_bytes(self, tmp_path, n, values):
        points = _tile(values + SPECIAL_FLOATS, n)
        write_points_csv(points, tmp_path / "new.csv")
        reference_write_points_csv(points, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("n", SIZES)
    @FILE_SETTINGS
    @given(values=st.lists(any_float, min_size=1, max_size=30),
           n_faces=st.sampled_from([0] + SIZES), normals=st.integers(0, 3))
    def test_obj_bytes(self, tmp_path, n, values, n_faces, normals):
        vertices = _tile(values + SPECIAL_FLOATS, n)
        faces = np.arange(3 * n_faces, dtype=np.int64).reshape(-1, 3) % n
        mesh = MeshModel(vertices=vertices, faces=faces, provenance="mem",
                         normal_lines=tuple(f"vn 0 0 {i}" for i in range(normals)))
        write_obj(mesh, tmp_path / "new.obj")
        reference_write_obj(mesh, tmp_path / "ref.obj")
        assert (tmp_path / "new.obj").read_bytes() == (tmp_path / "ref.obj").read_bytes()

    def test_points_shape_checked(self, tmp_path):
        with pytest.raises(ValueError):
            write_points_csv(np.zeros((2, 4)), tmp_path / "bad.csv")


finite_float = st.floats(allow_nan=False)
# (arity, per-vertex token style) for mixed 3/4/5/7-gons.
face_spec = st.tuples(st.sampled_from([3, 4, 5, 7]),
                      st.lists(st.sampled_from(["{}", "{}/1", "{}//1", "{}/1/1"]),
                               min_size=7, max_size=7))


class TestObjProperties:
    @FILE_SETTINGS
    @given(n_vertices=st.integers(1, 12), data=st.data(),
           faces=st.lists(face_spec, max_size=12))
    def test_triangulation_matches_per_face_fan(self, tmp_path, n_vertices, data, faces):
        lines = [f"v {i} 0 1" for i in range(n_vertices)] + ["vn 0 0 1", "vt 0 0"]
        refs_per_face = []
        for arity, styles in faces:
            refs = data.draw(st.lists(
                st.integers(1, n_vertices).flatmap(
                    lambda i: st.sampled_from([i, i - 1 - n_vertices])),
                min_size=arity, max_size=arity))
            refs_per_face.append(refs)
            tokens = [style.format(r) for r, style in zip(refs, styles)]
            lines.append("f " + " ".join(tokens))
        p = _write(tmp_path / "fan.obj", "\n".join(lines) + "\n")
        mesh = read_obj(p)
        expected = np.array(reference_fan(refs_per_face, n_vertices),
                            dtype=np.int64).reshape(-1, 3)
        np.testing.assert_array_equal(mesh.faces, expected)

    @FILE_SETTINGS
    @given(coords=st.lists(finite_float, min_size=3, max_size=60),
           faces=st.lists(face_spec, max_size=8), crlf=st.booleans())
    def test_read_write_read_round_trip(self, tmp_path, coords, faces, crlf):
        n_vertices = len(coords) // 3
        lines = ["# source", "vn 0 0 1"]
        lines += [f"v {x!r} {y!r} {z!r}" for x, y, z in
                  np.reshape(coords[:3 * n_vertices], (-1, 3)).tolist()]
        for arity, styles in faces:
            lines.append("f " + " ".join(style.format(-1 - (k % n_vertices))
                                         for k, style in zip(range(arity), styles)))
        text = "\n".join(lines) + "\n"
        (tmp_path / "src.obj").write_bytes(
            (text.replace("\n", "\r\n") if crlf else text).encode())
        first = read_obj(tmp_path / "src.obj")
        write_obj(first, tmp_path / "once.obj")
        second = read_obj(tmp_path / "once.obj")
        assert np.array_equal(second.vertices.view(np.int64),
                              first.vertices.view(np.int64))
        np.testing.assert_array_equal(second.faces, first.faces)
        assert second.normal_lines == first.normal_lines == ("vn 0 0 1",)
        write_obj(second, tmp_path / "twice.obj")
        assert (tmp_path / "twice.obj").read_bytes() == (tmp_path / "once.obj").read_bytes()

    @FILE_SETTINGS
    @given(coords=st.lists(finite_float, min_size=3, max_size=60))
    def test_points_round_trip_bitwise(self, tmp_path, coords):
        points = np.reshape(coords[:len(coords) // 3 * 3], (-1, 3))
        write_points_csv(points, tmp_path / "pts.csv")
        back = read_points_csv(tmp_path / "pts.csv")
        assert np.array_equal(back.view(np.int64), points.view(np.int64))

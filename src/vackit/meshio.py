"""Mesh and point-cloud file I/O: ASCII OBJ and xyz CSV.

The OBJ reader parses its ``v`` records in C with ``np.loadtxt`` and its
``f`` records with ``np.fromstring``, a bounded chunk of lines at a time
(``_read_obj_columns``), and reruns a loop over the lines whenever that
might not give the loop's mesh or error.  The three CSV readers, points
here, trajectories in ``kinematics`` and outcomes in ``fitting``, parse
their rows in C through one chunk parser (``_column_chunks``) and rerun a
loop over ``_csv_records`` likewise.  Writers format ``_CHUNK_ROWS`` rows
per ``%`` operation.  Memory stays O(vertices + faces) in arrays, with no
Python object per record.
"""

from __future__ import annotations

import csv
import io
import re
import warnings
from array import array
from itertools import islice
from pathlib import Path
from typing import Iterator

import numpy as np

from .correction import MeshModel
from .errors import DataFormatError

__all__ = ["read_obj", "write_obj", "read_points_csv", "write_points_csv"]

# Rows formatted per write; bounds the Python objects alive at once.
_CHUNK_ROWS = 4096

# A UTF-8 byte-order mark, if present, is not part of the first record.
_ENCODING = "utf-8-sig"

# Size hint, in bytes, of the lines _plain_lines and _read_obj_columns
# parse at once.
_COLUMN_CHUNK = 1 << 20
# Characters that send a CSV reader to its row loop: a quote (csv fields),
# NUL (csv refuses it before Python 3.11), and the ASCII separators U+001C
# to U+001F, which np.loadtxt strips from a number as space and float()
# does not.
_ROW_LOOP_ONLY = '"\0\x1c\x1d\x1e\x1f'
# A CR not followed by LF, which a csv.reader takes for a line end.
_LONE_CR = re.compile("\r(?!\n)")


def _plain_lines(fh) -> Iterator[list[str]]:
    """The lines left in a binary file, decoded, a bounded chunk at a time.

    Each line comes without its "\\n", and a chunk of blank lines only is
    skipped.  Raises ValueError on undecodable bytes, and on a chunk a
    csv.reader might not split at commas and line ends alone: one holding
    a character of _ROW_LOOP_ONLY, a lone CR, or a line longer than csv's
    field limit.
    """
    limit = csv.field_size_limit()
    while text := (fh.read(_COLUMN_CHUNK) + fh.readline()).decode("utf-8"):
        if any(c in text for c in _ROW_LOOP_ONLY) or _LONE_CR.search(text):
            raise ValueError("needs the row loop")
        if not text.strip("\r\n"):
            continue
        lines = text.split("\n")
        if not lines[-1]:
            lines.pop()
        if len(text) > limit and max(map(len, lines)) > limit:
            raise ValueError("needs the row loop")
        yield lines


def _csv_records(path: Path) -> Iterator:
    """A CSV file's header row ([] for an empty file), then (line, row) for
    each non-blank row, line being the physical line the row ends on, so
    blank lines and quoted newlines count."""
    with path.open("r", encoding=_ENCODING, newline="") as fh:
        reader = csv.reader(fh)
        yield next(reader, [])
        for row in reader:
            if row:
                yield reader.line_num, row


def _column_chunks(fh, header: str, dtype: np.dtype) -> Iterator[np.ndarray]:
    """The rows of a plain CSV after its header, parsed in C, as one
    structured array of dtype per _plain_lines chunk.

    fh is a binary file at its start, whose first line must be header plus
    a line end.  Each field of dtype is taken from the header column of
    the same name.  Raises ValueError whenever the rows might differ from
    what a csv.reader loop would read: another first line, a chunk
    _plain_lines refuses, a row np.loadtxt cannot parse, undecodable
    bytes, or a text field that fills its width, since it may have been
    cut.  The caller then reruns its row loop, which alone words errors
    and numbers lines.
    """
    if fh.readline().decode(_ENCODING) not in (header + "\r\n", header + "\n"):
        raise ValueError("needs the row loop")
    names = header.split(",")
    usecols = [names.index(name) for name in dtype.names]
    texts = [name for name in dtype.names if dtype[name].kind == "U"]
    for lines in _plain_lines(fh):
        rows = np.loadtxt(lines, dtype=dtype, delimiter=",", usecols=usecols,
                          comments=None, ndmin=1)
        for name in texts:
            if (np.char.str_len(rows[name]) >= dtype[name].itemsize // 4).any():
                raise ValueError("needs the row loop")
        yield rows


def _runs(values: np.ndarray) -> tuple[list, np.ndarray]:
    """The first value of each run of equal values, and the run lengths."""
    starts = np.flatnonzero(values[1:] != values[:-1]) + 1
    return (values[np.concatenate(([0], starts))].tolist(),
            np.diff(np.concatenate(([0], starts, [len(values)]))))


def _face_ref(token: str) -> int:
    """The vertex reference of an OBJ face token (v, v/vt, v//vn, v/vt/vn).

    Returns 0, which is never a valid reference, for a token that is not an
    integer or does not fit in int64; the caller finds it as out of range
    and re-reads the token for the message.
    """
    try:
        ref = int(token.partition("/")[0])
    except ValueError:
        return 0
    return ref if -(1 << 63) <= ref < (1 << 63) else 0


def _face_ref_error(path: Path, line_no: int, k: int) -> DataFormatError:
    """The error for the k-th vertex token of the face on line line_no."""
    # Tokens are not kept during the scan, so the one failing line is read
    # again; this runs only on the error path.
    with path.open("r", encoding=_ENCODING) as fh:
        raw = next(islice(fh, line_no - 1, None))
    token = raw.split()[1 + k]
    try:
        int(token.partition("/")[0])
    except ValueError:
        return DataFormatError(f"bad face index {token!r}", str(path), line_no)
    return DataFormatError(f"face index {token!r} out of range", str(path), line_no)


def read_obj(path: str | Path) -> MeshModel:
    """Read an ASCII OBJ mesh.

    Vertex positions and faces are parsed; polygonal faces are fan
    triangulated in file order.  A negative face reference counts back from
    the vertices defined before its face.  Normal records are kept verbatim
    so they can be written back out, but nothing updates them.

    The ``v`` and ``f`` records are parsed in C (``_read_obj_columns``); a
    file that parse cannot promise the line loop's result for (tabs, lone
    CRs, non-ASCII bytes, a malformed record, a bad reference, ...) is read
    line by line instead, with the same mesh and errors.

    Errors are raised in this order: a malformed vertex or a face with
    fewer than 3 vertices (first in the file), then a file without
    vertices, then the first bad or out-of-range face index in face order.

    Raises:
        DataFormatError: On malformed vertex or face records, with file and
            line number.
    """
    path = Path(path)
    with path.open("rb") as fh:
        records = _read_obj_columns(fh)
    mesh = None if records is None else _obj_mesh(path, *records)
    return mesh if mesh is not None else _obj_mesh(path, *_read_obj_lines(path))


# Bytes _read_obj_columns parses: printable ASCII and "\n" (a CR before it
# is dropped).  Any other byte (a tab, another control character, a lone
# CR, DEL, non-ASCII) sends the file to the line loop, which splits at any
# Unicode whitespace.
_OBJ_PLAIN = bytes(range(0x20, 0x7f)) + b"\n"
_V, _F, _N, _SLASH, _SPACE, _LF = b"vfn/ \n"


def _read_obj_columns(fh) -> tuple | None:
    """read_obj's records, parsed in C a bounded chunk of lines at a time.

    fh is a binary file at its start.  Returns the vertices as an (N, 3)
    float64 array, and the faces' raw references (concatenated), vertex
    counts, vertices defined before each face, and the ``vn`` lines; or
    None whenever the line loop might read the file otherwise or fail on
    it: a byte outside _OBJ_PLAIN, a line that starts with a space, a bare
    ``v`` or ``f``, a face with fewer than 3 vertices, a vertex field
    np.loadtxt cannot parse (an empty one, from two spaces in a row,
    included), a face reference np.fromstring cannot parse, face lines
    that give fewer references than they hold spaces, or no vertices.  The
    caller then reruns the loop, which alone words errors and numbers
    lines.

    Each chunk's ``v`` lines go to one np.loadtxt call, and its ``f``
    lines to one np.fromstring call once each token is cut at its first
    "/" and each ``f`` tag is blanked; other lines are skipped, ``vn``
    ones kept.
    """
    coords, refs, counts, face_nv, normal_lines = [], [], [], [], []
    n_vertices = 0
    data = fh.read(_COLUMN_CHUNK) + fh.readline()
    data = data.removeprefix(b"\xef\xbb\xbf")
    while data:
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n")
        if not data.endswith(b"\n"):
            data += b"\n"
        if data.translate(None, _OBJ_PLAIN) or data[0] == _SPACE or b"\n " in data:
            return None
        text = np.frombuffer(data, dtype=np.uint8)
        ends = np.flatnonzero(text == _LF) + 1     # each line's "\n" included
        starts = np.concatenate(([0], ends[:-1]))
        tag = text[starts]
        after = text[np.minimum(starts + 1, len(text) - 1)]
        if (((tag == _V) | (tag == _F)) & (after == _LF)).any():
            return None
        is_vertex = (tag == _V) & (after == _SPACE)
        is_face = (tag == _F) & (after == _SPACE)
        try:
            if is_vertex.any():
                coords.append(np.loadtxt(
                    io.BytesIO(_joined(data, starts, ends, is_vertex)),
                    delimiter=" ", usecols=(1, 2, 3), ndmin=2, comments=None,
                    encoding="ascii"))
            if is_face.any():
                spaces = np.flatnonzero(text == _SPACE)
                n_refs = (np.searchsorted(spaces, ends[is_face])
                          - np.searchsorted(spaces, starts[is_face]))
                if n_refs.min() < 3:
                    return None
                lines = _cut_at_slash(_joined(data, starts, ends, is_face))
                # A line gives no more values than it holds spaces, and a
                # doubled or trailing space or an empty "/2" token gives
                # fewer.  Unlike int(), a lone "+" or "-" reads as 0 or as
                # the next value's sign, and a reference past int64 as
                # 2**63 - 1: short or out of range, for the line loop to word.
                # NumPy 2 raises on any other byte; NumPy 1.x instead warns
                # and keeps what it read, which can match the count when the
                # bad token is the last one ("f 1 2 1_0" as 1 2 1), so the
                # warning is raised too.
                with warnings.catch_warnings():
                    warnings.simplefilter("error", DeprecationWarning)
                    refs.append(np.fromstring(b" " + lines[1:].replace(b"\nf", b"\n "),
                                              dtype=np.int64, sep=" "))
                if len(refs[-1]) != n_refs.sum():
                    return None
                counts.append(n_refs)
                face_nv.append(n_vertices + np.cumsum(is_vertex)[is_face])
        except (ValueError, DeprecationWarning):
            return None
        third = text[np.minimum(starts + 2, len(text) - 1)]
        is_normal = (tag == _V) & (after == _N) & ((third == _SPACE) | (third == _LF))
        normal_lines += [data[a:b].decode("ascii").strip() for a, b in
                         zip(starts[is_normal].tolist(), ends[is_normal].tolist())]
        n_vertices += int(np.count_nonzero(is_vertex))
        data = fh.read(_COLUMN_CHUNK) + fh.readline()
    if not coords:
        return None
    return (np.concatenate(coords),
            *(np.concatenate(column) if column else np.zeros(0, dtype=np.int64)
              for column in (refs, counts, face_nv)),
            normal_lines)


def _joined(data: bytes, starts: np.ndarray, ends: np.ndarray,
            take: np.ndarray) -> bytes:
    """The lines data[starts[i]:ends[i]] where take[i] is true, joined.

    Each run of taken lines is one slice.
    """
    edges = np.flatnonzero(np.diff(take, prepend=False, append=False))
    return b"".join([data[a:b] for a, b in zip(starts[edges[::2]].tolist(),
                                                ends[edges[1::2] - 1].tolist())])


def _cut_at_slash(data: bytes) -> bytes:
    """Lines of space-separated tokens, each token cut at its first "/".

    This is ``t.partition("/")[0]`` per token: v/vt/vn, v//vn and v/vt
    become v.
    """
    if b"/" not in data:
        return data
    text = np.frombuffer(data, dtype=np.uint8)
    is_slash = text == _SLASH
    # int32 counts are exact below 2**31 bytes, and half the work of int64
    slashes = np.cumsum(is_slash, dtype=np.int32 if len(text) < 1 << 31 else np.int64)
    # the slash count at the last space or line end at or before each byte
    # (no other byte at or below a space reaches here)
    at_break = np.where(text <= _SPACE, slashes, 0)
    np.maximum.accumulate(at_break, out=at_break)
    return text[slashes == at_break].tobytes()


def _read_obj_lines(path: Path) -> tuple:
    """read_obj's records by a loop over the lines, one split() per line.

    Returns what _read_obj_columns returns, and each face's line number.
    Raises DataFormatError on a malformed vertex, a face with fewer than 3
    vertices, or no vertices.
    """
    coords = array("d")        # x, y, z per vertex
    refs = array("q")          # raw face vertex references, faces concatenated
    counts = array("q")        # vertices per face
    face_nv = array("q")       # vertices defined before each face
    face_lines = array("q")    # line number per face
    normal_lines: list[str] = []
    with path.open("r", encoding=_ENCODING) as fh:
        for line_no, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts:
                continue
            tag = parts[0]
            if tag == "v":
                if len(parts) < 4:
                    raise DataFormatError("vertex needs 3 coordinates", str(path), line_no)
                try:
                    coords.extend((float(parts[1]), float(parts[2]), float(parts[3])))
                except ValueError:
                    raise DataFormatError(f"bad vertex {raw.strip()!r}", str(path),
                                          line_no) from None
            elif tag == "f":
                if len(parts) < 4:
                    raise DataFormatError("face needs >= 3 vertices", str(path), line_no)
                start = len(refs)
                try:
                    refs.extend([int(t.partition("/")[0]) for t in parts[1:]])
                except (ValueError, OverflowError):
                    del refs[start:]
                    refs.extend([_face_ref(t) for t in parts[1:]])
                counts.append(len(parts) - 1)
                face_nv.append(len(coords) // 3)
                face_lines.append(line_no)
            elif tag == "vn":
                normal_lines.append(raw.strip())
    if not coords:
        raise DataFormatError("no vertices found", str(path))
    return (np.frombuffer(coords, dtype=np.float64).reshape(-1, 3),
            *(np.frombuffer(column, dtype=np.int64)
              for column in (refs, counts, face_nv)),
            normal_lines, face_lines)


def _obj_mesh(path: Path, vertices: np.ndarray, refs: np.ndarray,
              counts: np.ndarray, face_nv: np.ndarray, normal_lines: list[str],
              face_lines: array | None = None) -> MeshModel | None:
    """The mesh of read_obj's records: references resolved, faces fanned.

    A reference out of range raises its DataFormatError when face_lines
    numbers the faces, and returns None when it does not (the column
    parse, which leaves the error to the line loop).
    """
    face_start = np.cumsum(counts) - counts
    # References are 1-based, and negative ones count back from the vertices
    # defined before their face.
    index = refs - 1
    back = np.flatnonzero(refs < 0)
    if len(back):
        index[back] = refs[back] + face_nv[np.searchsorted(face_start, back,
                                                           side="right") - 1]
    bad = (index < 0) | (index >= len(vertices))
    if bad.any():
        if face_lines is None:
            return None
        pos = int(bad.argmax())
        face = int(np.searchsorted(face_start, pos, side="right")) - 1
        raise _face_ref_error(path, face_lines[face], pos - int(face_start[face]))
    # Fan triangulation: face (i0, i1, ..., in) gives (i0, ik, ik+1), k = 1..n-1.
    # Over all faces in order, the ik are every reference but each face's
    # first and last, and the ik+1 every one but its first two.
    faces = np.empty((int(counts.sum()) - 2 * len(counts), 3), dtype=np.int64)
    faces[:, 0] = np.repeat(index[face_start], counts - 2)
    take = np.ones(len(index), dtype=bool)
    take[face_start] = take[face_start + counts - 1] = False
    faces[:, 1] = index[take]
    take[face_start + counts - 1], take[face_start + 1] = True, False
    faces[:, 2] = index[take]
    return MeshModel(vertices=vertices, faces=faces, provenance=str(path),
                     normal_lines=tuple(normal_lines))


def _write_rows(fh, row_format: str, rows: np.ndarray) -> None:
    """Write each row of a 2-D array through row_format, one `%` per chunk."""
    chunk_format = row_format * _CHUNK_ROWS
    for start in range(0, len(rows), _CHUNK_ROWS):
        block = rows[start:start + _CHUNK_ROWS]
        fmt = chunk_format if len(block) == _CHUNK_ROWS else row_format * len(block)
        fh.write(fmt % tuple(block.ravel().tolist()))


def write_obj(mesh: MeshModel, path: str | Path) -> None:
    """Write a mesh as ASCII OBJ (vertices, passthrough normals, faces).

    Coordinates are written with ``repr``, faces as 1-based triangles.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        _write_rows(fh, "v %r %r %r\n", mesh.vertices)
        fh.writelines(line + "\n" for line in mesh.normal_lines)
        _write_rows(fh, "f %d %d %d\n", mesh.faces + 1)


_POINT_DTYPE = np.dtype([("x", np.float64), ("y", np.float64), ("z", np.float64)])


def read_points_csv(path: str | Path) -> np.ndarray:
    """Read an (N, 3) point array from a CSV with header x,y,z (meters).

    The rows are parsed in C (``_column_chunks``) into a C-contiguous
    array; a file that parse cannot promise the row loop's result for
    (quoted fields, a header spelled otherwise, a malformed row, ...) is
    read row by row instead, with the same values and errors.
    """
    path = Path(path)
    try:
        with path.open("rb") as fh:
            chunks = [rows.view(np.float64).reshape(-1, 3) for rows
                      in _column_chunks(fh, "x,y,z", _POINT_DTYPE)]
    except ValueError:  # UnicodeDecodeError included
        chunks = []
    return np.concatenate(chunks) if chunks else _read_point_rows(path)


def _read_point_rows(path: Path) -> np.ndarray:
    """read_points_csv by a csv.reader row loop, one float() per field."""
    coords = array("d")
    records = _csv_records(path)
    if [h.strip().lower() for h in next(records)[:3]] != ["x", "y", "z"]:
        raise DataFormatError("expected header x,y,z", str(path), 1)
    for line_no, row in records:
        try:
            coords.extend((float(row[0]), float(row[1]), float(row[2])))
        except (ValueError, IndexError):
            raise DataFormatError(f"bad point row {row!r}", str(path),
                                  line_no) from None
    if not coords:
        raise DataFormatError("no points found", str(path))
    return np.frombuffer(coords, dtype=np.float64).reshape(-1, 3)


def write_points_csv(points: np.ndarray, path: str | Path) -> None:
    """Write an (N, 3) point array as CSV with header x,y,z (meters).

    Values are written with ``repr`` and lines end in ``\\r\\n``, as
    ``csv.writer`` writes them.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"points must be (N, 3), got shape {points.shape}")
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write("x,y,z\r\n")
        _write_rows(fh, "%r,%r,%r\r\n", points)

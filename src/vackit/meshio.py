"""Mesh and point-cloud file I/O: ASCII OBJ and xyz CSV.

The OBJ reader parses its ``v`` records in C with ``np.loadtxt`` and its
``f`` records with ``np.fromstring``, a chunk of ``_line_chunks`` at a
time (``_read_obj_columns``), resolving and fan-triangulating each chunk's
faces straight into a vertex and a face array that a counting pass sized
before the parse; it reruns a loop over the lines whenever that might not
give the loop's mesh or error.  The three CSV readers, points here,
trajectories in ``kinematics`` and outcomes in ``fitting``, parse their
rows in C through one chunk parser over the same chunks
(``_column_chunks``), text fields as whole Python strings, and rerun a
loop over ``_csv_records`` likewise.
Writers format ``_CHUNK_ROWS`` rows per ``%`` operation, ``write_obj``
making each block of faces 1-based as it goes.  A read holds the arrays
it returns plus one chunk's working set, with no Python object per
record, and a write one block's.
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

from .correction import MeshModel, _face_dtype
from .errors import DataFormatError

__all__ = ["read_obj", "write_obj", "read_points_csv", "write_points_csv"]

# Rows formatted per write; bounds the Python objects alive at once.
_CHUNK_ROWS = 4096

# A UTF-8 byte-order mark, if present, is not part of the first record.
_ENCODING = "utf-8-sig"

# Size hint, in bytes, of the chunks every reader parses.  Reading 576
# trials of 221 samples (12.4 MB) peaks 1.9 MiB above the output here
# (tracemalloc), 6.2 MiB at 1 MiB, in the same time; a 300 x 300 quad OBJ
# grid 1.7 MiB above its 6.2 MiB mesh.
_COLUMN_CHUNK = 1 << 18
# Characters that send a CSV reader to its row loop: a quote (csv fields),
# NUL (csv refuses it before Python 3.11), and the ASCII separators U+001C
# to U+001F, which np.loadtxt strips from a number as space and float()
# does not.
_ROW_LOOP_ONLY = '"\0\x1c\x1d\x1e\x1f'
# A CR not followed by LF, which a csv.reader takes for a line end.
_LONE_CR = re.compile("\r(?!\n)")


def _line_chunks(fh) -> Iterator[bytes]:
    """A binary file's bytes, about _COLUMN_CHUNK at a time, each chunk but
    the last ending in b"\\n".  A leading UTF-8 BOM is skipped at the call;
    each chunk is read when asked for, and not kept."""
    if fh.read(3) != b"\xef\xbb\xbf":
        fh.seek(0)
    return iter(lambda: fh.read(_COLUMN_CHUNK) + fh.readline(), b"")


def _row_bound(fh) -> int:
    """The lines but the first of a binary file at its start, from its b"\\n"
    bytes with no parse: a bound on the rows of _column_chunks (fh rewound).
    The count needs no line-aligned chunks, and a BOM holds no line end."""
    lines, last = 0, b""
    for data in iter(lambda: fh.read(_COLUMN_CHUNK), b""):
        # a fifth of bytes.count's time
        lines += np.count_nonzero(np.frombuffer(data, dtype=np.uint8) == _LF)
        last = data[-1:]
    fh.seek(0)
    return lines - (last == b"\n")


def _csv_records(path: Path) -> Iterator:
    """A CSV file's header row ([] for an empty file), then (line, row) for
    each non-blank row, line being the physical line the row ends on, so
    blank lines and quoted newlines count."""
    with path.open("r", encoding=_ENCODING, newline="") as fh:
        reader = csv.reader(fh)
        try:
            yield next(reader, [])
            for row in reader:
                if row:
                    yield reader.line_num, row
        except csv.Error as exc:  # a NUL before Python 3.11, a long field
            raise DataFormatError(str(exc), str(path), reader.line_num) from None


def _column_chunks(fh, header: str, dtype: np.dtype) -> Iterator[np.ndarray]:
    """The rows of a plain CSV after its header, parsed in C, as one
    structured array of dtype per chunk of about _COLUMN_CHUNK bytes.

    fh is a binary file at its start, whose first line must be header plus
    a line end.  Each field of dtype is taken from the header column of
    the same name; an object field keeps its text whole, as a csv.reader
    splits an unquoted field.  A chunk of blank lines only is skipped.
    Raises ValueError whenever the rows might differ from what a
    csv.reader loop would read: another first line, undecodable bytes, a
    chunk holding a character of _ROW_LOOP_ONLY, a lone CR or a line
    longer than csv's field limit, or a row np.loadtxt cannot parse.  The
    caller then reruns its row loop, which alone words errors and numbers
    lines.
    """
    chunks = _line_chunks(fh)
    if fh.readline() not in (header.encode() + b"\r\n", header.encode() + b"\n"):
        raise ValueError("needs the row loop")
    names = header.split(",")
    usecols = [names.index(name) for name in dtype.names]
    limit = csv.field_size_limit()
    for text in map(bytes.decode, chunks):    # UTF-8, bytes not kept
        if any(c in text for c in _ROW_LOOP_ONLY) or _LONE_CR.search(text):
            raise ValueError("needs the row loop")
        if not text.strip("\r\n"):
            continue
        lines = text.split("\n")
        if not lines[-1]:
            lines.pop()
        if len(text) > limit and _may_hold_a_long_line(text, limit) \
                and max(map(len, lines)) > limit:
            raise ValueError("needs the row loop")
        yield np.loadtxt(lines, dtype=dtype, delimiter=",", usecols=usecols,
                         comments=None, ndmin=1)


def _may_hold_a_long_line(text: str, limit: int) -> bool:
    """False when every window of limit // 2 characters holds a "\n", so
    that no line of text is longer than limit: one find per window, where
    the exact scan measures every line."""
    half = max(limit // 2, 1)
    return any(text.find("\n", a, a + half) < 0 for a in range(0, len(text), half))


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

    The ``v`` and ``f`` records are parsed in C a chunk at a time
    (``_read_obj_columns``) into one vertex and one face array sized before
    the parse, the faces in the dtype MeshModel keeps (int32 below 2**31
    vertices), so the read holds the mesh plus one chunk's working set.  A
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
    vertices, faces, normal_lines = (_read_obj_lines(path) if records is None
                                     else records)
    return MeshModel(vertices=vertices, faces=faces, provenance=str(path),
                     normal_lines=tuple(normal_lines))


# Bytes _read_obj_columns parses: printable ASCII and "\n" (a CR before it
# is dropped).  Any other byte (a tab, another control character, a lone
# CR, DEL, non-ASCII) sends the file to the line loop, which splits at any
# Unicode whitespace.
_OBJ_PLAIN = bytes(range(0x20, 0x7f)) + b"\n"
_V, _F, _N, _SLASH, _SPACE, _LF = b"vfn/ \n"


def _obj_lines(data: bytes) -> tuple:
    """A chunk with "\r\n" read as "\n" and a final "\n", as uint8, and each
    line's start, end ("\n" included), first and second byte (its "\n" for
    a one-byte line)."""
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
    if not data.endswith(b"\n"):
        data += b"\n"
    text = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(text == _LF) + 1
    starts = np.concatenate(([0], ends[:-1]))
    return (data, text, starts, ends, text[starts],
            text[np.minimum(starts + 1, len(text) - 1)])


def _obj_bound(fh) -> tuple[int, int]:
    """The vertices and triangles of a binary OBJ file at its start, with no
    parse: the lines that start "v ", and the spaces on lines that start
    "f " less two per such line (fh rewound).  A file _read_obj_columns
    accepts has exactly as many."""
    n_vertices = n_triangles = 0
    for data in _line_chunks(fh):
        _, text, starts, ends, tag, after = _obj_lines(data)
        n_vertices += int(np.count_nonzero((tag == _V) & (after == _SPACE)))
        is_face = (tag == _F) & (after == _SPACE)
        if is_face.any():
            n_triangles += int((_spaces(text, starts[is_face], ends[is_face]) - 2).sum())
    fh.seek(0)
    return n_vertices, n_triangles


def _spaces(text: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The spaces on each line text[starts[i]:ends[i]]."""
    spaces = np.flatnonzero(text == _SPACE)
    return np.searchsorted(spaces, ends) - np.searchsorted(spaces, starts)


def _read_obj_columns(fh) -> tuple | None:
    """read_obj's records, parsed in C a bounded chunk of lines at a time.

    fh is a binary file at its start.  Returns the vertices as an (N, 3)
    float64 array, the fanned faces as an (M, 3) array of 0-based indices
    in MeshModel's dtype (int32 for N <= 2**31 - 1), and the ``vn`` lines.
    Both arrays are sized by _obj_bound before the parse, and each chunk's
    faces are resolved and fanned into the face array as they are parsed
    (``_fan``), so the parse holds the two arrays plus one chunk's working
    set.

    Returns None whenever the line loop might read the file otherwise or
    fail on it: a byte outside _OBJ_PLAIN, a line that starts with a
    space, a bare ``v`` or ``f``, a face with fewer than 3 vertices, a
    vertex field np.loadtxt cannot parse (an empty one, from two spaces in
    a row, included), a face reference np.fromstring cannot parse, face
    lines that give fewer references than they hold spaces, a chunk that
    would overfill either array, a reference that resolves before the
    first vertex (0, or counting back too far), a reference past the last
    vertex (checked once at the end, since a positive reference may name a
    vertex defined later), or no vertices.  The caller then reruns the
    loop, which alone words errors and numbers lines.

    Each chunk's ``v`` lines go to one np.loadtxt call, and its ``f``
    lines to one np.fromstring call once each token is cut at its first
    "/" and each ``f`` tag is blanked; other lines are skipped, ``vn``
    ones kept.
    """
    n_vertices, n_triangles = _obj_bound(fh)
    if n_triangles < 0:        # a face of fewer than 3 vertices
        return None
    vertices = np.empty((n_vertices, 3))
    faces = np.empty((n_triangles, 3), dtype=_face_dtype(n_vertices))
    filled_v = filled_f = 0
    top = -1                   # the highest vertex index a face names
    normal_lines = []
    for data in _line_chunks(fh):
        data, text, starts, ends, tag, after = _obj_lines(data)
        if data.translate(None, _OBJ_PLAIN) or data[0] == _SPACE or b"\n " in data:
            return None
        if (((tag == _V) | (tag == _F)) & (after == _LF)).any():
            return None
        is_vertex = (tag == _V) & (after == _SPACE)
        is_face = (tag == _F) & (after == _SPACE)
        new_v = int(np.count_nonzero(is_vertex))
        if filled_v + new_v > n_vertices:
            return None
        try:
            if new_v:
                vertices[filled_v:filled_v + new_v] = np.loadtxt(
                    io.BytesIO(_joined(data, starts, ends, is_vertex)),
                    delimiter=" ", usecols=(1, 2, 3), ndmin=2, comments=None,
                    encoding="ascii")
            if is_face.any():
                counts = _spaces(text, starts[is_face], ends[is_face])
                if counts.min() < 3:
                    return None
                lines = _cut_at_slash(_joined(data, starts, ends, is_face))
                # A line gives no more values than it holds spaces, and a
                # doubled or trailing space or an empty "/2" token gives
                # fewer.  Unlike int(), a lone "+" or "-" reads as 0 or as
                # the next value's sign, and a reference past int64 as
                # 2**63 - 1: short or out of range, for the line loop to word.
                # NumPy 2.4 raises on any other byte; one that only warns
                # (1.x, maybe early 2.x) keeps what it read, which can match
                # the count when the bad token is the last ("f 1 2 1_0" as
                # 1 2 1), so the warning is raised too.
                with warnings.catch_warnings():
                    warnings.simplefilter("error", DeprecationWarning)
                    refs = np.fromstring(b" " + lines[1:].replace(b"\nf", b"\n "),
                                         dtype=np.int64, sep=" ")
                n_fan = len(refs) - 2 * len(counts)
                if len(refs) != counts.sum() or filled_f + n_fan > n_triangles:
                    return None
                index = _fan(refs, counts, filled_v + np.cumsum(is_vertex)[is_face],
                             faces[filled_f:filled_f + n_fan])
                if index.min() < 0:
                    return None
                top = max(top, int(index.max()))
                filled_f += n_fan
        except (ValueError, DeprecationWarning):
            return None
        third = text[np.minimum(starts + 2, len(text) - 1)]
        is_normal = (tag == _V) & (after == _N) & ((third == _SPACE) | (third == _LF))
        normal_lines += [data[a:b].decode("ascii").strip() for a, b in
                         zip(starts[is_normal].tolist(), ends[is_normal].tolist())]
        filled_v += new_v
    if not filled_v or top >= filled_v:
        return None
    return vertices[:filled_v], faces[:filled_f], normal_lines


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
    become v.  Its scratch, about 11 bytes per byte, is for a window of
    _COLUMN_CHUNK // 8 bytes extended to a line end at a time.
    """
    if b"/" not in data:
        return data
    window = max(_COLUMN_CHUNK // 8, 1)
    pieces, start = [], 0
    while start < len(data):
        stop = data.find(b"\n", start + window - 1) + 1 or len(data)
        text = np.frombuffer(data, dtype=np.uint8, count=stop - start, offset=start)
        # int32 counts are exact below 2**31 bytes, and half the work of int64
        slashes = np.cumsum(text == _SLASH,
                            dtype=np.int32 if len(text) < 1 << 31 else np.int64)
        # the slash count at the last space or line end at or before each
        # byte (no other byte at or below a space reaches here)
        at_break = np.where(text <= _SPACE, slashes, 0)
        np.maximum.accumulate(at_break, out=at_break)
        pieces.append(text[slashes == at_break].tobytes())
        start = stop
    return b"".join(pieces)


def _fan(refs: np.ndarray, counts: np.ndarray, face_nv: np.ndarray,
         out: np.ndarray) -> np.ndarray:
    """Resolve faces' references and fan-triangulate the faces into out.

    refs are the 1-based references of faces of counts[i] >= 3 vertices,
    concatenated; a negative one counts back from face_nv[i], the vertices
    defined before its face.  Face (i0, i1, ..., in) gives the triangles
    (i0, ik, ik+1), k = 1..n-1, in face order, so out is an integer array
    of counts.sum() - 2 * len(counts) rows and 3 columns, int32 or int64.
    Returns the 0-based references as int64, for the caller to check
    against the vertices before it keeps out, where a reference past int32
    is wrapped: 0, and a reference that counts back past the first vertex,
    come out negative.
    """
    face_start = np.cumsum(counts) - counts
    index = refs - 1
    back = np.flatnonzero(refs < 0)
    if len(back):
        index[back] = refs[back] + face_nv[np.searchsorted(face_start, back,
                                                           side="right") - 1]
    # Over all faces in order, the ik are every reference but each face's
    # first and last, and the ik+1 every one but its first two.
    out[:, 0] = np.repeat(index[face_start], counts - 2)
    take = np.ones(len(index), dtype=bool)
    take[face_start] = take[face_start + counts - 1] = False
    out[:, 1] = index[take]
    take[face_start + counts - 1], take[face_start + 1] = True, False
    out[:, 2] = index[take]
    return index


def _read_obj_lines(path: Path) -> tuple:
    """read_obj's records by a loop over the lines, one split() per line.

    Returns what _read_obj_columns returns.  Raises DataFormatError on a
    malformed vertex, a face with fewer than 3 vertices, no vertices, or a
    face reference out of range (the first in face order).
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
    vertices = np.frombuffer(coords, dtype=np.float64).reshape(-1, 3)
    refs, counts, face_nv = (np.frombuffer(column, dtype=np.int64)
                             for column in (refs, counts, face_nv))
    faces = np.empty((int(counts.sum()) - 2 * len(counts), 3),
                     dtype=_face_dtype(len(vertices)))
    index = _fan(refs, counts, face_nv, faces)
    bad = (index < 0) | (index >= len(vertices))
    if bad.any():
        pos = int(bad.argmax())
        face_start = np.cumsum(counts) - counts
        face = int(np.searchsorted(face_start, pos, side="right")) - 1
        raise _face_ref_error(path, face_lines[face], pos - int(face_start[face]))
    return vertices, faces, normal_lines


def _write_rows(fh, row_format: str, rows: np.ndarray, offset: int = 0) -> None:
    """Write each row of a 2-D array through row_format, one `%` per chunk,
    offset added to each chunk that is written (not to the array)."""
    chunk_format = row_format * _CHUNK_ROWS
    for start in range(0, len(rows), _CHUNK_ROWS):
        block = rows[start:start + _CHUNK_ROWS]
        if offset:
            block = block + offset
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
        _write_rows(fh, "f %d %d %d\n", mesh.faces, offset=1)


_POINT_DTYPE = np.dtype([("x", np.float64), ("y", np.float64), ("z", np.float64)])


def read_points_csv(path: str | Path) -> np.ndarray:
    """Read an (N, 3) point array from a CSV with header x,y,z (meters).

    The rows are parsed in C (``_column_chunks``) into one C-contiguous
    array sized before the parse; a file that parse cannot promise the row
    loop's result for (quoted fields, another header, a bad row, ...) is
    read row by row instead, with the same values and errors.
    """
    points = _read_point_columns(Path(path))
    return _read_point_rows(Path(path)) if points is None else points


def _read_point_columns(path: Path) -> np.ndarray | None:
    """read_points_csv's points parsed in C, or None (nothing filled kept)."""
    try:
        with path.open("rb") as fh:
            points, end = np.empty((_row_bound(fh), 3)), 0
            for rows in _column_chunks(fh, "x,y,z", _POINT_DTYPE):
                points[end:end + len(rows)] = rows.view(np.float64).reshape(-1, 3)
                end += len(rows)
    except ValueError:  # UnicodeDecodeError included
        return None
    return points[:end] if end else None


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

"""Mesh and point-cloud file I/O: ASCII OBJ and xyz CSV.

Readers stream the file line by line into flat ``array`` buffers and turn
them into numpy arrays once; writers format ``_CHUNK_ROWS`` rows per
``%`` operation.  Memory stays O(vertices + faces) in arrays, with no
Python object per record.
"""

from __future__ import annotations

import csv
from array import array
from itertools import islice
from pathlib import Path

import numpy as np

from .correction import MeshModel
from .errors import DataFormatError

__all__ = ["read_obj", "write_obj", "read_points_csv", "write_points_csv"]

# Rows formatted per write; bounds the Python objects alive at once.
_CHUNK_ROWS = 4096

# A UTF-8 byte-order mark, if present, is not part of the first record.
_ENCODING = "utf-8-sig"


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
    triangulated in file order.  Normal records are kept verbatim so they
    can be written back out, but nothing updates them.

    Errors are raised in this order: a malformed vertex or a face with
    fewer than 3 vertices (first in the file), then a file without
    vertices, then the first bad or out-of-range face index in face order.

    Raises:
        DataFormatError: On malformed vertex or face records, with file and
            line number.
    """
    path = Path(path)
    coords = array("d")        # x, y, z per vertex
    refs = array("q")          # raw face vertex references, faces concatenated
    counts = array("q")        # vertices per face
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
                face_lines.append(line_no)
            elif tag == "vn":
                normal_lines.append(raw.strip())
    if not coords:
        raise DataFormatError("no vertices found", str(path))
    n_vertices = len(coords) // 3
    refs_np = np.frombuffer(refs, dtype=np.int64)
    # Negative references count back from the last vertex; others are 1-based.
    index = np.where(refs_np < 0, refs_np + n_vertices, refs_np - 1)
    bad = (index < 0) | (index >= n_vertices)
    counts_np = np.frombuffer(counts, dtype=np.int64)
    face_start = np.cumsum(counts_np) - counts_np
    if bad.any():
        pos = int(bad.argmax())
        face = int(np.searchsorted(face_start, pos, side="right")) - 1
        raise _face_ref_error(path, face_lines[face], pos - int(face_start[face]))
    # Fan triangulation: face (i0, i1, ..., in) gives (i0, ik, ik+1), k = 1..n-1.
    n_tri = counts_np - 2
    tri_start = np.repeat(face_start, n_tri)
    k = np.arange(int(n_tri.sum())) - np.repeat(np.cumsum(n_tri) - n_tri, n_tri)
    faces = np.stack([index[tri_start], index[tri_start + k + 1],
                      index[tri_start + k + 2]], axis=1)
    return MeshModel(
        vertices=np.frombuffer(coords, dtype=np.float64).reshape(-1, 3),
        faces=faces,
        provenance=str(path),
        normal_lines=tuple(normal_lines),
    )


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


def read_points_csv(path: str | Path) -> np.ndarray:
    """Read an (N, 3) point array from a CSV with header x,y,z (meters)."""
    path = Path(path)
    coords = array("d")
    with path.open("r", encoding=_ENCODING, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:3]] != ["x", "y", "z"]:
            raise DataFormatError("expected header x,y,z", str(path), 1)
        for row in reader:
            if not row:
                continue
            try:
                coords.extend((float(row[0]), float(row[1]), float(row[2])))
            except (ValueError, IndexError):
                # line_num is the physical line the record ends on
                raise DataFormatError(f"bad point row {row!r}", str(path),
                                      reader.line_num) from None
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

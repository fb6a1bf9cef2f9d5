"""The columnar readers against their row loops.

``read_trajectories_csv``, ``read_points_csv`` and ``FitDataset.from_csv``
parse their rows in C through one chunk parser (``meshio._column_chunks``);
each reruns a ``csv.reader`` row loop whenever that might not give the
loop's result.
``read_obj`` parses its ``v`` and ``f`` records in C
(``meshio._read_obj_columns``) and reruns its line loop likewise.
Whatever the input, each reader must return exactly what its row loop
alone returns: the same ids, order, sample rates, rejections, participant
codes, faces, normal lines and array bits, or the same error with the
same message and line.  The fast path must also really run on the files
the package writes, and hold no more than its output plus a few chunks.
"""

from __future__ import annotations

import io
import json
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import vackit.correction as correction
import vackit.fitting as fitting
import vackit.kinematics as kin
import vackit.meshio as meshio
import vackit.synth as synth
from vackit.cli import main
from vackit.fitting import FitDataset
from vackit.kinematics import OUTCOME_HEADER, read_trajectories_csv
from vackit.correction import MeshModel, transform_points
from vackit.geometry import EyeGeometry
from vackit.perception import PerturbationParams
from vackit.meshio import read_obj, read_points_csv, write_obj, write_points_csv
from vackit.synth import (
    SimConfig,
    generate_participants,
    generate_trajectories,
    generate_trials,
    write_dataset,
)

PROPERTY_SETTINGS = settings(
    max_examples=250, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])

# Float spellings where float() and a C parser could part ways: underscores,
# padding, special values, overflow, hex, comment marks, non-ASCII digits
# and spaces, control characters, an empty field.
SPELLINGS = ["1_0", " 1.5 ", "nan", "-nan", "NaN", "-Infinity", "inf", "1e400",
             "-1e400", "1e-400", "5e-324", "0x1p3", "#1", "\u0661", "\uff11.5",
             "", " ", "-0.0", "+.5", "1.", ".", "1e", "\t2\x0c", "3\u2028",
             "4\x85", "\u00a05", "6\x1c", "\x1d7", "8\x1e", "9\x1f", "1\x00",
             "true", "1,5"]
# Ids csv.writer writes as they are, and ids it quotes (comma, quote,
# line break) or the fast path leaves to the row loop (NUL).
PLAIN_IDS = ["a", "b", "p0-t1", "", " lead", "\u00fc"]
IDS = ["a,b", 'say "hi"', "two\nlines", "c\r", "nul\x00"]
# Long ids, ASCII and not: the fast path keeps each whole, as a Python
# string, and quotes or a comma still send the file to the row loop.
LONG_IDS = ["i" * 31, "i" * 32, "\u00fc" * 33, "i" * 31 + ",", "i" * 200]
CHUNKS = [1, 60, 1 << 20]      # bytes per chunk: one line, a few, all


def _field(text: str) -> str:
    """text as csv.writer writes it: quoted only when it must be."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def _edited(draw, rows: list[list[str]], first: int) -> list[list[str]]:
    """rows with a few edits: odd spellings, blank, short, long or quoted
    rows, and swapped rows (interleaved ids, non-increasing timestamps)."""
    rows = [list(row) for row in rows]
    edits = draw(st.lists(st.sampled_from(
        ["spelling", "spelling", "blank", "short", "extra", "quote", "swap"]),
        max_size=2))
    for edit in edits:
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        if len(rows[i]) <= first:
            continue
        k = draw(st.integers(first, len(rows[i]) - 1))
        if edit == "spelling":
            rows[i][k] = draw(st.sampled_from(SPELLINGS))
        elif edit == "blank":
            rows.insert(i, [])
        elif edit == "short":
            rows[i] = rows[i][:k]
        elif edit == "extra":
            rows[i] += draw(st.sampled_from([[""], ["9"], ["x", '"q,r"']]))
        elif edit == "quote":
            rows[i][k] = '"' + rows[i][k] + '"'
        else:
            j = draw(st.integers(0, len(rows) - 1))
            rows[i], rows[j] = rows[j], rows[i]
    return rows


def _rarely(draw) -> bool:
    """True one time in five: each hazard alone would send most files to
    the row loop, and the fast path needs examples too."""
    return draw(st.sampled_from([False] * 4 + [True]))


@st.composite
def _csv_bytes(draw, header: str, headers: list[str], rows: list[list[str]]
               ) -> bytes:
    """The file's bytes: a header, the rows, LF or CRLF line ends and
    rarely a lone CR, a BOM, an unterminated last line or an undecodable
    byte."""
    lines = [draw(st.sampled_from(headers)) if _rarely(draw) else header]
    lines += [",".join(row) for row in rows]
    endings = [draw(st.sampled_from(["\n", "\r\n"]))] * len(lines)
    if _rarely(draw):
        i = draw(st.integers(0, len(lines) - 1))
        endings[i] = draw(st.sampled_from(["\n", "\r\n", "\r", "\r\r\n"]))
    if draw(st.booleans()):
        endings[-1] = ""
    text = "".join(line + end for line, end in zip(lines, endings))
    if _rarely(draw):
        text = "\ufeff" + text
    data = text.encode("utf-8")
    if _rarely(draw):
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


@st.composite
def trajectory_files(draw) -> bytes:
    rows = []
    for _ in range(draw(st.integers(0, 3))):
        pool = draw(st.sampled_from([IDS, LONG_IDS])) if _rarely(draw) \
            else PLAIN_IDS
        trial_id = _field(draw(st.sampled_from(pool)))
        n = draw(st.sampled_from([1, 2, kin.MIN_SAMPLES, kin.MIN_SAMPLES + 2]))
        t0 = draw(st.sampled_from([0.0, 0.5, 1e3]))
        rate = draw(st.sampled_from([250.0, 100.0]))
        x = repr(draw(st.floats(-1.0, 1.0)))
        rows += [[trial_id, repr(t0 + i / rate), x, "0.0", repr(1e-3 * i)]
                 for i in range(n)]
    return draw(_csv_bytes(
        "trial_id,t,x,y,z",
        ["trial_id, t,x,y,z", "trial_id,t,x,y,z,w", "id,t,x,y,z",
         '"trial_id",t,x,y,z', "trial_id,t,x,y", ""],
        draw(_edited(rows, 1))))


@st.composite
def points_files(draw) -> bytes:
    rows = [[repr(draw(st.floats())) for _ in range(3)]
            for _ in range(draw(st.integers(0, 6)))]
    return draw(_csv_bytes(
        "x,y,z", ["X, Y ,Z", "x,y,z,w", "x,y,z ", "x,y", "a,b,c", '"x",y,z', ""],
        draw(_edited(rows, 0))))


# Participant ids, conditions and reaches: plain, padded or non-ASCII, and
# (rarely drawn) long enough that the column parse leaves the file to the
# row loop.
OUTCOME_IDS = ["p0", "p1", "p10", " p2", "\u00fcp"]
CONDITIONS = ["original", "transformed"]
REACHES = ["0.2", "0.25", " 0.3", "1e-3"]
LONG = {"pid": "p" * 16, "condition": "c" * 16, "reach": "0.30000000000000004"}
VALID = ["1", "1", "1", "", "0", "true", " 1", "10"]


@st.composite
def outcome_files(draw) -> bytes:
    """Outcomes files: every id under each condition, as a concatenated
    cohort repeats them; rejected rows with empty numbers; other valid
    values; odd spellings, blank, short, long, quoted or swapped rows; and
    rarely a reordered or repeated header column."""
    pids = draw(st.lists(st.sampled_from(OUTCOME_IDS), min_size=1, max_size=3,
                         unique=True))
    conditions = draw(st.lists(st.sampled_from(CONDITIONS), min_size=1,
                               max_size=2, unique=True))
    reaches = list(REACHES)
    if _rarely(draw):
        pids[0], conditions[0], reaches[0] = draw(st.sampled_from([
            (LONG["pid"], conditions[0], reaches[0]),
            (pids[0], LONG["condition"], reaches[0]),
            (pids[0], conditions[0], LONG["reach"])]))
    rows = []
    for condition in conditions:
        for pid in pids:
            if _rarely(draw):
                pid = _field(draw(st.sampled_from(IDS)))
            for reach in draw(st.lists(st.sampled_from(reaches), min_size=1,
                                       max_size=2)):
                for rep in range(draw(st.integers(1, 3))):
                    valid = draw(st.sampled_from(VALID))
                    if valid in ("1", ""):
                        error = repr(draw(st.floats(-0.05, 0.05)))
                        measures = [error, error, error, error]
                        reason = ""
                    else:
                        # analyze leaves a rejected row's numbers empty;
                        # another writer may not
                        error = draw(st.sampled_from(
                            ["", repr(draw(st.floats(-0.05, 0.05)))]))
                        measures, reason = [error, error, error, error], "slow"
                    rows.append([f"{pid}-{condition}-{reach}-{rep}", pid,
                                 condition, reach, valid, reason, "", "",
                                 *measures])
    header = list(OUTCOME_HEADER)
    if _rarely(draw):
        order = draw(st.permutations(range(len(header))))
        header = [header[k] for k in order]
        rows = [[row[k] for k in order] for row in rows]
    if _rarely(draw):
        # a second distance_error_m column: the last one wins
        header.append("distance_error_m")
        rows = [row + [draw(st.sampled_from(["-0.01", "", "x"]))]
                for row in rows]
    return draw(_csv_bytes(
        ",".join(header),
        ["participant_id,condition,target_reach_m,valid",
         ",".join(OUTCOME_HEADER).replace("valid", "valid ")],
        draw(_edited(rows, 1))))


# Face tokens int() and a C parser could read apart: a sign, a lone sign,
# an underscore, a non-ASCII digit, a float, a ref beyond int64 (2**64 + 1
# reads as 1 if the parse wraps), an empty vertex part, a comment mark, a
# trailing letter.
FACE_SPELLINGS = ["+5", "+", "-", "1_0", "\u0663", "1" * 23, "-" + "9" * 22,
                  "18446744073709551617", "1.0", "0", "-0", "/2", "", "#1",
                  "0x1", "1f", "2\u2028", "3\x85"]
OTHER_LINES = ["vt 0.5 0.5", "g part", "o object", "usemtl skin", "# note",
               "vn 0 0 1", "vn 0.0 -1.0 0.0 ", "", "s off", "vnx 1", "vn"]
# Line hazards: tabs and other whitespace splitting alone accepts, double,
# leading and trailing spaces, and line breaks str.splitlines() knows but
# the file iterator does not.
LINE_HAZARDS = ["\t", "  ", "\x0b", "\x0c", "\x1c", "\u2028", "\x85",
                "\u00a0"]


@st.composite
def _obj_line(draw, kind: str, n_vertices: int, n_total: int) -> str:
    """One well-formed v, f or other line, given the vertices before it and
    in the whole file; rarely a face names vertices defined after it."""
    if kind == "v":
        n_fields = draw(st.sampled_from([3, 3, 3, 4, 6]))
        return "v " + " ".join(repr(draw(st.floats())) for _ in range(n_fields))
    top = n_total if _rarely(draw) else n_vertices
    if kind == "f" and top:
        tokens = []
        for _ in range(draw(st.sampled_from([3, 4, 5]))):
            ref = draw(st.integers(1, top))
            if ref <= n_vertices and draw(st.booleans()):
                ref -= n_vertices + 1   # the same vertex, counted back
            style = draw(st.sampled_from(["{}", "{}/1", "{}//1", "{}/1/1"]))
            tokens.append(style.format(ref))
        return "f " + " ".join(tokens)
    return draw(st.sampled_from(OTHER_LINES))


def _edit_obj_line(draw, line: str, n_vertices: int, n_total: int) -> str:
    """line with one fault or hazard the fast path must leave to the loop,
    or read as the loop does."""
    edit = draw(st.sampled_from(["spelling", "spelling", "bare", "short",
                                 "range", "lead", "trail", "hazard"]))
    tag, _, rest = line.partition(" ")
    fields = rest.split(" ")
    if edit == "spelling" and tag in ("v", "f") and rest:
        k = draw(st.integers(0, min(len(fields), 3) - 1))
        fields[k] = draw(st.sampled_from(SPELLINGS if tag == "v" else FACE_SPELLINGS))
    elif edit == "bare":
        return draw(st.sampled_from(["v", "f"]))
    elif edit == "short" and tag == "f":
        fields = fields[:2]
    elif edit == "range" and tag == "f":
        fields[0] = str(draw(st.sampled_from([n_total + 1, -n_vertices - 1])))
    elif edit == "lead":
        return " " + line
    elif edit == "trail":
        return line + " "
    elif edit == "hazard":
        return line.replace(" ", draw(st.sampled_from(LINE_HAZARDS)), 1)
    return " ".join([tag, *fields]) if rest else line


@st.composite
def obj_files(draw) -> bytes:
    """OBJ files: interleaved v, f and other lines, faces of 3 to 5
    vertices in each token form, with positive and negative references,
    and rarely positive references to vertices defined later; a few
    faults or hazards (a spelling, a bare tag, a 2-vertex face, an
    out-of-range reference, odd whitespace); LF or CRLF line ends and
    rarely a lone CR, a BOM or an undecodable byte."""
    kinds = draw(st.lists(st.sampled_from(["v", "v", "v", "f", "f", "other"]),
                          max_size=30))
    lines, before, n_vertices = [], [], 0
    for kind in kinds:
        lines.append(draw(_obj_line(kind, n_vertices, kinds.count("v"))))
        before.append(n_vertices)
        n_vertices += kind == "v"
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if lines else 0):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = _edit_obj_line(draw, lines[i], before[i], n_vertices)
    endings = [draw(st.sampled_from(["\n", "\r\n"]))] * len(lines)
    if lines and _rarely(draw):
        i = draw(st.integers(0, len(lines) - 1))
        endings[i] = draw(st.sampled_from(["\n", "\r\n", "\r", "\r\r\n"]))
    if lines and draw(st.booleans()):
        endings[-1] = ""
    text = "".join(line + end for line, end in zip(lines, endings))
    if _rarely(draw):
        text = "\ufeff" + text
    data = text.encode("utf-8")
    if _rarely(draw):
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


def _obj_result(path):
    """read_obj's mesh or error, vertices compared bit for bit."""
    try:
        mesh = read_obj(path)
    except Exception as exc:  # noqa: BLE001 - the error is the result
        return type(exc), str(exc), getattr(exc, "line", None)
    return (mesh.vertices.shape, mesh.vertices.tobytes(), mesh.faces.dtype,
            mesh.faces.tolist(), mesh.normal_lines)


def _outcomes_result(path):
    """FitDataset.from_csv's columns and codes, or its error."""
    try:
        ds = FitDataset.from_csv(path)
    except Exception as exc:  # noqa: BLE001 - the error is the result
        return type(exc), str(exc), getattr(exc, "line", None)
    return (ds.participant_id.tolist(), ds.condition.tolist(),
            ds.target_reach.tobytes(), ds.distance_error.tobytes(),
            ds.participant_code.dtype, ds.participant_code.tolist(),
            ds.participants)


def _trajectory_result(path):
    """read_trajectories_csv's result or error, compared bit for bit."""
    try:
        trajectories, rejected = read_trajectories_csv(path)
    except Exception as exc:  # noqa: BLE001 - the error is the result
        return type(exc), str(exc), getattr(exc, "line", None)
    return ([(tr.trial_id, tr.sample_rate.hex(),
              *(getattr(tr, axis).tobytes() for axis in "txyz"))
             for tr in trajectories], rejected)


def _points_result(path):
    try:
        points = read_points_csv(path)
    except Exception as exc:  # noqa: BLE001 - the error is the result
        return type(exc), str(exc), getattr(exc, "line", None)
    return points.shape, points.dtype, np.ascontiguousarray(points).tobytes()


def _row_loop_only(module):
    """Patch the fast paths away, leaving the readers' row loops: the CSV
    chunk parser, as each module imports it, raises ValueError, and the OBJ
    record parse returns None."""
    patches = {"_column_chunks": mock.Mock(side_effect=ValueError)}
    if module is meshio:
        patches["_read_obj_columns"] = mock.Mock(return_value=None)
    return mock.patch.multiple(module, **patches)


def _both(result, module, path, chunk=1 << 20):
    """result(path) as the reader gives it, with chunk bytes per
    np.loadtxt call and any warning raised, and by the row loop alone."""
    with mock.patch.object(meshio, "_COLUMN_CHUNK", chunk), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        got = result(path)
    with _row_loop_only(module):
        return got, result(path)


class TestFastPathMatchesRowLoop:
    @PROPERTY_SETTINGS
    @given(data=trajectory_files(), chunk=st.sampled_from(CHUNKS))
    def test_trajectories(self, tmp_path, data, chunk):
        path = tmp_path / "trajectories.csv"
        path.write_bytes(data)
        got, want = _both(_trajectory_result, kin, path, chunk)
        assert got == want

    @PROPERTY_SETTINGS
    @given(data=points_files(), chunk=st.sampled_from(CHUNKS))
    def test_points(self, tmp_path, data, chunk):
        path = tmp_path / "points.csv"
        path.write_bytes(data)
        got, want = _both(_points_result, meshio, path, chunk)
        assert got == want

    @PROPERTY_SETTINGS
    @given(data=outcome_files(), chunk=st.sampled_from(CHUNKS))
    def test_outcomes(self, tmp_path, data, chunk):
        path = tmp_path / "outcomes.csv"
        path.write_bytes(data)
        got, want = _both(_outcomes_result, fitting, path, chunk)
        assert got == want

    @PROPERTY_SETTINGS
    @given(data=obj_files(), chunk=st.sampled_from(CHUNKS))
    def test_obj(self, tmp_path, data, chunk):
        path = tmp_path / "mesh.obj"
        path.write_bytes(data)
        got, want = _both(_obj_result, meshio, path, chunk)
        assert got == want

    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_spellings(self, tmp_path, spelling):
        """Each spelling in every numeric column of the three files."""
        rows = [["a", repr(i / 250.0), "0.0", "0.0", repr(i / 1e3)]
                for i in range(kin.MIN_SAMPLES + 5)]
        for k in range(1, 5):
            rows[2 * k][k] = spelling
        path = tmp_path / "trajectories.csv"
        lines = ["trial_id,t,x,y,z"] + [",".join(row) for row in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
        got, want = _both(_trajectory_result, kin, path)
        assert got == want
        path = tmp_path / "points.csv"
        path.write_text(f"x,y,z\n{spelling},0,1\n0,{spelling},1\n"
                        f"0,0,{spelling}\n", encoding="utf-8", newline="")
        got, want = _both(_points_result, meshio, path)
        assert got == want
        path = tmp_path / "outcomes.csv"
        rows = ["t0,p0,a,0.25,1,,,,,-0.01,,", f"t1,p0,a,{spelling},1,,,,,-0.01,,",
                f"t2,p0,a,0.3,1,,,,,{spelling},,",
                f"t3,p0,a,{spelling},0,slow,,,,{spelling},,"]
        path.write_text("\n".join([",".join(OUTCOME_HEADER), *rows]) + "\n",
                        encoding="utf-8", newline="")
        got, want = _both(_outcomes_result, fitting, path)
        assert got == want

    @pytest.mark.parametrize("spelling", FACE_SPELLINGS)
    def test_face_spellings(self, tmp_path, spelling):
        """Each face spelling as the first, a middle and the last reference
        of a face, bare and with a "//1" tail; the face lies between two
        plain ones or is the file's last line, where the bad token is the
        last the face parse reads."""
        path = tmp_path / "mesh.obj"
        for k in range(3):
            for tail in ("", "//1"):
                for after in ("f 2 3 4\n", ""):
                    refs = ["1", "2", "3"]
                    refs[k] = spelling + tail
                    path.write_text("v 0 0 1\nv 1 0 1\nv 0 1 1\nv 1 1 1\n"
                                    f"f 1 2 3\nf {' '.join(refs)}\n{after}",
                                    encoding="utf-8", newline="")
                    got, want = _both(_obj_result, meshio, path)
                    assert got == want, (k, tail, after)

    @pytest.mark.parametrize("face, kept", [
        ("f 1 2 1_0", [1, 2, 1]), ("f 1 2 3.0", [1, 2, 3]),
        ("f 1 2 3f", [1, 2, 3])])
    def test_face_parse_that_warns_and_stops(self, tmp_path, face, kept):
        """NumPy 1.x's np.fromstring warns on unmatched data and keeps what
        it read, so a bad last reference still gives one value per space:
        the warning alone sends the file to the line loop."""
        path = tmp_path / "mesh.obj"
        path.write_text(f"v 0 0 1\nv 1 0 1\nv 0 1 1\n{face}\n",
                        encoding="utf-8", newline="")

        def warn_and_stop(string, dtype, sep):
            warnings.warn("string or file could not be read to its end due "
                          "to unmatched data", DeprecationWarning, stacklevel=2)
            return np.array(kept, dtype=dtype)

        with mock.patch.object(meshio.np, "fromstring", warn_and_stop):
            got = _obj_result(path)
        with _row_loop_only(meshio):
            want = _obj_result(path)
        assert got == want
        assert want[0] is meshio.DataFormatError

    @pytest.mark.parametrize("trials, edits, missing", [
        # (id, samples, rate) per trial; (trial, sample, t) edits
        ([("a", 27, 250.0), ("b", 25, 100.0), ("c", 40, 250.0),
          ("d", 25, 250.0), ("e", 40, 100.0)], [], []),
        ([("a", 1, 250.0), ("b", 25, 250.0), ("c", 1, 100.0),
          ("d", 27, 250.0), ("e", 2, 250.0)], [], ["a", "c", "e"]),
        ([("a", 25, 250.0), ("b", 27, 250.0), ("c", 25, 250.0)],
         [(1, 4, "nan")], ["b"]),
        # a nan timestamp leaves no period to check, so a later one going
        # back is missing data too, not a file error
        ([("a", 25, 250.0), ("b", 27, 250.0), ("c", 1, 250.0)],
         [(1, 4, "nan"), (1, 9, "0.0")], ["b", "c"]),
        ([("a", 30, 250.0), ("b", 25, 250.0), ("c", 30, 250.0)],
         [(0, 12, "0.0481"), (2, 3, "-inf")], ["a", "c"]),
        ([("a", 30, 250.0), ("b", 25, 250.0), ("c", 30, 250.0)],
         [(2, 3, "0.0"), (1, 6, "0.0")], "b"),
        ([("a", 30, 250.0), ("b", 25, 250.0), ("c", 30, 250.0)],
         [(1, 6, "0.0"), (0, 3, "0.0")], "a"),
    ], ids=["mixed-lengths", "single-samples", "nan-timestamp",
            "nan-then-back", "missing-and-non-finite", "back-short-first",
            "back-long-first"])
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_trajectory_tables(self, tmp_path, trials, edits, missing, chunk):
        """Trials of mixed lengths and rates, single samples, nan and
        non-finite timestamps, gaps, and timestamps going back in trials
        of two lengths (the first in the file is named)."""
        times = {trial_id: [repr(i / rate) for i in range(n)]
                 for trial_id, n, rate in trials}
        for trial, sample, t in edits:
            times[trials[trial][0]][sample] = t
        rows = [f"{trial_id},{t},{i * 1e-3!r},0.0,{i * 2e-3!r}"
                for trial_id, ts in times.items() for i, t in enumerate(ts)]
        path = tmp_path / "trajectories.csv"
        path.write_text("\n".join(["trial_id,t,x,y,z", *rows]) + "\n",
                        encoding="utf-8", newline="")
        got, want = _both(_trajectory_result, kin, path, chunk)
        assert got == want
        if isinstance(missing, str):
            assert got == (kin.DataFormatError, f"trial {missing}: timestamps "
                           f"must strictly increase [{path}]", None)
        else:
            kept, rejected = got
            assert [out.trial_id for out in rejected] == missing
            assert [tr[0] for tr in kept] == sorted(
                set(times) - set(missing))

    @pytest.mark.parametrize("text", [
        "trial_id,t,x,y,z\na,0,0,0,0\nb,0,0,0,0\na,0.004,0,0,0\n",
        'trial_id,t,x,y,z\n"a,b",0,0,0,0\n"a,b",0.004,0,0,0\n',
        "trial_id,t,x,y,z\na,0,0,0,0\n\na,0.004,0,0,0\n",
        "trial_id,t,x,y,z\na,0,0,0,0\na,0,0,0,0\n",
        "trial_id,t,x,y,z\na,0,0,0,0\na,0.004,0,0\n",
        "trial_id,t,x,y,z\n" + "a" * 140_000 + ",0,0,0,0\n",
    ], ids=["interleaved", "quoted-comma", "blank-row", "non-increasing",
            "short-row", "over-field-limit"])
    def test_trajectory_examples(self, tmp_path, text):
        """Files the fast path must leave to the row loop, errors included."""
        path = tmp_path / "trajectories.csv"
        path.write_text(text, encoding="utf-8", newline="")
        got, want = _both(_trajectory_result, kin, path)
        assert got == want

    @pytest.mark.parametrize("text", [
        "v 0 0 1\nv 1 0 1\nf 1 2\n",
        "v 0 0 1\nv 1 0 1\nv 0 1 1\nf 1 2 3\nv\n",
        "v 0 0 1\nv 1 0 1\nv 0 1 1\nf\n",
        "v 0 0 1\n v 1 0 1\nv 0 1 1\nf 1 2 3\n",
        "v 0 0 1\nv\t1 0 1\nv 0 1 1\nf 1 2 3\n",
        "v 0 0 1\rv 1 0 1\nv 0 1 1\nf 1 2 3\n",
        "v 0 0 1\nv 1 0 1\nv 0 1 1\nf 1 2 " + "3" * 23 + "\n",
        "v 0 0 1\nv 1 0 1\nv 0 1 1\nf 1\x852 3\n",
        "v 0 0 1\nv 1 0 1\nv 0 1 1\nf 1 2 3 \n",
        "v 0 0 1\nv 1 0 1\nv 0 1 1\nf -1 -2 -4\nv 1 1 1\n",
        "v 0 0 1\nv 1 0 1\nv 0 1 1\nf 1\n",
        "v 0 0 1\nv 1 0 1\nf 1 2 4\nv 0 1 1\n",
    ], ids=["two-vertex-face", "bare-v", "bare-f", "leading-space", "tab",
            "lone-cr", "long-ref", "nel", "trailing-space", "early-negative",
            "one-vertex-face", "forward-past-the-end"])
    def test_obj_examples(self, tmp_path, text):
        """Files the fast path must leave to the line loop, errors included."""
        path = tmp_path / "mesh.obj"
        path.write_text(text, encoding="utf-8", newline="")
        got, want = _both(_obj_result, meshio, path)
        assert got == want


def _simulated_outcomes(tmp_path):
    """A two-condition cohort as the benchmark joins it: one header, then
    the original and the transformed outcomes, every id in both."""
    parts = []
    for condition in ("original", "transformed"):
        config = SimConfig(n_participants=12, repetitions=3, seed=3,
                           condition=condition)
        participants = generate_participants(config)
        write_dataset(tmp_path / condition, participants,
                      generate_trials(config, participants))
        text = (tmp_path / condition / "outcomes.csv").read_text(encoding="utf-8")
        parts.append(text if not parts else text.split("\n", 1)[1])
    path = tmp_path / "cohort.csv"
    path.write_text("".join(parts), encoding="utf-8", newline="")
    return path


def _simulated(tmp_path):
    config = SimConfig(n_participants=2, repetitions=2, seed=3)
    participants = generate_participants(config)
    trials = generate_trials(config, participants)
    trajectories = generate_trajectories(config, trials, participants)
    write_dataset(tmp_path, participants, trials, trajectories)
    return tmp_path / "trajectories.csv"


class TestFastPathRuns:
    """A helper that always fell back would pass every comparison above;
    these count the row loop's calls on files the package writes."""

    @pytest.mark.parametrize("chunk", [4096, 1 << 20])
    def test_simulate_output_takes_the_fast_path(self, tmp_path, monkeypatch,
                                                 chunk):
        path = _simulated(tmp_path)
        with _row_loop_only(kin):
            want = _trajectory_result(path)
        calls = []
        row_loop = kin._read_trajectory_rows
        monkeypatch.setattr(kin, "_read_trajectory_rows",
                            lambda p: calls.append(p) or row_loop(p))
        monkeypatch.setattr(meshio, "_COLUMN_CHUNK", chunk)
        assert _trajectory_result(path) == want
        assert calls == []
        # every trial's samples are views into one column array
        trajectories, _ = read_trajectories_csv(path)
        assert len(trajectories) == 2 * 4 * 2
        columns = trajectories[0].t.base
        assert columns is not None
        assert all(getattr(tr, axis).base is columns
                   for tr in trajectories for axis in "txyz")

    def test_bom_simulate_output_takes_the_fast_path(self, tmp_path,
                                                     monkeypatch):
        path = _simulated(tmp_path)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        calls = []
        row_loop = kin._read_trajectory_rows
        monkeypatch.setattr(kin, "_read_trajectory_rows",
                            lambda p: calls.append(p) or row_loop(p))
        assert _trajectory_result(bom) == _trajectory_result(path)
        assert calls == []

    def test_points_writer_output_takes_the_fast_path(self, tmp_path,
                                                      monkeypatch):
        points = np.random.default_rng(4).uniform(-1.0, 1.0, (500, 3))
        write_points_csv(points, tmp_path / "points.csv")
        calls = []
        row_loop = meshio._read_point_rows
        monkeypatch.setattr(meshio, "_read_point_rows",
                            lambda p: calls.append(p) or row_loop(p))
        got = read_points_csv(tmp_path / "points.csv")
        assert calls == []
        assert np.array_equal(got.view(np.int64), points.view(np.int64))

    def _count_obj_lines(self, monkeypatch) -> list:
        calls = []
        line_loop = meshio._read_obj_lines
        monkeypatch.setattr(meshio, "_read_obj_lines",
                            lambda p: calls.append(p) or line_loop(p))
        return calls

    def test_obj_writer_output_takes_the_fast_path(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(6)
        mesh = MeshModel(vertices=rng.uniform(-1.0, 1.0, (500, 3)),
                         faces=rng.integers(0, 500, (900, 3)), provenance="mem",
                         normal_lines=("vn 0.0 0.0 -1.0",))
        write_obj(mesh, tmp_path / "mesh.obj")
        calls = self._count_obj_lines(monkeypatch)
        got = read_obj(tmp_path / "mesh.obj")
        assert calls == []
        assert np.array_equal(got.vertices.view(np.int64),
                              mesh.vertices.view(np.int64))
        np.testing.assert_array_equal(got.faces, mesh.faces)
        assert got.normal_lines == mesh.normal_lines

    @pytest.mark.parametrize("form", ["lf", "crlf", "bom", "objects",
                                      "token-forms"])
    @pytest.mark.parametrize("chunk", [4096, 1 << 20])
    def test_quad_grid_takes_the_fast_path(self, tmp_path, monkeypatch, form,
                                           chunk):
        """A quad grid as the benchmark writes it (a comment, the vertices,
        one normal, faces "f a//1 b//1 c//1 d//1"), with CRLF line ends, a
        BOM, as one object per row of quads with negative references, or
        with faces in the v, v/vt and v/vt/vn token forms as well."""
        grid = 40
        rng = np.random.default_rng(7)
        vertices = [f"v {x!r} {y!r} {z!r}" for x, y, z in
                    rng.uniform(0.1, 1.0, (grid * grid, 3)).tolist()]
        styles = (["{}", "{}/1", "{}//1", "{}/1/1", "{}//1"]
                  if form == "token-forms" else ["{}//1"])

        def quad(a: int) -> str:
            refs = [a, a + 1, a + grid + 1, a + grid]
            return "f " + " ".join(styles[(a + k) % len(styles)].format(ref)
                                   for k, ref in enumerate(refs))

        if form == "objects":
            # one object per row of quads: the row's second line of vertices,
            # then its quads, counted back from the last vertex
            lines = ["# grid", *vertices[:grid], "vn 0.0 0.0 -1.0"]
            for r in range(1, grid):
                lines += vertices[r * grid:(r + 1) * grid]
                lines += [quad(c - 2 * grid) for c in range(grid - 1)]
        else:
            lines = ["# grid", *vertices, "vn 0.0 0.0 -1.0"]
            lines += [quad(r * grid + c + 1)
                      for r in range(grid - 1) for c in range(grid - 1)]
        text = "\n".join(lines) + "\n"
        if form == "crlf":
            text = text.replace("\n", "\r\n")
        elif form == "bom":
            text = "\ufeff" + text
        path = tmp_path / "grid.obj"
        path.write_text(text, encoding="utf-8", newline="")
        with _row_loop_only(meshio):
            want = _obj_result(path)
        calls = self._count_obj_lines(monkeypatch)
        monkeypatch.setattr(meshio, "_COLUMN_CHUNK", chunk)
        got = _obj_result(path)
        assert got == want
        assert calls == []
        first = [r * grid + c for r in range(grid - 1) for c in range(grid - 1)]
        assert got[3] == [face for a in first for face in
                          ([a, a + 1, a + grid + 1], [a, a + grid + 1, a + grid])]

    @pytest.mark.parametrize("chunk", [1, 60])
    def test_references_across_chunk_boundaries(self, tmp_path, monkeypatch,
                                                chunk):
        """Faces resolved a chunk at a time: negative references that count
        back into earlier chunks, and a positive one to a vertex defined in
        a later chunk.  At 60 bytes the second chunk starts at the first
        face and ends after the four-vertex face."""
        text = ("v 0.0 0.0 1.0\nv 1.0 0.0 1.0\nv 1.0 1.0 1.0\n"
                "# the faces start in a later chunk\n"
                "f -3//1 -2//1 -1//1\nf 1 2 5\nv 0.0 1.0 1.0\n"
                "f -4/1 -3/1 -2/1 -1/1\nv 0.5 0.5 1.0\nf -1 1 2\n")
        path = tmp_path / "mesh.obj"
        path.write_text(text, encoding="utf-8")
        with _row_loop_only(meshio):
            want = _obj_result(path)
        calls = self._count_obj_lines(monkeypatch)
        monkeypatch.setattr(meshio, "_COLUMN_CHUNK", chunk)
        got = _obj_result(path)
        assert got == want
        assert calls == []
        assert got[3] == [[0, 1, 2], [0, 1, 4], [0, 1, 2], [0, 2, 3], [4, 0, 1]]

    def _count_outcome_rows(self, monkeypatch) -> list:
        calls = []
        row_loop = fitting._read_outcome_rows
        monkeypatch.setattr(fitting, "_read_outcome_rows",
                            lambda p: calls.append(p) or row_loop(p))
        return calls

    @pytest.mark.parametrize("chunk", [4096, 1 << 20])
    def test_simulated_cohort_takes_the_fast_path(self, tmp_path, monkeypatch,
                                                  chunk):
        path = _simulated_outcomes(tmp_path)
        with _row_loop_only(fitting):
            want = _outcomes_result(path)
        calls = self._count_outcome_rows(monkeypatch)
        monkeypatch.setattr(meshio, "_COLUMN_CHUNK", chunk)
        got = _outcomes_result(path)
        assert got == want
        assert calls == []
        assert got[1].count("original") == got[1].count("transformed") == 144
        assert main(["fit", "--input", str(path), "--out",
                     str(tmp_path / "fit")]) == 0
        assert calls == []

    def test_long_reach_outcomes_take_the_fast_path(self, tmp_path,
                                                    monkeypatch):
        """The reach is parsed as a number, so its text may be of any
        length; 0.1 + 0.2 is written 0.30000000000000004."""
        reaches = [0.1 + 0.2, 0.25, 1 / 3, 0.2 + 1e-15]
        rows = [f"t{i},p{i % 3},original,{reach!r},1,,,,,{i / 1000 - 0.01!r},,"
                for i, reach in enumerate(reaches * 6)]
        path = tmp_path / "outcomes.csv"
        path.write_text("\n".join([",".join(OUTCOME_HEADER), *rows]) + "\n",
                        encoding="utf-8")
        assert repr(reaches[0]) == "0.30000000000000004"
        with _row_loop_only(fitting):
            want = _outcomes_result(path)
        calls = self._count_outcome_rows(monkeypatch)
        got = _outcomes_result(path)
        assert got == want
        assert calls == []
        assert np.frombuffer(got[2]).tolist() == reaches * 6

    def test_long_text_outcomes_take_the_fast_path(self, tmp_path,
                                                   monkeypatch):
        """Ids, conditions and valid fields of any length are parsed in C,
        whole; a valid field of 10 drops its row, as in the row loop."""
        rows = [f"t{i},participant_{i % 3:04d},transformed_feedback,"
                f"{0.2 + i % 4 * 0.05!r},{'10' if i % 5 == 2 else '1'},,,,,"
                f"{i / 1000 - 0.01!r},," for i in range(24)]
        path = tmp_path / "outcomes.csv"
        path.write_text("\n".join([",".join(OUTCOME_HEADER), *rows]) + "\n",
                        encoding="utf-8")
        with _row_loop_only(fitting):
            want = _outcomes_result(path)
        calls = self._count_outcome_rows(monkeypatch)
        got = _outcomes_result(path)
        assert got == want
        assert calls == []
        assert got[0][0] == "participant_0000" and len(got[0]) == 19
        assert set(got[1]) == {"transformed_feedback"}

    def _analyzed(self, tmp_path, bad_targets: bool):
        """analyze's outcomes of a small simulated cohort; with bad_targets,
        every fifth trial is a rejected row with empty numbers."""
        simdir = tmp_path / "sim"
        config = tmp_path / "sim.json"
        config.write_text('{"n_participants": 3, "repetitions": 2, "seed": 5}',
                          encoding="utf-8")
        assert main(["simulate", "--config", str(config), "--out",
                     str(simdir)]) == 0
        if bad_targets:
            targets = json.loads((simdir / "targets.json").read_text())
            for trial_id in list(targets)[::5]:
                targets[trial_id]["reach_m"] = -1.0
            (simdir / "targets.json").write_text(json.dumps(targets))
        pose = tmp_path / "pose.json"
        pose.write_text('{"ipd_mm": 63}', encoding="utf-8")
        assert main(["analyze", "--input", str(simdir / "trajectories.csv"),
                     "--targets", str(simdir / "targets.json"),
                     "--eye-pose", str(pose), "--out",
                     str(tmp_path / "analysis")]) == 0
        return tmp_path / "analysis" / "outcomes.csv"

    def test_analyzed_outcomes_take_the_fast_path(self, tmp_path, monkeypatch):
        """analyze's output without rejections is parsed in C."""
        path = self._analyzed(tmp_path, bad_targets=False)
        assert {row.split(",")[4] for row in
                path.read_text(encoding="utf-8").splitlines()[1:]} == {"1"}
        with _row_loop_only(fitting):
            want = _outcomes_result(path)
        calls = self._count_outcome_rows(monkeypatch)
        assert _outcomes_result(path) == want
        assert main(["fit", "--input", str(path), "--out",
                     str(tmp_path / "fit")]) == 0
        assert calls == []

    def test_analyzed_rejections_take_the_row_loop(self, tmp_path,
                                                   monkeypatch):
        """analyze writes a rejected row with empty numbers, which the C
        parse leaves to the row loop; the result is the row loop's."""
        path = self._analyzed(tmp_path, bad_targets=True)
        assert ",0,bad target,,,,,," in path.read_text(encoding="utf-8")
        with _row_loop_only(fitting):
            want = _outcomes_result(path)
        calls = self._count_outcome_rows(monkeypatch)
        assert _outcomes_result(path) == want
        assert calls == [path]
        assert main(["fit", "--input", str(path), "--out",
                     str(tmp_path / "fit")]) == 0

    def _count_trajectory_rows(self, monkeypatch) -> list:
        calls = []
        row_loop = kin._read_trajectory_rows
        monkeypatch.setattr(kin, "_read_trajectory_rows",
                            lambda p: calls.append(p) or row_loop(p))
        return calls

    @pytest.mark.parametrize("n_chars", [31, 32, 200])
    def test_trial_id_width(self, tmp_path, monkeypatch, n_chars):
        """A trial id of any length is parsed in C, whole."""
        trial_id = "t" * (n_chars - 1) + "\u00fc"
        rows = [f"{trial_id},{i / 250!r},0.0,0.0,{i / 1e3!r}"
                for i in range(kin.MIN_SAMPLES + 5)]
        path = tmp_path / "trajectories.csv"
        path.write_text("\n".join(["trial_id,t,x,y,z", *rows]) + "\n",
                        encoding="utf-8")
        with _row_loop_only(kin):
            want = _trajectory_result(path)
        calls = self._count_trajectory_rows(monkeypatch)
        got = _trajectory_result(path)
        assert got == want
        assert got[0][0][0] == trial_id
        assert calls == []

    @pytest.mark.parametrize("comes_back", [False, True])
    def test_trial_split_by_a_chunk_boundary(self, tmp_path, monkeypatch,
                                             comes_back):
        """With chunks of a few lines, a trial's rows span chunks and are
        merged; a trial whose rows come back after another trial's leaves
        the file to the row loop."""
        order = ["a", "b", "a"] if comes_back else ["a", "b", "c"]
        rows = [f"{trial_id},{i / 250!r},0.0,0.0,{i / 1e3!r}"
                for trial_id in order for i in range(kin.MIN_SAMPLES + 5)]
        if comes_back:   # the second run of a continues its timestamps
            rows[-kin.MIN_SAMPLES - 5:] = [
                f"a,{(kin.MIN_SAMPLES + 5 + i) / 250!r},0.0,0.0,{i / 1e3!r}"
                for i in range(kin.MIN_SAMPLES + 5)]
        path = tmp_path / "trajectories.csv"
        path.write_text("\n".join(["trial_id,t,x,y,z", *rows]) + "\n",
                        encoding="utf-8")
        with _row_loop_only(kin):
            want = _trajectory_result(path)
        calls = self._count_trajectory_rows(monkeypatch)
        monkeypatch.setattr(meshio, "_COLUMN_CHUNK", 100)
        got = _trajectory_result(path)
        assert got == want
        assert [trial[0] for trial in got[0]] == sorted(set(order))
        assert calls == ([path] if comes_back else [])

    def test_benchmark_shaped_files_take_the_fast_path(self, tmp_path,
                                                       monkeypatch):
        """The files the benchmark's workloads read, at their sizes: a
        12-participant simulate with trajectories and its analyze output
        (every trial valid), two 250-participant cohorts joined as one
        outcomes file with LF line ends, and a 90,000-row points CSV."""
        calls = (self._count_trajectory_rows(monkeypatch)
                 + self._count_outcome_rows(monkeypatch))
        row_loop = meshio._read_point_rows
        monkeypatch.setattr(meshio, "_read_point_rows",
                            lambda p: calls.append(p) or row_loop(p))
        (tmp_path / "sim.json").write_text('{"n_participants": 12, "seed": 0}',
                                           encoding="utf-8")
        (tmp_path / "pose.json").write_text('{"ipd_mm": 63.0}', encoding="utf-8")
        assert main(["simulate", "--config", str(tmp_path / "sim.json"),
                     "--out", str(tmp_path / "sim")]) == 0
        assert main(["analyze", "--input", str(tmp_path / "sim" / "trajectories.csv"),
                     "--targets", str(tmp_path / "sim" / "targets.json"),
                     "--eye-pose", str(tmp_path / "pose.json"),
                     "--out", str(tmp_path / "analysis")]) == 0
        assert len(FitDataset.from_csv(tmp_path / "analysis" / "outcomes.csv")) == 576
        parts = []
        for condition, mixture in (("original", None),
                                   ("transformed", (0.8, 0.1, 0.1))):
            config = SimConfig(n_participants=250, seed=0, condition=condition,
                               response_mixture=mixture)
            participants = generate_participants(config)
            write_dataset(tmp_path / condition, participants,
                          generate_trials(config, participants))
            text = (tmp_path / condition / "outcomes.csv").read_text(encoding="utf-8")
            parts.append(text if not parts else text.split("\n", 1)[1])
        (tmp_path / "cohort.csv").write_text("".join(parts), encoding="utf-8")
        assert len(FitDataset.from_csv(tmp_path / "cohort.csv")) == 24_000
        points = np.random.default_rng(0).uniform(0.3, 2.5, (90_000, 3))
        (tmp_path / "points.csv").write_text(
            "x,y,z\n" + "".join(f"{x!r},{y!r},{z!r}\n" for x, y, z in points.tolist()),
            encoding="utf-8")
        got = read_points_csv(tmp_path / "points.csv")
        assert got.flags.c_contiguous
        assert np.array_equal(got.view(np.int64), points.view(np.int64))
        assert calls == []

    def _analyze(self, tmp_path, trajectories, targets, out: str) -> bytes:
        pose = tmp_path / "pose.json"
        pose.write_text('{"ipd_mm": 63}', encoding="utf-8")
        assert main(["analyze", "--input", str(trajectories), "--targets",
                     str(targets), "--eye-pose", str(pose), "--out",
                     str(tmp_path / out)]) == 0
        return (tmp_path / out / "outcomes.csv").read_bytes()

    def test_quoted_trial_ids_keep_the_outcomes_bytes(self, tmp_path,
                                                      monkeypatch):
        """With every trial id quoted, trajectories.csv takes the row loop,
        and analyze writes the outcomes.csv of the C parse byte for byte."""
        path = _simulated(tmp_path)
        plain = self._analyze(tmp_path, path, tmp_path / "targets.json",
                              "plain")
        header, *rows = path.read_text(encoding="utf-8").splitlines(True)
        quoted = tmp_path / "quoted.csv"
        quoted.write_text(header + "".join('"' + row.replace(",", '",', 1)
                                           for row in rows),
                          encoding="utf-8", newline="")
        calls = self._count_trajectory_rows(monkeypatch)
        assert self._analyze(tmp_path, quoted, tmp_path / "targets.json",
                             "quoted") == plain
        assert calls == [quoted]
        assert (tmp_path / "quoted" / "summary.csv").read_bytes() == \
            (tmp_path / "plain" / "summary.csv").read_bytes()

    def test_trial_id_with_a_comma_is_written_quoted(self, tmp_path,
                                                     monkeypatch):
        """A quoted trial id holding a comma takes the row loop, and
        analyze writes it quoted."""
        rows = [f'"p0,a",{i / 250:.3f},0.0,0.0,{max(i - 20, 0) / 400:.4f}'
                for i in range(60)]
        path = tmp_path / "quoted.csv"
        path.write_text("\n".join(["trial_id,t,x,y,z", *rows]) + "\n",
                        encoding="utf-8")
        targets = tmp_path / "targets.json"
        targets.write_text('{"p0,a": {"reach_m": 0.1}}', encoding="utf-8")
        calls = self._count_trajectory_rows(monkeypatch)
        outcomes = self._analyze(tmp_path, path, targets, "out").decode()
        assert outcomes.splitlines()[1].startswith('"p0,a",')
        assert calls == [path]

    @pytest.mark.parametrize("cohort", ["analyzed", "joined"])
    def test_quoted_participant_ids_keep_the_fit_bytes(self, tmp_path,
                                                       monkeypatch, cohort):
        """With every participant id quoted, an outcomes file takes the row
        loop, and fit writes the fits of the C parse byte for byte: for
        analyze's output, and for an original and a transformed cohort
        joined as the benchmark joins them."""
        path = (self._analyzed(tmp_path, bad_targets=False)
                if cohort == "analyzed" else _simulated_outcomes(tmp_path))
        header, *rows = path.read_text(encoding="utf-8").splitlines(True)
        quoted = tmp_path / "quoted_outcomes.csv"
        quoted.write_text(header + "".join(
            '{},"{}",{}'.format(*row.split(",", 2)) for row in rows),
            encoding="utf-8", newline="")
        calls = self._count_outcome_rows(monkeypatch)
        fits = {}
        for name, source in (("plain", path), ("quoted", quoted)):
            assert main(["fit", "--input", str(source), "--out",
                         str(tmp_path / name)]) == 0
            fits[name] = {p.name: p.read_bytes() for p in
                          (tmp_path / name).glob("[cf]*")}
        assert calls == [quoted]
        assert len(fits["plain"]) == (3 if cohort == "analyzed" else 5)
        assert fits["quoted"] == fits["plain"]


# The row loop of each CSV reader, by the module that holds it.
ROW_LOOPS = {kin: "_read_trajectory_rows", meshio: "_read_point_rows",
             fitting: "_read_outcome_rows"}
READERS = {kin: _trajectory_result, meshio: _points_result,
           fitting: _outcomes_result}
# (header, row i, floats per row in the array the fast path fills, a
# column the fast path parses as a number)
EDGE_ROWS = {
    kin: ("trial_id,t,x,y,z",
          lambda i: f"t{i // 30:03d},{i % 30 / 250!r},{i * 1e-3!r},0.0,"
                    f"{i % 30 * 2e-3!r}", 4, 1),
    meshio: ("x,y,z", lambda i: f"{i * 1e-3!r},{-i * 2e-3!r},0.5", 3, 1),
    fitting: (",".join(OUTCOME_HEADER),
              lambda i: f"tr{i},p{i // 20},original,{0.2 + i % 3 * 0.05!r},1,"
                        f",,,0.2,{i * 1e-5!r},0.01,0.0", 2, 3),
}


def _edge_file(module, n: int, form: str) -> bytes:
    """n rows of a plain file the reader's fast path takes, with the line
    ends, blank lines or last row that form names."""
    header, row, _, number = EDGE_ROWS[module]
    lines = [header, *map(row, range(n))]
    if form == "late-quote":       # the row loop reads it alike
        first, _, rest = lines[-1].partition(",")
        lines[-1] = f'"{first}",{rest}'
    elif form == "late-error":     # the row loop words the error
        fields = lines[-1].split(",")
        fields[number] = "x"
        lines[-1] = ",".join(fields)
    elif form == "blank-lines":
        lines = [line for i, line in enumerate(lines)
                 for line in ([line, ""] if i % 7 == 3 else [line])]
    text = ("\r\n" if form == "crlf" else "\n").join(lines)
    if form == "no-final-newline":
        return text.encode("utf-8")
    return (text + ("\n\n\n" if form == "blank-lines" else
                    "\r\n" if form == "crlf" else "\n")).encode("utf-8")


def _count_row_loop(monkeypatch, module, at_entry=None) -> list:
    """The row loop's calls; at_entry() is recorded with each."""
    calls = []
    row_loop = getattr(module, ROW_LOOPS[module])
    monkeypatch.setattr(module, ROW_LOOPS[module], lambda p: calls.append(
        at_entry() if at_entry else p) or row_loop(p))
    return calls


class TestRowBound:
    """Each reader sizes its arrays by a counting pass before the parse
    (the CSVs' line count, the OBJ's vertices and triangles), through the
    chunks the parse reads; these files put that count at its edges."""

    @pytest.mark.parametrize("module", READERS, ids=["trajectories", "points",
                                                     "outcomes"])
    @pytest.mark.parametrize("form", ["no-final-newline", "crlf",
                                      "blank-lines", "late-quote",
                                      "late-error"])
    @pytest.mark.parametrize("chunk", [1, 60, 1 << 18])
    def test_fast_path_matches_row_loop(self, tmp_path, monkeypatch, module,
                                        form, chunk):
        path = tmp_path / "rows.csv"
        path.write_bytes(_edge_file(module, 95, form))
        with _row_loop_only(module):
            want = READERS[module](path)
        calls = _count_row_loop(monkeypatch, module)
        with mock.patch.object(meshio, "_COLUMN_CHUNK", chunk), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            got = READERS[module](path)
        assert got == want
        assert calls == ([path] if form.startswith("late") else [])
        if form == "late-error":
            assert got[0] is kin.DataFormatError and got[2] == 96

    def test_row_bound_counts_lines(self, tmp_path):
        for data, bound in [(b"", 0), (b"h", 0), (b"h\n", 0), (b"h\na", 1),
                            (b"h\r\na\r\n", 1), (b"h\n\n\na\n\n", 4),
                            (b"\xef\xbb\xbf", 0), (b"\xef\xbb\xbf\n", 0),
                            (b"\xef\xbb\xbfh\na", 1)]:
            path = tmp_path / "lines.csv"
            path.write_bytes(data)
            with path.open("rb") as fh, \
                    mock.patch.object(meshio, "_COLUMN_CHUNK", 1):
                assert meshio._row_bound(fh) == bound
                assert fh.tell() == 0

    @given(pieces=st.lists(st.sampled_from([b"a", b"1,2", b"\n", b"\r",
                                            b"\r\n", b"\xef\xbb\xbf"])),
           chunk=st.sampled_from([1, 2, 7, 60]))
    def test_line_chunks_are_the_file_in_lines(self, pieces, chunk):
        """Every reader's chunks give back the file, less one leading BOM,
        each chunk but the last ending in a line end."""
        data = b"".join(pieces)
        with mock.patch.object(meshio, "_COLUMN_CHUNK", chunk):
            chunks = list(meshio._line_chunks(io.BytesIO(data)))
        assert b"".join(chunks) == data.removeprefix(b"\xef\xbb\xbf")
        assert all(chunks)
        assert all(c.endswith(b"\n") for c in chunks[:-1])

    @PROPERTY_SETTINGS
    @given(data=obj_files())
    def test_obj_bound_is_exact_on_accepted_files(self, tmp_path, data):
        """On every file the OBJ parse accepts, at every chunk size, the
        counting pass gives exactly the vertices and triangles returned."""
        path = tmp_path / "mesh.obj"
        path.write_bytes(data)
        for chunk in CHUNKS:
            with path.open("rb") as fh, \
                    mock.patch.object(meshio, "_COLUMN_CHUNK", chunk):
                records = meshio._read_obj_columns(fh)
                if records is None:
                    continue
                fh.seek(0)
                assert meshio._obj_bound(fh) == (len(records[0]), len(records[1]))
                assert fh.tell() == 0

    @pytest.mark.parametrize("module", READERS, ids=["trajectories", "points",
                                                     "outcomes"])
    @pytest.mark.parametrize("form", ["late-quote", "late-error"])
    def test_refused_late_chunk_drops_the_filled_array(self, tmp_path,
                                                       monkeypatch, module,
                                                       form):
        """When the last chunk is refused, the array filled so far is
        freed before the row loop runs."""
        n = 6000
        path = tmp_path / "rows.csv"
        path.write_bytes(_edge_file(module, n, form))
        filled = n * EDGE_ROWS[module][2] * 8
        monkeypatch.setattr(meshio, "_COLUMN_CHUNK", 1 << 12)
        grown = _count_row_loop(monkeypatch, module,
                                lambda: tracemalloc.get_traced_memory()[0])
        tracemalloc.start()
        try:
            READERS[module](path)
        finally:
            tracemalloc.stop()
        assert len(grown) == 1
        assert grown[0] < filled / 4


def _grid_obj(path, grid: int, layout: str = "scene"):
    """A grid x grid vertex mesh of quads "f a//1 b//1 c//1 d//1", written to
    path: as one object per row of quads, each counted back from the row's
    last vertex, or as the benchmark scene is laid out (every vertex, one
    normal, every face)."""
    rng = np.random.default_rng(8)
    vertices = [f"v {x!r} {y!r} {z!r}" for x, y, z in
                rng.uniform(0.1, 1.0, (grid * grid, 3)).tolist()]

    def quad(a: int) -> str:
        return f"f {a}//1 {a + 1}//1 {a + grid + 1}//1 {a + grid}//1"

    if layout == "objects":
        lines = ["# grid", "vn 0.0 0.0 -1.0", *vertices[:grid]]
        for r in range(1, grid):
            lines += vertices[r * grid:(r + 1) * grid]
            lines += [quad(a) for a in range(-2 * grid, -grid - 1)]
    else:
        lines = ["# grid", *vertices, "vn 0.0 0.0 -1.0"]
        lines += [quad(r * grid + c + 1)
                  for r in range(grid - 1) for c in range(grid - 1)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _traced_peak(read, path) -> tuple[object, int]:
    """read(path) and the tracemalloc peak of the call, after one untraced
    call, so that first-call caches are not counted."""
    read(path)
    tracemalloc.start()
    try:
        result = read(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestCsvErrors:
    @pytest.mark.parametrize("module", READERS, ids=["trajectories", "points",
                                                     "outcomes"])
    def test_field_over_the_limit_is_a_data_error(self, tmp_path, module):
        """csv's own refusal of a row is a DataFormatError naming the file
        and line, not a csv.Error; the C parse leaves that row to csv."""
        header, row, _, number = EDGE_ROWS[module]
        fields = row(0).split(",")
        fields[number] = "1" * 200_001
        path = tmp_path / "long.csv"
        path.write_text("\n".join([header, ",".join(fields), row(1)]) + "\n",
                        encoding="utf-8")
        assert READERS[module](path) == (
            kin.DataFormatError,
            f"field larger than field limit (131072) [{path}:2]", 2)

    @given(text=st.text(alphabet="a\r\n", max_size=200),
           limit=st.integers(0, 40))
    def test_window_check_never_passes_a_long_line(self, text, limit):
        """_column_chunks skips its exact longest-line scan only when each
        window of limit // 2 characters holds a line end, which leaves no
        line longer than limit."""
        if not meshio._may_hold_a_long_line(text, limit):
            assert max(map(len, text.split("\n"))) <= limit


@st.composite
def face_text(draw) -> bytes:
    """Lines "f" plus 3 to 12 tokens v, v/vt, v//vn or v/vt/vn, references
    negative as well, the last line ending in "\n" or not."""
    ref = st.integers(-99_999, 99_999).filter(bool)
    style = st.sampled_from(["{}", "{}/{}", "{}//{}", "{}/{}/{}"])
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        tokens = [draw(style).format(draw(ref), draw(ref), draw(ref))
                  for _ in range(draw(st.integers(3, 12)))]
        lines.append(" ".join(["f", *tokens]))
    return ("\n".join(lines) + draw(st.sampled_from(["\n", ""]))).encode("ascii")


class TestCutAtSlash:
    @PROPERTY_SETTINGS
    @given(data=face_text(), window=st.integers(1, 64))
    def test_windowed_cut_is_the_cut_per_token(self, data, window):
        """The cut runs per window of _COLUMN_CHUNK // 8 bytes, extended to
        a line end: lines longer than a window, and windows that end on a
        line end, give each token cut at its first "/" all the same."""
        want = b"\n".join(b" ".join(t.partition(b"/")[0] for t in line.split(b" "))
                          for line in data.split(b"\n"))
        with mock.patch.object(meshio, "_COLUMN_CHUNK", 8 * window):
            assert meshio._cut_at_slash(data) == want


class TestFaceDtype:
    """Both OBJ readers store the faces in MeshModel's dtype from the
    start: int32 below 2**31 vertices, so the mesh is never copied to
    narrow it."""

    def test_benchmark_grid_reads_int32_faces(self, tmp_path, monkeypatch):
        grid = 300
        path = _grid_obj(tmp_path / "grid.obj", grid)
        line_loop = mock.Mock(side_effect=AssertionError("line loop ran"))
        monkeypatch.setattr(meshio, "_read_obj_lines", line_loop)
        mesh = read_obj(path)
        assert mesh.faces.dtype == np.int32
        assert mesh.faces.shape == (2 * (grid - 1) ** 2, 3)
        assert mesh.faces[-1].tolist() == [grid * grid - grid - 2,
                                           grid * grid - 1, grid * grid - 2]

    @pytest.mark.parametrize("layout", ["objects", "scene"])
    def test_fast_path_and_line_loop_agree(self, tmp_path, layout):
        path = _grid_obj(tmp_path / "grid.obj", 12, layout)
        with path.open("rb") as fh:
            fast = meshio._read_obj_columns(fh)
        loop = meshio._read_obj_lines(path)
        assert fast[1].dtype == loop[1].dtype == np.int32
        assert fast[1].tolist() == loop[1].tolist()
        assert read_obj(path).faces.dtype == np.int32


class TestReturnedArrays:
    """vackit transform remaps the array a reader returns over itself, so
    read_obj's vertices and read_points_csv's points come back writable,
    C-contiguous float64 from the C parse and from the fallback alike."""

    @pytest.mark.parametrize("fallback", [False, True])
    @pytest.mark.parametrize("kind", ["obj", "points"])
    def test_writable_c_contiguous_float64(self, tmp_path, monkeypatch, kind,
                                           fallback):
        if kind == "obj":
            path, loop = _grid_obj(tmp_path / "grid.obj", 12), "_read_obj_lines"
            # a tab in a vertex line sends the file to the line loop
            edit = (b"\nv ", b"\nv\t")
        else:
            path, loop = tmp_path / "points.csv", "_read_point_rows"
            points = np.random.default_rng(9).uniform([-0.3, -0.3, 0.3],
                                                      [0.3, 0.3, 1.5], (50, 3))
            write_points_csv(points, path)
            # a quoted field sends the file to the row loop
            x = repr(float(points[0, 0])).encode()
            edit = (b"\r\n" + x + b",", b'\r\n"' + x + b'",')
        if fallback:
            data = path.read_bytes()
            assert edit[0] in data
            path.write_bytes(data.replace(*edit, 1))
        calls = []
        row_loop = getattr(meshio, loop)
        monkeypatch.setattr(meshio, loop, lambda p: calls.append(p) or row_loop(p))
        got = read_obj(path).vertices if kind == "obj" else read_points_csv(path)
        assert len(calls) == fallback
        assert got.dtype == np.float64
        assert got.flags.c_contiguous and got.flags.writeable


class TestWorkingSet:
    """A read holds the arrays it returns plus a fixed number of chunks:
    each chunk is parsed into the one output array, which was sized before
    the parse, and never joined.  The files span many 64 KiB chunks.  The
    writers and the remap kernel likewise hold their input and output plus
    a fixed number of blocks."""

    CHUNK = 1 << 16
    CHUNKS = 8
    # The OBJ face parse holds a chunk's face lines a few times over
    # (joined, cut, tags blanked, as references) and the cut's scratch for
    # an eighth of a chunk: measured 5.3 chunks above the mesh in the
    # "objects" layout and 7.3 in the "scene" one, where a chunk is all
    # faces.
    OBJ_CHUNKS = 9
    # A block written is its rows as Python objects and as text.
    WRITE_BLOCKS = 12
    # The kernel's temporaries: a few float64 and bool arrays of a block's rows.
    KERNEL_BLOCKS = 4
    # simulate's trajectory stream: one block of samples, and text and
    # generators smaller than a second.
    SIM_BLOCKS = 2
    # vackit transform: the read's chunk working set, then the kernel's
    # block, then the write's block of _CHUNK_ROWS rows as Python objects
    # and as text, the largest of the three at this chunk size.
    TRANSFORM_CHUNKS = 16

    @pytest.mark.parametrize("n_participants", [6, 24])
    def test_simulate_trajectories(self, tmp_path, monkeypatch,
                                   n_participants):
        """simulate streams its trajectories a block of BLOCK_TRIALS trials
        at a time.  Beyond the trial table it is given, the write holds one
        block, the padded array the noise is filtered in: (221 + 18) samples
        x 3 axes x 64 trials of float64, 367,104 bytes.  It also holds one
        trial's text, the formatted t grid and each participant's generator.
        Measured 1.46 and 1.49 blocks, the whole cohort's samples being 4.2
        and 16.6 blocks."""
        monkeypatch.setattr(synth, "BLOCK_TRIALS", 64)
        config = SimConfig(n_participants=n_participants, seed=3)
        participants = generate_participants(config)
        trials = generate_trials(config, participants)
        n = len(synth._sample_times(config))
        block = (n + 2 * kin._PADLEN) * 3 * synth.BLOCK_TRIALS * 8
        assert block == 367_104
        assert len(trials) * 3 * n * 8 > 2 * self.SIM_BLOCKS * block
        _, peak = _traced_peak(lambda path: kin.write_trajectories_csv(
            synth._trajectory_blocks(config, trials, participants), path),
            tmp_path / "trajectories.csv")
        assert peak < self.SIM_BLOCKS * block

    def test_trajectories(self, tmp_path, monkeypatch):
        config = SimConfig(n_participants=3, seed=3)
        participants = generate_participants(config)
        trials = generate_trials(config, participants)
        write_dataset(tmp_path, participants, trials,
                      generate_trajectories(config, trials, participants))
        path = tmp_path / "trajectories.csv"
        assert path.stat().st_size > 8 * self.CHUNK
        monkeypatch.setattr(meshio, "_COLUMN_CHUNK", self.CHUNK)
        # the rules' blocks, a working set of their own, small next to a chunk
        monkeypatch.setattr(kin, "BLOCK_TRIALS", 16)
        (table, rejected), peak = _traced_peak(read_trajectories_csv, path)
        assert not rejected
        returned = table.t.base.nbytes + sum(
            a.nbytes for a in (table.sample_rate, table.length, table.start,
                               table.t_start))
        assert peak < returned + self.CHUNKS * self.CHUNK

    def test_points(self, tmp_path, monkeypatch):
        path = tmp_path / "points.csv"
        write_points_csv(np.random.default_rng(5).uniform(-1.0, 1.0, (50_000, 3)),
                         path)
        assert path.stat().st_size > 8 * self.CHUNK
        monkeypatch.setattr(meshio, "_COLUMN_CHUNK", self.CHUNK)
        points, peak = _traced_peak(read_points_csv, path)
        assert points.flags.c_contiguous and points.shape == (50_000, 3)
        assert peak < points.nbytes + self.CHUNKS * self.CHUNK

    def test_outcomes(self, tmp_path, monkeypatch):
        config = SimConfig(n_participants=200, seed=3)
        participants = generate_participants(config)
        write_dataset(tmp_path, participants, generate_trials(config, participants))
        path = tmp_path / "outcomes.csv"
        assert path.stat().st_size > 8 * self.CHUNK
        monkeypatch.setattr(meshio, "_COLUMN_CHUNK", self.CHUNK)
        ds, peak = _traced_peak(FitDataset.from_csv, path)
        returned = sum(getattr(ds, name).nbytes for name in (
            "participant_id", "condition", "target_reach", "distance_error",
            "participant_code"))
        assert peak < returned + self.CHUNKS * self.CHUNK

    @pytest.mark.parametrize("layout", ["objects", "scene"])
    def test_obj(self, tmp_path, monkeypatch, layout):
        """The faces are resolved and fanned a chunk at a time into the
        presized array."""
        grid = 150
        path = _grid_obj(tmp_path / "grid.obj", grid, layout)
        assert path.stat().st_size > 8 * self.CHUNK
        monkeypatch.setattr(meshio, "_COLUMN_CHUNK", self.CHUNK)
        line_loop = mock.Mock(side_effect=AssertionError("line loop ran"))
        monkeypatch.setattr(meshio, "_read_obj_lines", line_loop)
        mesh, peak = _traced_peak(read_obj, path)
        assert mesh.faces.shape == (2 * (grid - 1) ** 2, 3)
        assert mesh.faces[-1].tolist() == [grid * grid - grid - 2,
                                           grid * grid - 1, grid * grid - 2]
        assert peak < (mesh.vertices.nbytes + mesh.faces.nbytes
                       + self.OBJ_CHUNKS * self.CHUNK)

    def test_write_obj(self, tmp_path):
        """The faces are made 1-based a block of _CHUNK_ROWS rows at a
        time, never as a copy of the whole face array."""
        rng = np.random.default_rng(9)
        mesh = MeshModel(vertices=rng.uniform(-1.0, 1.0, (1000, 3)),
                         faces=rng.integers(0, 1000, (200_000, 3)))
        _, peak = _traced_peak(lambda path: write_obj(mesh, path),
                               tmp_path / "mesh.obj")
        block = meshio._CHUNK_ROWS * 3 * 8
        assert self.WRITE_BLOCKS * block < mesh.faces.nbytes
        assert peak < self.WRITE_BLOCKS * block

    @pytest.mark.parametrize("kind", ["obj", "points"])
    def test_transform_holds_one_copy(self, tmp_path, monkeypatch, kind):
        """vackit transform remaps the array it read in place, and an OBJ
        keeps its faces int32: the call holds that mesh or point array
        plus a fixed number of chunks, not an input and an output copy.
        Measured 11.6 chunks above the 150 x 150 grid's mesh with int32
        faces and 12.1 above 50,000 points; a transform that holds an
        output copy and int64 faces measured 23 and 25."""
        if kind == "obj":
            path = _grid_obj(tmp_path / "grid.obj", 150)
        else:
            path = tmp_path / "points.csv"
            write_points_csv(np.random.default_rng(5).uniform(
                [-0.3, -0.3, 0.3], [0.3, 0.3, 1.5], (50_000, 3)), path)
        # the one array, plus the faces as int32 whatever read_obj returns
        held = (read_obj(path).vertices.nbytes + 2 * (150 - 1) ** 2 * 3 * 4
                if kind == "obj" else read_points_csv(path).nbytes)
        monkeypatch.setattr(meshio, "_COLUMN_CHUNK", self.CHUNK)
        argv = ["transform", "--in", str(path), "--out",
                str(tmp_path / f"out{path.suffix}"), "--beta-deg", "0.22",
                "--ipd-mm", "63"]
        _, peak = _traced_peak(lambda _: main(argv), path)
        assert peak < held + self.TRANSFORM_CHUNKS * self.CHUNK

    @pytest.mark.parametrize("beta", [0.004, 0.0])
    def test_transform_points(self, beta):
        """The remap kernel evaluates a block of rows at a time into its
        output, the zero-shift copy included."""
        points = np.random.default_rng(10).uniform(0.2, 0.5, (100_000, 3))
        out, peak = _traced_peak(
            lambda p: transform_points(p, EyeGeometry(ipd=0.063),
                                       PerturbationParams(beta)), points)
        block = correction._BLOCK_ROWS * 3 * 8
        assert len(points) > 10 * correction._BLOCK_ROWS
        assert peak < out.nbytes + self.KERNEL_BLOCKS * block

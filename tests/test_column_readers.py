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
the package writes.
"""

from __future__ import annotations

import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import vackit.fitting as fitting
import vackit.kinematics as kin
import vackit.meshio as meshio
from vackit.cli import main
from vackit.fitting import FitDataset
from vackit.kinematics import OUTCOME_HEADER, read_trajectories_csv
from vackit.correction import MeshModel
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
# Ids about the width of the parsed trial_id field: one of 32 characters or
# more may have been cut, so the fast path leaves it to the row loop.
LONG_IDS = ["i" * 31, "i" * 32, "\u00fc" * 33, "i" * 31 + ","]
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
def _obj_line(draw, kind: str, n_vertices: int) -> str:
    """One well-formed v, f or other line, given the vertices before it."""
    if kind == "v":
        n_fields = draw(st.sampled_from([3, 3, 3, 4, 6]))
        return "v " + " ".join(repr(draw(st.floats())) for _ in range(n_fields))
    if kind == "f" and n_vertices:
        tokens = []
        for _ in range(draw(st.sampled_from([3, 4, 5]))):
            ref = draw(st.integers(1, n_vertices))
            if draw(st.booleans()):
                ref -= n_vertices + 1   # the same vertex, counted back
            style = draw(st.sampled_from(["{}", "{}/1", "{}//1", "{}/1/1"]))
            tokens.append(style.format(ref))
        return "f " + " ".join(tokens)
    return draw(st.sampled_from(OTHER_LINES))


def _edit_obj_line(draw, line: str, n_vertices: int) -> str:
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
        fields[0] = str(draw(st.sampled_from([n_vertices + 1, -n_vertices - 1])))
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
    vertices in each token form, with positive and negative references;
    a few faults or hazards (a spelling, a bare tag, a 2-vertex face, an
    out-of-range reference, odd whitespace); LF or CRLF line ends and
    rarely a lone CR, a BOM or an undecodable byte."""
    kinds = draw(st.lists(st.sampled_from(["v", "v", "v", "f", "f", "other"]),
                          max_size=30))
    lines, before, n_vertices = [], [], 0
    for kind in kinds:
        lines.append(draw(_obj_line(kind, n_vertices)))
        before.append(n_vertices)
        n_vertices += kind == "v"
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if lines else 0):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = _edit_obj_line(draw, lines[i], before[i])
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
    ], ids=["two-vertex-face", "bare-v", "bare-f", "leading-space", "tab",
            "lone-cr", "long-ref", "nel", "trailing-space", "early-negative"])
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
        text_chars = fitting._OUTCOME_DTYPE["participant_id"].itemsize // 4
        assert max(len(repr(reach)) for reach in reaches) >= text_chars
        with _row_loop_only(fitting):
            want = _outcomes_result(path)
        calls = self._count_outcome_rows(monkeypatch)
        got = _outcomes_result(path)
        assert got == want
        assert calls == []
        assert np.frombuffer(got[2]).tolist() == reaches * 6

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

    @pytest.mark.parametrize("n_chars", [31, 32])
    def test_trial_id_width(self, tmp_path, monkeypatch, n_chars):
        """A trial id of 31 characters is parsed in C; one of 32 fills the
        parsed field, may have been cut, and is left to the row loop."""
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
        assert calls == ([] if n_chars < 32 else [path])

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

"""Parameter recovery from reaching errors.

Fits a vergence-offset model to per-trial distance errors: a single shared
offset angle plus one interpupillary distance per participant, compared
against a null variant with the offset pinned to zero.

Each residual depends on the offset and on its own participant's distance
only, so the with-offset fit is solved by one bounded Levenberg-Marquardt
loop whose normal equations are an arrowhead: a Schur complement on the
offset column forms each step in O(rows + participants).  The zero-offset
variant predicts zero for every row and needs no solve.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import DataFormatError, DomainError, FitError
from .geometry import IPD_BOUND_M, angles_at
from .kinematics import OUTCOME_HEADER, EyePose
from .meshio import _column_chunks, _csv_records, _row_bound, _runs
from .perception import BETA_BOUND_RAD, fixated_distance_error

__all__ = [
    "IdentifiabilityWarning",
    "FitDataset",
    "ModelSpec",
    "GoodnessOfFit",
    "FitResult",
    "ComparisonRow",
    "residuals",
    "goodness_of_fit",
    "fit",
    "compare_models_detailed",
    "write_comparison_csv",
    "fit_result_to_dict",
    "write_fit_json",
]

VARIANT_WITH_OFFSET = "with-offset"
VARIANT_ZERO_OFFSET = "zero-offset"
VARIANTS = (VARIANT_WITH_OFFSET, VARIANT_ZERO_OFFSET)

DEFAULT_IPD_BOUNDS = (0.045, 0.080)
DEFAULT_BETA_BOUNDS = (-BETA_BOUND_RAD, BETA_BOUND_RAD)
DEFAULT_IPD_INIT = 0.063
DEFAULT_TRAIN_FRACTION = 0.70

# Levenberg-Marquardt damping and stop rule
LAMBDA_INIT = 1e-3
LAMBDA_MAX = 1e8
LAMBDA_MIN = 1e-14
FTOL = 1e-10
XTOL = 1e-12
MAX_ITER = 200
# Accepted steps are extended by repeated doubling while the residual keeps
# improving; long flat valleys otherwise take hundreds of tiny steps.
MAX_EXTEND = 1024


class IdentifiabilityWarning(UserWarning):
    """A participant contributes too few distinct reach distances."""


def _dict_row(header: list[str], row: list[str]) -> dict:
    """row as csv.DictReader maps it: missing fields None, extras under None."""
    out: dict = dict(zip(header, row))
    if len(row) > len(header):
        out[None] = row[len(header):]
    for name in header[len(row):]:
        out[name] = None
    return out


# The required outcomes columns, in the order the readers return them.
_OUTCOME_COLUMNS = ("participant_id", "condition", "target_reach_m",
                    "distance_error_m")
# The rows of an outcomes file with OUTCOME_HEADER as the column parse reads
# them: the required columns, then valid.
_OUTCOME_DTYPE = np.dtype([("participant_id", object), ("condition", object),
                           ("target_reach_m", np.float64),
                           ("distance_error_m", np.float64), ("valid", object)])


def _read_outcome_rows(path: Path) -> tuple:
    """FitDataset.from_csv's columns by a csv.reader row loop, one float()
    per field."""
    pids: list[str] = []
    conds: list[str] = []
    reach = array("d")
    error = array("d")
    records = _csv_records(path)
    header = next(records)
    column = {name: i for i, name in enumerate(header)}
    if not set(_OUTCOME_COLUMNS).issubset(column):
        raise DataFormatError(
            f"missing columns {sorted(set(_OUTCOME_COLUMNS) - set(column))}",
            str(path), 1)
    i_pid, i_cond, i_reach, i_err = map(column.__getitem__, _OUTCOME_COLUMNS)
    i_valid = column.get("valid")
    width = len(header)
    for line_no, row in records:
        fields = row if len(row) >= width else \
            row + [None] * (width - len(row))
        if i_valid is not None and fields[i_valid] not in (None, "", "1"):
            continue
        try:
            reach_m, error_m = float(fields[i_reach]), float(fields[i_err])
        except (TypeError, ValueError):
            problem = "bad numeric fields"
        else:
            problem = ("target_reach_m must be finite and positive"
                       if not (math.isfinite(reach_m) and reach_m > 0)
                       else "distance_error_m must be finite"
                       if not math.isfinite(error_m)
                       else "bad text fields"
                       if None in (fields[i_pid], fields[i_cond]) else "")
        if problem:
            raise DataFormatError(f"{problem} in {_dict_row(header, row)!r}",
                                  str(path), line_no)
        pids.append(fields[i_pid])
        conds.append(fields[i_cond])
        reach.append(reach_m)
        error.append(error_m)
    if not pids:
        raise DataFormatError("no usable rows", str(path))
    return pids, conds, np.frombuffer(reach), np.frombuffer(error)


def _read_outcome_columns(fh) -> tuple | None:
    """FitDataset.from_csv's columns, parsed in C, or None.

    fh is the outcomes file opened in binary mode at its start.  Each chunk
    of rows is parsed by _column_chunks, its text fields as Python
    strings; the rows the valid field keeps fill one (2, rows) reach and
    error array sized before the parse, and give their participant id and
    condition once per run of rows that share both, so the columns of a
    file grouped by participant keep one string per run, not per row.

    Returns None whenever the columns might differ from the row loop's: a
    header other than OUTCOME_HEADER, a row _column_chunks refuses (a
    rejected row with empty numbers, as analyze writes it, included), a
    number that FitDataset would refuse, or no kept rows.  The caller then
    reruns the row loop, which alone words errors and numbers lines.
    """
    heads, lengths = [], []  # per run: (participant_id, condition), rows
    columns, end = np.empty((2, _row_bound(fh))), 0
    try:
        for rows in _column_chunks(fh, ",".join(OUTCOME_HEADER), _OUTCOME_DTYPE):
            keep = (rows["valid"] == "1") | (rows["valid"] == "")
            if not keep.all():
                rows = rows[keep]
            if not len(rows):
                continue
            first_values, counts = _runs(rows[["participant_id", "condition"]])
            heads += first_values
            lengths += counts.tolist()
            columns[:, end:end + len(rows)] = (rows["target_reach_m"],
                                               rows["distance_error_m"])
            end += len(rows)
    except ValueError:  # UnicodeDecodeError included
        return None
    reach_m, error_m = columns[:, :end]
    if not (end and np.isfinite(reach_m).all() and (reach_m > 0).all()
            and np.isfinite(error_m).all()):
        return None
    pids, conditions = zip(*heads)
    return (np.repeat(np.array(pids, dtype=object), lengths),
            np.repeat(np.array(conditions, dtype=object), lengths),
            reach_m, error_m)


@dataclass(frozen=True)
class FitDataset:
    """Per-trial distance errors keyed by participant and condition.

    All rows share a unit convention: reach distances and errors in meters.
    participants (the sorted participant ids) and participant_code (each
    row's index into them) are worked out from participant_id, one lookup
    per run of equal ids, so they always match it.
    """

    participant_id: np.ndarray
    condition: np.ndarray
    target_reach: np.ndarray
    distance_error: np.ndarray
    participants: list[str] = field(init=False, repr=False)
    participant_code: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = len(self.participant_id)
        if n == 0:
            raise DomainError("dataset is empty")
        for name, dtype in (("participant_id", object), ("condition", object),
                            ("target_reach", np.float64),
                            ("distance_error", np.float64)):
            if len(getattr(self, name)) != n:
                raise DomainError("dataset columns differ in length")
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if not np.all(np.isfinite(self.target_reach)) or np.any(self.target_reach <= 0):
            raise DomainError("target reach distances must be finite and positive")
        if not np.all(np.isfinite(self.distance_error)):
            raise DomainError("distance errors must be finite")
        heads, counts = _runs(self.participant_id)
        participants = sorted(set(heads))
        code_of = {pid: i for i, pid in enumerate(participants)}
        object.__setattr__(self, "participants", participants)
        object.__setattr__(self, "participant_code", np.repeat(
            np.array([code_of[pid] for pid in heads], dtype=np.int64), counts))

    def __len__(self) -> int:
        return len(self.participant_id)

    @property
    def conditions(self) -> list[str]:
        return sorted(set(self.condition.tolist()))

    @classmethod
    def from_rows(cls, rows: list[tuple[str, str, float, float]]) -> "FitDataset":
        """Build from (participant_id, condition, reach_m, distance_error_m)."""
        if not rows:
            raise DomainError("dataset is empty")
        pid, cond, reach, err = zip(*rows)
        return cls(np.array(pid, dtype=object), np.array(cond, dtype=object),
                   np.array(reach, dtype=float), np.array(err, dtype=float))

    @classmethod
    def from_csv(cls, path: str | Path) -> "FitDataset":
        """Read from an outcomes CSV.

        Requires columns participant_id, condition, target_reach_m and
        distance_error_m; when a valid column is present, rows whose valid
        field is neither empty nor 1 are skipped.

        Fields are read by position, as csv.DictReader would map them: the
        last column of a repeated name wins, a missing trailing field reads
        None, and blank rows are skipped.  A row missing a required field
        is a DataFormatError ("bad numeric fields" before "bad text
        fields"), and so is a kept row whose reach is not finite and
        positive or whose distance error is not finite.  An error names the
        physical line its row ends on: blank lines and quoted newlines
        count.  A field longer than csv.field_size_limit() is a
        DataFormatError too.

        A file with the header vackit writes (OUTCOME_HEADER) is parsed in
        C a bounded chunk of lines at a time, and the rows the valid field
        rejects are dropped after the parse.  A file that parse cannot
        promise the row loop's result for (another header, quoted fields,
        a rejected row with empty numbers, a malformed row, a non-finite
        value, ...) is read row by row instead, with the same columns and
        errors.
        """
        path = Path(path)
        with path.open("rb") as fh:
            columns = _read_outcome_columns(fh)
        return cls(*(_read_outcome_rows(path) if columns is None else columns))

    def select_condition(self, condition: str) -> "FitDataset":
        mask = self.condition == condition
        if not np.any(mask):
            raise DomainError(f"no rows for condition {condition!r}")
        if mask.all():
            return self  # one condition already: a copy would only double the rows
        return FitDataset(self.participant_id[mask], self.condition[mask],
                          self.target_reach[mask], self.distance_error[mask])

    def _cells(self) -> tuple[np.ndarray, list[int]]:
        """The row indices in (participant id, reach) order, by one stable
        lexsort, and the bounds of its (participant, reach) cells: cell j
        holds the rows order[bounds[j]:bounds[j + 1]], in ascending order.
        """
        order = np.lexsort((self.target_reach, self.participant_code))
        code, reach = self.participant_code[order], self.target_reach[order]
        starts = np.flatnonzero((code[1:] != code[:-1])
                                | (reach[1:] != reach[:-1])) + 1
        return order, [0, *starts.tolist(), len(order)]

    def split_indices(self, train_fraction: float = DEFAULT_TRAIN_FRACTION,
                      seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Train/test row indices, stratified by participant and distance.

        Each (participant, reach) cell, in _cells order, is shuffled in
        place as its view of the sorted rows and split at the train
        fraction, so both halves cover every cell; cells with one row go to
        the training half.  The seed must be a non-negative integer.
        """
        if not (0.0 < train_fraction < 1.0):
            raise DomainError(f"train fraction must be in (0, 1), got {train_fraction!r}")
        if seed < 0:
            raise DomainError(f"split seed must be >= 0, got {seed!r}")
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        train = np.zeros(len(self), dtype=bool)
        order, bounds = self._cells()
        for a, b in zip(bounds, bounds[1:]):
            cell = order[a:b]
            rng.shuffle(cell)
            n = b - a
            n_train = int(round(train_fraction * n))
            n_train = min(max(n_train, 1), n - 1) if n >= 2 else n
            train[cell[:n_train]] = True
        return np.flatnonzero(train), np.flatnonzero(~train)


@dataclass(frozen=True)
class ModelSpec:
    """Model variant plus fit configuration.

    The with-offset variant estimates one shared offset angle and one
    interpupillary distance per participant; the zero-offset variant pins
    the offset to zero, predicting no systematic error at all, and keeps
    the per-participant distances as inert parameters so the two variants
    differ by exactly one degree of freedom.
    """

    variant: str = VARIANT_WITH_OFFSET
    eye_pose: EyePose = field(default_factory=EyePose)
    ipd_bounds: tuple[float, float] = DEFAULT_IPD_BOUNDS
    beta_bounds: tuple[float, float] = DEFAULT_BETA_BOUNDS

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise DomainError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        # within the ranges EyeGeometry and PerturbationParams accept
        lo, hi = self.ipd_bounds
        if not (0.0 < lo < hi < IPD_BOUND_M):
            raise DomainError(f"interpupillary bounds must satisfy 0 < low < high "
                              f"< {IPD_BOUND_M} m, got {self.ipd_bounds!r}")
        blo, bhi = self.beta_bounds
        if not (-BETA_BOUND_RAD <= blo < 0.0 < bhi <= BETA_BOUND_RAD):
            raise DomainError(f"offset bounds must straddle zero within "
                              f"[-{BETA_BOUND_RAD}, {BETA_BOUND_RAD}] rad, "
                              f"got {self.beta_bounds!r}")


@dataclass(frozen=True)
class GoodnessOfFit:
    n: int
    rss: float
    r2: float
    bic: float


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters and split-wise fit quality.

    k counts the parameters each split's BIC charges: one distance per
    participant, plus the offset in the with-offset variant.  notes holds
    the texts of the IdentifiabilityWarnings the fit issued, in participant
    order.
    """

    variant: str
    beta: float
    ipd: dict[str, float]
    k: int
    train: GoodnessOfFit
    test: GoodnessOfFit
    n_iter: int
    converged: bool
    stop_reason: str
    notes: tuple[str, ...] = ()


def residuals(x: np.ndarray, observed: np.ndarray, pidx: np.ndarray,
              eye_distance: np.ndarray) -> np.ndarray:
    """Predicted minus observed distance error of the with-offset model at
    x = (beta, ipd_0, ..., ipd_{P-1}), one entry per row."""
    return fixated_distance_error(eye_distance, x[1 + pidx], float(x[0])) \
        - observed


def _derivatives(x: np.ndarray, pidx: np.ndarray,
                 eye_distance: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The residual Jacobian as its two row vectors (d_beta, d_ipd).

    Each row depends on beta and on its own participant's interpupillary
    distance only.  With pred = (i/2)/tan(v) - d, v = (angle(d, i) + beta)/2:
      d pred/d beta = -(i/4)/sin(v)^2
      d pred/d i    = cot(v)/2 - (i/4)/sin(v)^2 * d angle/d i
    where d angle/d i = 1/(d*(1+u^2)) with u = i/(2d).
    """
    beta = float(x[0])
    ipd_rows = x[1 + pidx]
    d = eye_distance
    tau = angles_at(d, ipd_rows / 2.0)
    v = (tau + beta) / 2.0
    csc2 = 1.0 / np.sin(v) ** 2
    d_beta = -(ipd_rows / 4.0) * csc2
    u = ipd_rows / (2.0 * d)
    dtau_dipd = 1.0 / (d * (1.0 + u * u))
    d_ipd = 0.5 / np.tan(v) - (ipd_rows / 4.0) * csc2 * dtau_dipd
    return d_beta, d_ipd


def _normal_equations(d_beta: np.ndarray, d_ipd: np.ndarray, pidx: np.ndarray,
                      n_groups: int, r: np.ndarray):
    """(diag(J'J), solve), where solve(damping) is the step of
    (J'J + diag(damping)) step = -J'r.

    Row i of J holds d_beta[i] in column 0 and d_ipd[i] in column
    1 + pidx[i], so J'J is an arrowhead.  With g = J'r, a = d_beta.d_beta,
    and w, c the per-participant sums of d_ipd^2 and d_beta*d_ipd, the
    damped step is a Schur complement on the offset column: for
    D = w + damping[1:],
      step_0 = (-g_0 + sum(c*g_p/D)) / (a + damping_0 - sum(c^2/D)),
      step_p = (-g_p - c*step_0) / D.
    Both cost O(rows + n_groups); no dense matrix is formed.
    """
    w = np.bincount(pidx, d_ipd * d_ipd, n_groups)
    g_groups = np.bincount(pidx, d_ipd * r, n_groups)
    a = float(d_beta @ d_beta)
    g0 = float(d_beta @ r)
    c = np.bincount(pidx, d_beta * d_ipd, n_groups)

    def solve(damping: np.ndarray) -> np.ndarray:
        D = w + damping[1:]
        c_over_d = c / D
        # the Schur denominator is positive but can round to zero at the
        # smallest damping; the loop rejects the non-finite step and raises
        # the damping
        with np.errstate(divide="ignore", invalid="ignore"):
            step0 = (-g0 + c_over_d @ g_groups) / (a + damping[0] - c_over_d @ c)
        return np.concatenate(([step0], (-g_groups - c * step0) / D))

    return np.concatenate(([a], w)), solve


def _rss(r: np.ndarray) -> float:
    if not np.all(np.isfinite(r)):
        return float("inf")
    return float(r @ r)


def levenberg_marquardt(
    residual: Callable[[np.ndarray], np.ndarray],
    derivatives: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    pidx: np.ndarray,
    x0: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> tuple[np.ndarray, int, bool, str]:
    """Minimize sum(residual(x)**2) subject to lower <= x <= upper.

    x = (beta, one value per group); derivatives(x) returns each row's
    derivative by beta and by its group's value, and pidx each row's group.
    Trial points are projected onto the box, the damping factor is scaled
    by diag(J'J) (unit scale where a diagonal entry vanishes), and rejected
    steps raise the damping tenfold.  Stops, converged, when an accepted
    step reduces the residual sum of squares by a relative factor below
    FTOL (1e-10), or when the projected step is below XTOL (1e-12) in the
    infinity norm.  Otherwise it stops, not converged, on "damping_limit"
    when the damping factor passes LAMBDA_MAX (1e8) without an acceptable
    step, keeping the last accepted x, or on "max_iter" after MAX_ITER
    iterations.  Returns (x, n_iter, converged, stop_reason).

    Raises:
        FitError: If the starting residual is not finite.
    """
    x = np.clip(np.asarray(x0, dtype=np.float64), lower, upper)
    r = residual(x)
    rss = _rss(r)
    if not np.isfinite(rss):
        raise FitError("residual is not finite at the starting point")
    lam = LAMBDA_INIT
    n_iter = 0
    converged = False
    reason = "max_iter"
    for n_iter in range(1, MAX_ITER + 1):
        diag, solve = _normal_equations(*derivatives(x), pidx, len(x) - 1, r)
        scale = np.where(diag > 0, diag, 1.0)
        while True:
            step = solve(lam * scale)
            if np.all(np.isfinite(step)):
                x_new = np.clip(x + step, lower, upper)
                if np.max(np.abs(x_new - x)) < XTOL:
                    converged = True
                    reason = "step_tolerance"
                    break
                r_new = residual(x_new)
                rss_new = _rss(r_new)
                if rss_new < rss:
                    k = 1
                    while k < MAX_EXTEND:
                        x_ext = np.clip(x + (2 * k) * step, lower, upper)
                        r_ext = residual(x_ext)
                        rss_ext = _rss(r_ext)
                        if rss_ext < rss_new:
                            x_new, r_new, rss_new = x_ext, r_ext, rss_ext
                            k *= 2
                        else:
                            break
                    reduction = (rss - rss_new) / rss if rss > 0 else 0.0
                    x, r, rss = x_new, r_new, rss_new
                    lam = max(lam / 10.0, LAMBDA_MIN)
                    if reduction < FTOL:
                        converged = True
                        reason = "rss_tolerance"
                    break
            lam *= 10.0
            if lam > LAMBDA_MAX:
                return x, n_iter, False, "damping_limit"
        if converged:
            break
    return x, n_iter, converged, reason


def goodness_of_fit(observed: np.ndarray, predicted: np.ndarray,
                    k: int) -> GoodnessOfFit:
    """RSS, r-squared about this split's mean, and BIC = n*ln(RSS/n) + k*ln(n).

    Raises:
        DomainError: If n <= k, where the BIC is undefined.
    """
    observed = np.asarray(observed, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    n = len(observed)
    if n <= k:
        raise DomainError(f"need more observations than parameters (n={n}, k={k})")
    res = observed - predicted
    rss = float(res @ res)
    tss = float(np.sum((observed - observed.mean()) ** 2))
    r2 = 1.0 - rss / tss if tss > 0 else float("nan")
    bic = n * math.log(max(rss, 1e-300) / n) + k * math.log(n)
    return GoodnessOfFit(n=n, rss=rss, r2=r2, bic=bic)


def fit(dataset: FitDataset, spec: ModelSpec,
        train_fraction: float = DEFAULT_TRAIN_FRACTION,
        split_seed: int = 0) -> FitResult:
    """Fit one model variant on the training split, score both splits.

    Emits an IdentifiabilityWarning, and keeps its text in the result's
    notes, for each participant with fewer than two distinct reach
    distances in the training rows; a single distance cannot separate the
    offset from that participant's interpupillary distance.  Raises
    DomainError, whatever the variant, if spec.eye_pose puts the eye at a
    target or at no finite distance from it, and, before anything is
    solved, if either split has no more rows than the k parameters its BIC
    charges.
    """
    participants, pidx = dataset.participants, dataset.participant_code
    eye_distance = spec.eye_pose.eye_distance(dataset.target_reach)
    bad = np.flatnonzero(~(np.isfinite(eye_distance) & (eye_distance > 0)))
    if len(bad):
        raise DomainError(
            f"eye_pose puts the eye {float(eye_distance[bad[0]])!r} m from "
            f"the target at reach {float(dataset.target_reach[bad[0]])!r} m; "
            f"eye distances must be finite and positive")
    order, bounds = dataset._cells()
    idx_train, idx_test = dataset.split_indices(train_fraction, split_seed)
    n = len(participants)
    k = n + (spec.variant == VARIANT_WITH_OFFSET)
    for half, rows in (("training", idx_train), ("test", idx_test)):
        if len(rows) <= k:
            raise DomainError(
                f"the {half} split has {len(rows)} rows, not more than the "
                f"k={k} parameters of the {spec.variant} fit: each "
                f"(participant, reach) cell splits at the train fraction, and "
                f"a cell of one row goes to training whole")
    obs_train = dataset.distance_error[idx_train]
    obs_test = dataset.distance_error[idx_test]

    # every cell keeps a training row, so the training rows hold each
    # participant's cells, one per distinct reach
    n_reaches = np.bincount(pidx[order[bounds[:-1]]],
                            minlength=len(participants))
    notes = tuple(
        f"participant {participants[p]!r} has fewer than two distinct "
        f"reach distances in the training rows; the offset and that "
        f"participant's interpupillary distance are not separable"
        for p in np.flatnonzero(n_reaches < 2))
    for note in notes:
        warnings.warn(note, IdentifiabilityWarning, stacklevel=2)

    if spec.variant == VARIANT_ZERO_OFFSET:
        # the model predicts zero for every row, so nothing is solved: the
        # inert distances stay at their start value, clipped into the bounds
        beta = 0.0
        ipd_vec = np.clip(np.full(n, DEFAULT_IPD_INIT), *spec.ipd_bounds)
        pred_train, pred_test = np.zeros(len(idx_train)), np.zeros(len(idx_test))
        n_iter, converged, stop_reason = 0, True, "closed_form"
    else:
        pidx_train, d_train = pidx[idx_train], eye_distance[idx_train]
        x0 = np.full(1 + n, DEFAULT_IPD_INIT)
        x0[0] = 0.0
        lower = np.full(1 + n, spec.ipd_bounds[0])
        upper = np.full(1 + n, spec.ipd_bounds[1])
        lower[0], upper[0] = spec.beta_bounds
        x, n_iter, converged, stop_reason = levenberg_marquardt(
            lambda x: residuals(x, obs_train, pidx_train, d_train),
            lambda x: _derivatives(x, pidx_train, d_train),
            pidx_train, x0, lower, upper,
        )
        beta, ipd_vec = float(x[0]), x[1:]
        pred_train = fixated_distance_error(d_train, ipd_vec[pidx_train], beta)
        pred_test = fixated_distance_error(eye_distance[idx_test],
                                           ipd_vec[pidx[idx_test]], beta)
    return FitResult(
        variant=spec.variant,
        beta=beta,
        ipd=dict(zip(participants, ipd_vec.tolist())),
        k=k,
        train=goodness_of_fit(obs_train, pred_train, k),
        test=goodness_of_fit(obs_test, pred_test, k),
        n_iter=n_iter,
        converged=converged,
        stop_reason=stop_reason,
        notes=notes,
    )


@dataclass(frozen=True)
class ComparisonRow:
    """One model variant's fit within one condition."""

    condition: str
    result: FitResult
    selected: bool


def compare_models_detailed(
    dataset: FitDataset, eye_pose: EyePose | None = None,
    ipd_bounds: tuple[float, float] = DEFAULT_IPD_BOUNDS,
    beta_bounds: tuple[float, float] = DEFAULT_BETA_BOUNDS,
    train_fraction: float = DEFAULT_TRAIN_FRACTION,
    split_seed: int = 0,
) -> list[ComparisonRow]:
    """Fit both variants per condition, one row each, and select in each
    condition the converged variant with the lower test BIC.

    The zero-offset variant is closed form and always converged, so every
    condition selects one variant; a with-offset fit that did not converge
    is never selected.
    """
    eye_pose = eye_pose or EyePose()
    rows: list[ComparisonRow] = []
    for condition in dataset.conditions:
        subset = dataset.select_condition(condition)
        results = [fit(subset, ModelSpec(variant=variant, eye_pose=eye_pose,
                                         ipd_bounds=ipd_bounds,
                                         beta_bounds=beta_bounds),
                       train_fraction, split_seed)
                   for variant in VARIANTS]
        best = min((res for res in results if res.converged),
                   key=lambda res: res.test.bic)
        rows += [ComparisonRow(condition, res, res is best) for res in results]
    return rows


COMPARISON_HEADER = [
    "condition", "variant", "k", "rss_train", "rss_test", "r2_train",
    "r2_test", "bic_train", "bic_test", "beta_deg", "selected",
]


def write_comparison_csv(rows: list[ComparisonRow], path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COMPARISON_HEADER)
        for row in rows:
            res = row.result
            writer.writerow([
                row.condition, res.variant, str(res.k),
                repr(res.train.rss), repr(res.test.rss),
                repr(res.train.r2), repr(res.test.r2),
                repr(res.train.bic), repr(res.test.bic),
                repr(math.degrees(res.beta)),
                "1" if row.selected else "0",
            ])


def fit_result_to_dict(result: FitResult) -> dict:
    """JSON-ready view with both SI and display units."""
    return {
        "variant": result.variant,
        "beta_rad": result.beta,
        "beta_deg": math.degrees(result.beta),
        "ipd_m": dict(sorted(result.ipd.items())),
        "ipd_mm": {pid: val * 1000.0 for pid, val in sorted(result.ipd.items())},
        "n_iter": result.n_iter,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "train": {"n": result.train.n, "rss": result.train.rss,
                  "r2": result.train.r2, "bic": result.train.bic},
        "test": {"n": result.test.n, "rss": result.test.rss,
                 "r2": result.test.r2, "bic": result.test.bic},
    }


def write_fit_json(result: FitResult, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(fit_result_to_dict(result), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

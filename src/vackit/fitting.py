"""Parameter recovery from reaching errors.

Fits a vergence-offset model to per-trial distance errors: a single shared
offset angle plus one interpupillary distance per participant, compared
against a null variant with the offset pinned to zero.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataFormatError, DomainError
from .kinematics import EyePose
from .marquardt import ArrowheadJacobian, LMResult, levenberg_marquardt
from .perception import fixated_distance_error

__all__ = [
    "IdentifiabilityWarning",
    "FitDataset",
    "ModelSpec",
    "GoodnessOfFit",
    "FitResult",
    "ComparisonRow",
    "residuals",
    "jacobian",
    "goodness_of_fit",
    "fit",
    "compare_models",
    "compare_models_detailed",
    "write_comparison_csv",
    "fit_result_to_dict",
    "write_fit_json",
]

VARIANT_WITH_OFFSET = "with-offset"
VARIANT_ZERO_OFFSET = "zero-offset"
VARIANTS = (VARIANT_WITH_OFFSET, VARIANT_ZERO_OFFSET)

DEFAULT_IPD_BOUNDS = (0.045, 0.080)
DEFAULT_BETA_BOUNDS = (-0.05, 0.05)
DEFAULT_IPD_INIT = 0.063
DEFAULT_TRAIN_FRACTION = 0.70


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


@dataclass(frozen=True)
class FitDataset:
    """Per-trial distance errors keyed by participant and condition.

    All rows share a unit convention: reach distances and errors in meters.
    """

    participant_id: np.ndarray
    condition: np.ndarray
    target_reach: np.ndarray
    distance_error: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.participant_id)
        if n == 0:
            raise DomainError("dataset is empty")
        for name in ("condition", "target_reach", "distance_error"):
            if len(getattr(self, name)) != n:
                raise DomainError("dataset columns differ in length")
        object.__setattr__(self, "participant_id",
                           np.asarray(self.participant_id, dtype=object))
        object.__setattr__(self, "condition",
                           np.asarray(self.condition, dtype=object))
        object.__setattr__(self, "target_reach",
                           np.asarray(self.target_reach, dtype=np.float64))
        object.__setattr__(self, "distance_error",
                           np.asarray(self.distance_error, dtype=np.float64))
        if not np.all(np.isfinite(self.target_reach)) or np.any(self.target_reach <= 0):
            raise DomainError("target reach distances must be finite and positive")
        if not np.all(np.isfinite(self.distance_error)):
            raise DomainError("distance errors must be finite")

    def __len__(self) -> int:
        return len(self.participant_id)

    @property
    def participants(self) -> list[str]:
        return sorted(set(self.participant_id.tolist()))

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
        None, and blank rows are skipped without counting toward the
        reported line number.
        """
        path = Path(path)
        pids: list[str] = []
        conds: list[str] = []
        reach = array("d")
        error = array("d")
        with path.open("r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            column = {name: i for i, name in enumerate(header)}
            needed = {"participant_id", "condition", "target_reach_m",
                      "distance_error_m"}
            if not needed.issubset(column):
                raise DataFormatError(
                    f"missing columns {sorted(needed - set(column))}", str(path), 1
                )
            i_pid, i_cond, i_reach, i_err = (
                column["participant_id"], column["condition"],
                column["target_reach_m"], column["distance_error_m"])
            i_valid = column.get("valid")
            width = len(header)
            line_no = 1
            for row in reader:
                if not row:
                    continue
                line_no += 1
                fields = row if len(row) >= width else \
                    row + [None] * (width - len(row))
                if i_valid is not None and fields[i_valid] not in (None, "", "1"):
                    continue
                try:
                    reach_m, error_m = float(fields[i_reach]), float(fields[i_err])
                except (TypeError, ValueError):
                    raise DataFormatError(
                        f"bad numeric fields in {_dict_row(header, row)!r}",
                        str(path), line_no,
                    ) from None
                pids.append(fields[i_pid])
                conds.append(fields[i_cond])
                reach.append(reach_m)
                error.append(error_m)
        if not pids:
            raise DataFormatError("no usable rows", str(path))
        return cls(np.array(pids, dtype=object), np.array(conds, dtype=object),
                   np.frombuffer(reach), np.frombuffer(error))

    def select_condition(self, condition: str) -> "FitDataset":
        mask = self.condition == condition
        if not np.any(mask):
            raise DomainError(f"no rows for condition {condition!r}")
        return FitDataset(self.participant_id[mask], self.condition[mask],
                          self.target_reach[mask], self.distance_error[mask])

    def split_indices(self, train_fraction: float = DEFAULT_TRAIN_FRACTION,
                      seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Train/test row indices, stratified by participant and distance.

        Each (participant, reach) cell is shuffled and split at the train
        fraction so both halves cover every cell; cells with one row go to
        the training half.
        """
        if not (0.0 < train_fraction < 1.0):
            raise DomainError(f"train fraction must be in (0, 1), got {train_fraction!r}")
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        train: list[int] = []
        test: list[int] = []
        cells: dict[tuple[str, float], list[int]] = {}
        for i in range(len(self)):
            key = (self.participant_id[i], float(self.target_reach[i]))
            cells.setdefault(key, []).append(i)
        for key in sorted(cells):
            idx = np.array(cells[key], dtype=np.int64)
            rng.shuffle(idx)
            n = len(idx)
            n_train = int(round(train_fraction * n))
            n_train = min(max(n_train, 1), n - 1) if n >= 2 else n
            train.extend(idx[:n_train].tolist())
            test.extend(idx[n_train:].tolist())
        return (np.array(sorted(train), dtype=np.int64),
                np.array(sorted(test), dtype=np.int64))

    def take(self, indices: np.ndarray) -> "FitDataset":
        return FitDataset(self.participant_id[indices], self.condition[indices],
                          self.target_reach[indices], self.distance_error[indices])


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
        lo, hi = self.ipd_bounds
        if not (0.0 < lo < hi):
            raise DomainError(f"bad interpupillary bounds {self.ipd_bounds!r}")
        blo, bhi = self.beta_bounds
        if not (blo < 0.0 < bhi):
            raise DomainError(f"offset bounds must straddle zero, got {self.beta_bounds!r}")


@dataclass(frozen=True)
class GoodnessOfFit:
    n: int
    rss: float
    r2: float
    bic: float


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters and split-wise fit quality."""

    variant: str
    beta: float
    ipd: dict[str, float]
    train: GoodnessOfFit
    test: GoodnessOfFit
    n_iter: int
    converged: bool
    stop_reason: str


def _prediction(beta: float, ipd_rows: np.ndarray, distance_rows: np.ndarray,
                variant: str) -> np.ndarray:
    if variant == VARIANT_ZERO_OFFSET:
        return np.zeros_like(distance_rows)
    return fixated_distance_error(distance_rows, ipd_rows, beta)


def residuals(x: np.ndarray, dataset: FitDataset, spec: ModelSpec,
              pidx: np.ndarray, eye_distance: np.ndarray) -> np.ndarray:
    """Predicted minus observed distance error, one entry per row."""
    if spec.variant == VARIANT_ZERO_OFFSET:
        beta, ipd_rows = 0.0, x[pidx]
    else:
        beta, ipd_rows = float(x[0]), x[1 + pidx]
    return _prediction(beta, ipd_rows, eye_distance, spec.variant) - dataset.distance_error


def _arrowhead(x: np.ndarray, spec: ModelSpec, pidx: np.ndarray,
               eye_distance: np.ndarray) -> ArrowheadJacobian:
    """The residual Jacobian as its two row vectors.

    Each row depends on beta and on its own participant's interpupillary
    distance only.  With pred = (i/2)/tan(v) - d, v = (angle(d, i) + beta)/2:
      d pred/d beta = -(i/4)/sin(v)^2
      d pred/d i    = cot(v)/2 - (i/4)/sin(v)^2 * d angle/d i
    where d angle/d i = 1/(d*(1+u^2)) with u = i/(2d).  The zero-offset
    variant has no beta column and predicts identically zero, so its
    entries vanish.
    """
    if spec.variant == VARIANT_ZERO_OFFSET:
        return ArrowheadJacobian(None, np.zeros(len(pidx)), pidx, len(x))
    beta = float(x[0])
    ipd_rows = x[1 + pidx]
    d = eye_distance
    tau = 2.0 * np.arctan2(ipd_rows / 2.0, d)
    v = (tau + beta) / 2.0
    csc2 = 1.0 / np.sin(v) ** 2
    d_beta = -(ipd_rows / 4.0) * csc2
    u = ipd_rows / (2.0 * d)
    dtau_dipd = 1.0 / (d * (1.0 + u * u))
    d_ipd = 0.5 / np.tan(v) - (ipd_rows / 4.0) * csc2 * dtau_dipd
    return ArrowheadJacobian(d_beta, d_ipd, pidx, len(x) - 1)


def jacobian(x: np.ndarray, dataset: FitDataset, spec: ModelSpec,
             pidx: np.ndarray, eye_distance: np.ndarray) -> np.ndarray:
    """Analytic Jacobian of the residual vector, as a dense rows x len(x)
    array; fit solves on the same derivatives without forming it."""
    return _arrowhead(x, spec, pidx, eye_distance).dense()


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


def _initial_point(spec: ModelSpec, n_participants: int,
                   x0: np.ndarray | None) -> np.ndarray:
    n_params = n_participants if spec.variant == VARIANT_ZERO_OFFSET \
        else 1 + n_participants
    if x0 is not None:
        x0 = np.asarray(x0, dtype=np.float64)
        if len(x0) != n_params:
            raise DomainError(f"x0 must have {n_params} entries, got {len(x0)}")
        return x0.copy()
    init = np.full(n_params, DEFAULT_IPD_INIT, dtype=np.float64)
    if spec.variant == VARIANT_WITH_OFFSET:
        init[0] = 0.0
    return init


def _bounds(spec: ModelSpec, n_participants: int) -> tuple[np.ndarray, np.ndarray]:
    ilo, ihi = spec.ipd_bounds
    if spec.variant == VARIANT_ZERO_OFFSET:
        return (np.full(n_participants, ilo), np.full(n_participants, ihi))
    blo, bhi = spec.beta_bounds
    lower = np.concatenate([[blo], np.full(n_participants, ilo)])
    upper = np.concatenate([[bhi], np.full(n_participants, ihi)])
    return lower, upper


def fit(dataset: FitDataset, spec: ModelSpec,
        train_fraction: float = DEFAULT_TRAIN_FRACTION, split_seed: int = 0,
        x0: np.ndarray | None = None) -> FitResult:
    """Fit one model variant on the training split, score both splits.

    Emits an IdentifiabilityWarning when any participant contributes fewer
    than two distinct reach distances to the training rows; a single
    distance cannot separate the offset from that participant's
    interpupillary distance.
    """
    participant_ids, pidx = np.unique(dataset.participant_id,
                                      return_inverse=True)
    participants = participant_ids.tolist()
    eye_distance = spec.eye_pose.eye_distance(dataset.target_reach)

    idx_train, idx_test = dataset.split_indices(train_fraction, split_seed)
    train_ds, test_ds = dataset.take(idx_train), dataset.take(idx_test)
    pidx_train, pidx_test = pidx[idx_train], pidx[idx_test]
    d_train, d_test = eye_distance[idx_train], eye_distance[idx_test]

    cells = np.unique(np.column_stack((pidx_train, train_ds.target_reach)),
                      axis=0)
    n_reaches = np.bincount(cells[:, 0].astype(np.int64),
                            minlength=len(participants))
    for p in np.flatnonzero(n_reaches < 2):
        warnings.warn(
            f"participant {participants[p]!r} has fewer than two distinct "
            f"reach distances in the training rows; the offset and that "
            f"participant's interpupillary distance are not separable",
            IdentifiabilityWarning,
            stacklevel=2,
        )

    x_init = _initial_point(spec, len(participants), x0)
    lower, upper = _bounds(spec, len(participants))
    lm: LMResult = levenberg_marquardt(
        lambda x: residuals(x, train_ds, spec, pidx_train, d_train),
        lambda x: _arrowhead(x, spec, pidx_train, d_train),
        x_init, lower, upper,
    )

    if spec.variant == VARIANT_ZERO_OFFSET:
        beta, ipd_vec = 0.0, lm.x
    else:
        beta, ipd_vec = float(lm.x[0]), lm.x[1:]
    ipd = dict(zip(participants, ipd_vec.tolist()))
    k = len(lm.x)
    pred_test = _prediction(beta, ipd_vec[pidx_test], d_test, spec.variant)
    pred_train = _prediction(beta, ipd_vec[pidx_train], d_train, spec.variant)
    return FitResult(
        variant=spec.variant,
        beta=beta,
        ipd=ipd,
        train=goodness_of_fit(train_ds.distance_error, pred_train, k),
        test=goodness_of_fit(test_ds.distance_error, pred_test, k),
        n_iter=lm.n_iter,
        converged=lm.converged,
        stop_reason=lm.stop_reason,
    )


@dataclass(frozen=True)
class ComparisonRow:
    """One model variant's scores within one condition."""

    condition: str
    variant: str
    k: int
    rss_train: float
    rss_test: float
    r2_train: float
    r2_test: float
    bic_train: float
    bic_test: float
    beta: float
    selected: bool


def compare_models_detailed(
    dataset: FitDataset, eye_pose: EyePose | None = None,
    ipd_bounds: tuple[float, float] = DEFAULT_IPD_BOUNDS,
    beta_bounds: tuple[float, float] = DEFAULT_BETA_BOUNDS,
    train_fraction: float = DEFAULT_TRAIN_FRACTION,
    split_seed: int = 0,
) -> tuple[list[ComparisonRow], dict[tuple[str, str], FitResult]]:
    """As compare_models, additionally returning every underlying FitResult
    keyed by (condition, variant)."""
    eye_pose = eye_pose or EyePose()
    rows: list[ComparisonRow] = []
    all_results: dict[tuple[str, str], FitResult] = {}
    for condition in dataset.conditions:
        subset = dataset.select_condition(condition)
        results: dict[str, FitResult] = {}
        for variant in VARIANTS:
            spec = ModelSpec(variant=variant, eye_pose=eye_pose,
                             ipd_bounds=ipd_bounds, beta_bounds=beta_bounds)
            results[variant] = fit(subset, spec, train_fraction, split_seed)
            all_results[(condition, variant)] = results[variant]
        best = min(VARIANTS, key=lambda v: results[v].test.bic)
        for variant in VARIANTS:
            res = results[variant]
            rows.append(ComparisonRow(
                condition=condition,
                variant=variant,
                k=(1 if variant == VARIANT_WITH_OFFSET else 0) + len(res.ipd),
                rss_train=res.train.rss,
                rss_test=res.test.rss,
                r2_train=res.train.r2,
                r2_test=res.test.r2,
                bic_train=res.train.bic,
                bic_test=res.test.bic,
                beta=res.beta,
                selected=(variant == best),
            ))
    return rows, all_results


def compare_models(dataset: FitDataset, eye_pose: EyePose | None = None,
                   ipd_bounds: tuple[float, float] = DEFAULT_IPD_BOUNDS,
                   beta_bounds: tuple[float, float] = DEFAULT_BETA_BOUNDS,
                   train_fraction: float = DEFAULT_TRAIN_FRACTION,
                   split_seed: int = 0) -> list[ComparisonRow]:
    """Fit both variants per condition; select the lower test BIC in each."""
    rows, _ = compare_models_detailed(dataset, eye_pose, ipd_bounds,
                                      beta_bounds, train_fraction, split_seed)
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
            writer.writerow([
                row.condition, row.variant, str(row.k),
                repr(row.rss_train), repr(row.rss_test),
                repr(row.r2_train), repr(row.r2_test),
                repr(row.bic_train), repr(row.bic_test),
                repr(math.degrees(row.beta)),
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

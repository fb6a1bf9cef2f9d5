"""Reference outcomes.csv writer for the byte-for-byte tests.

kinematics.write_outcomes_csv formats rows a chunk at a time; these are
the one-csv.writer-row-per-trial writer it replaced and the adapter that
turned ground-truth trials into analyzed trials for it.  Its output must
match theirs byte for byte.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from vackit.kinematics import OUTCOME_HEADER, AnalyzedTrial, TargetSpec, TrialOutcome


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def write_outcomes_csv_rowwise(analyzed: list[AnalyzedTrial],
                               path: str | Path) -> None:
    """Write one csv.writer row per analyzed trial, ordered as given."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(OUTCOME_HEADER)
        for item in analyzed:
            out, tgt = item.outcome, item.target
            seg = out.segment
            writer.writerow([
                out.trial_id, tgt.participant_id, tgt.condition,
                _fmt(tgt.reach_m if math.isfinite(tgt.reach_m) else None),
                "1" if out.valid else "0",
                out.rejection_reason or "",
                _fmt(seg.onset_time if seg else None),
                _fmt(seg.termination_time if seg else None),
                _fmt(out.movement_distance),
                _fmt(out.distance_error),
                _fmt(out.endpoint_error),
                _fmt(out.disparity_difference),
            ])


def trials_as_analyzed(trials) -> list[AnalyzedTrial]:
    """Adapt ground-truth trial records (one object per trial, every field
    an attribute) to analyzed trials."""
    out = []
    for trial in trials:
        target = TargetSpec(
            trial_id=trial.trial_id,
            reach_m=trial.reach_m,
            participant_id=trial.participant_id,
            condition=trial.condition,
            ipd_m=trial.ipd_m,
        )
        outcome = TrialOutcome(
            trial_id=trial.trial_id,
            valid=True,
            movement_distance=trial.movement_distance,
            distance_error=trial.distance_error,
            endpoint_error=trial.endpoint_error,
            disparity_difference=trial.disparity_difference,
        )
        out.append(AnalyzedTrial(target=target, outcome=outcome))
    return out

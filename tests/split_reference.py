"""Reference train/test split for the split tests.

FitDataset.split_indices groups rows into (participant, reach) cells with
one stable lexsort; this is the per-row dict loop it replaced.  Its arrays
must match this one's exactly.
"""

from __future__ import annotations

import numpy as np

from vackit.fitting import FitDataset


def split_indices_rowwise(dataset: FitDataset, train_fraction: float,
                          seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Shuffle each sorted (participant, reach) cell, split it at the
    fraction; one-row cells go to training."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    train: list[int] = []
    test: list[int] = []
    cells: dict[tuple[str, float], list[int]] = {}
    for i in range(len(dataset)):
        key = (dataset.participant_id[i], float(dataset.target_reach[i]))
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

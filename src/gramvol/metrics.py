"""Retrieval recall, the mean-volume alignment score, and correlation.

Retrieval ranks candidates per query row, smaller values first (volumes,
where smaller means more similar).  Ties are broken by candidate index,
which is pessimistic for the diagonal: a tied correct match only counts
as found when no lower-index candidate shares its value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateVarianceError,
    DimensionMismatchError,
    EmptyInputError,
    NonSquareError,
)
from .similarity import MultimodalBatch
from .volume import VolumeBatch

DEFAULT_KS = (1, 5, 10)


@dataclass(frozen=True)
class AlignmentScore:
    """Mean matched-tuple volume; lower means better aligned.

    ``one_minus_gram`` is the same number flipped so that higher is better,
    convenient next to recall curves.
    """

    mean_matched_volume: float
    one_minus_gram: float


def _diagonal_ranks(values: np.ndarray) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {v.shape}")
    diag = v.diagonal()[:, None]
    better = (v < diag).sum(axis=1)
    ties_before = np.tril(v == diag, -1).sum(axis=1)
    return 1 + better + ties_before


def retrieval_recall(values: np.ndarray, ks: Sequence[int] = DEFAULT_KS) -> dict[int, float]:
    """Fraction of query rows whose diagonal entry ranks within the top K.

    The correct match for row i is column i; smaller values rank first.
    """
    ranks = _diagonal_ranks(values)
    return {int(k): float(np.mean(ranks <= k)) for k in ks}


def alignment_metric(batch: MultimodalBatch) -> AlignmentScore:
    """Mean volume of the matched tuples in a multimodal batch."""
    volumes = VolumeBatch(batch.anchor.rows, [m.rows for m in batch.datas], paired=True)
    mean = float(np.mean(volumes.values))
    return AlignmentScore(mean_matched_volume=mean, one_minus_gram=1.0 - mean)


def pearson(xs, ys) -> float:
    """Sample Pearson correlation of two equal-length series."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise DimensionMismatchError(
            f"series must be 1-D with equal length, got {x.shape} and {y.shape}"
        )
    if x.shape[0] < 2:
        raise EmptyInputError("correlation needs at least two points")
    dx = x - x.mean()
    dy = y - y.mean()
    denom = float(np.sqrt(np.sum(dx * dx) * np.sum(dy * dy)))
    if denom == 0.0:
        raise DegenerateVarianceError("a series with zero variance has no correlation")
    return float(np.sum(dx * dy) / denom)

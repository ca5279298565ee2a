"""Validated multimodal batches, their cross-volume matrix, and the
metrics over it: retrieval recall, the mean-volume alignment score, and
correlation.  ``alignment_metric`` returns the mean matched volume as a
float; the CLI's ``metric`` command reports 1 - mean beside it.

A ``MultimodalBatch`` holds one anchor modality and k-1 data modalities
whose rows are index-aligned samples.  ``cross_volume_matrix`` fills a
B x B matrix whose (i, j) entry is the parallelotope volume of sample j's
anchor embedding together with sample i's data embeddings; the matched
tuples sit on the diagonal.  The matrix comes from the batched volume
kernel, ``volume.VolumeBatch``: each sample's data rows are factored once,
D = R Q, by Gram-Schmidt on the rows, and an entry is the product of
their pivot lengths and the anchor's distance from their span, taken from
one (B, B, k-1) grid of inner products of the rows of Q with the anchors.
That grid is one matrix product (``volume._matmul``), so an entry matches
the per-tuple ``volume.gramian_volume`` call up to rounding, and the
paired form of ``alignment_metric`` (each anchor factored as one more
row) within the bound of ``VolumeBatch``, not bit for bit.  The product
runs on one OpenBLAS thread and is padded to a multiple of 8 in both
dimensions, so the matrix is the same bytes at any BLAS thread count, and
permuting the samples permutes it bit for bit; rank-deficient tuples get
exactly 0, and an anchor that repeats another gets an equal column, so
ties stay exact.

Retrieval ranks candidates per query row, smaller values first (volumes,
where smaller means more similar).  Ties are broken by candidate index,
which is pessimistic for the diagonal: a tied correct match only counts
as found when no lower-index candidate shares its value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateVarianceError,
    DimensionMismatchError,
    EmptyInputError,
    InconsistentBatchError,
    NonSquareError,
)
from .volume import VolumeBatch, squared_norms

#: Maximum deviation from unit norm tolerated in a ModalityBatch row.
UNIT_NORM_TOL = 1e-10

DEFAULT_KS = (1, 5, 10)


@dataclass(frozen=True)
class ModalityBatch:
    """B unit-norm embeddings of one modality, one row per sample."""

    rows: np.ndarray
    modality_name: str = ""

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise InconsistentBatchError(
                f"batch rows must be a nonempty 2-D array, got shape {rows.shape}"
            )
        if not np.isfinite(rows).all():
            raise InconsistentBatchError(
                f"batch {self.modality_name!r} contains NaN or Inf"
            )
        norms = np.sqrt(squared_norms(rows))
        worst = float(np.abs(norms - 1.0).max())
        if worst > UNIT_NORM_TOL:
            raise InconsistentBatchError(
                f"batch {self.modality_name!r} has a row off unit norm by {worst:.3e}"
            )
        object.__setattr__(self, "rows", rows)


@dataclass(frozen=True)
class MultimodalBatch:
    """An anchor batch plus k-1 data batches with aligned sample rows."""

    anchor: ModalityBatch
    datas: tuple[ModalityBatch, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "datas", tuple(self.datas))
        shape = self.anchor.rows.shape
        for m in self.datas:
            if m.rows.shape != shape:
                raise InconsistentBatchError(
                    f"modality {m.modality_name!r} is {m.rows.shape}, anchor is {shape}"
                )


def cross_volumes(anchor: np.ndarray, datas: Sequence[np.ndarray]) -> np.ndarray:
    """Array-level cross-volume computation, no batch validation.

    ``out[i, j] = Vol(anchor[j], datas[0][i], ..., datas[-1][i])``.
    """
    return VolumeBatch(anchor, datas).values


def cross_volume_matrix(batch: MultimodalBatch) -> VolumeBatch:
    """Cross-volume matrix for a validated multimodal batch.

    ``.values[i, j]`` mixes data rows i with anchor row j: row i feeds the
    data-to-anchor loss direction, the transpose anchor-to-data.
    """
    return VolumeBatch(batch.anchor.rows, [m.rows for m in batch.datas])


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


def alignment_metric(batch: MultimodalBatch) -> float:
    """Mean volume of the matched tuples in a multimodal batch; lower means
    better aligned."""
    volumes = VolumeBatch(batch.anchor.rows, [m.rows for m in batch.datas], paired=True)
    return float(np.mean(volumes.values))


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

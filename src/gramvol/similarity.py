"""Validated multimodal batches and their cross-volume matrix.

A ``MultimodalBatch`` holds one anchor modality and k-1 data modalities
whose rows are index-aligned samples.  ``cross_volume_matrix`` fills a
B x B matrix whose (i, j) entry is the parallelotope volume of sample j's
anchor embedding together with sample i's data embeddings; the matched
tuples sit on the diagonal.  The matrix comes from the batched volume
kernel, ``volume.VolumeBatch``: each sample's data rows are factored once
(row-wise Gram-Schmidt), and the Schur complement then gives every
anchor's volume against them from one (B, B, k-1) grid of inner products.
That grid is one matrix product (``volume._matmul``), so an entry matches
the per-tuple ``volume.gramian_volume`` call and the paired form up to
rounding, within the bound of ``VolumeBatch``, not bit for bit.  The
product runs on one OpenBLAS thread, so the matrix is the same bytes at
any BLAS thread count; rank-deficient tuples get exactly 0, and an anchor
that repeats another gets an equal column, so ties stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InconsistentBatchError
from .volume import VolumeBatch

#: Maximum deviation from unit norm tolerated in a ModalityBatch row.
UNIT_NORM_TOL = 1e-10


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
        norms = np.linalg.norm(rows, axis=1)
        worst = float(np.abs(norms - 1.0).max())
        if worst > UNIT_NORM_TOL:
            raise InconsistentBatchError(
                f"batch {self.modality_name!r} has a row off unit norm by {worst:.3e}"
            )
        object.__setattr__(self, "rows", rows)

    @property
    def batch_size(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class MultimodalBatch:
    """An anchor batch plus k-1 data batches with aligned sample rows."""

    anchor: ModalityBatch
    datas: tuple[ModalityBatch, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "datas", tuple(self.datas))
        b, n = self.anchor.batch_size, self.anchor.dim
        for m in self.datas:
            if m.batch_size != b or m.dim != n:
                raise InconsistentBatchError(
                    f"modality {m.modality_name!r} is ({m.batch_size}, {m.dim}), "
                    f"anchor is ({b}, {n})"
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

"""Parallelotope volumes from Gram determinants, and their gradients.

Given vectors v_1..v_k in R^n, the Gram matrix G holds all pairwise inner
products and sqrt(det G) is the k-dimensional volume of the parallelotope
spanned by the vectors.  For unit-norm inputs the volume sits in [0, 1]
(Hadamard bound with unit diagonal): it vanishes when the vectors align
and reaches 1 when they are mutually orthogonal, so it acts as a joint
dissimilarity score for any number of vectors at once.  For k = 2 unit
vectors it reduces to sin(theta); for k = 1 it is the vector's length;
for k > n the vectors are linearly dependent and the volume is 0.

Every volume comes from one batched kernel, ``VolumeBatch``.  For a
tuple of an anchor a and k-1 data rows D, the Schur complement of the Gram
matrix gives det G = det(D D^T) * s, with s the squared distance of a from
span D.  Each sample's data rows are factored once by a row-wise
Gram-Schmidt pass on their inner products, so a B x B cross-volume matrix
costs B small factorizations plus one (B, B, k-1) contraction, and a
single tuple is the B = 1 case.  Rank deficiency is detected row by row:
a data row's pivot at or below (k + n) * eps * (its squared norm), or an
anchor's residual at or below (k + n) * eps * |a|^2, gives a volume of
exactly 0 instead of roundoff noise.  The n term covers the rounding of
the length-n inner products the pivots are made of (an n-term sum is off
by up to about n * eps / 2 of its rows' norms), the k term the at most k
elimination steps after them.  Each row is judged against its own norm,
so the test does not change when rows are rescaled.

The contractions run on BLAS.  Every inner product of the forward pass is
one ``ddot`` call over an entry's own two vectors (``_dots``), so a cross
entry equals the per-tuple call bit for bit; n is cut into chunks short
enough that OpenBLAS runs each call on one thread.  The backward pass
contracts over the B x B grid with GEMMs, which OpenBLAS splits across
output rows and columns but never across the summed dimension.  So results
are the same bytes at any BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    NonFiniteInputError,
    ZeroVectorError,
)

_EPS = float(np.finfo(np.float64).eps)

#: Norms below this are treated as a degenerate (zero) encoder output.
ZERO_NORM_CUTOFF = 1e-30

#: Volumes at or below this threshold get a zero subgradient: the volume is
#: not differentiable at 0, and 1 / s and R^-1 blow up long before that.
DEGENERATE_VOLUME = 1e-9


@dataclass(frozen=True)
class Volume:
    """A parallelotope volume and the Gram determinant behind it.

    ``gram_det`` is computed first and is exactly 0 under rank deficiency,
    so ``value == sqrt(gram_det)`` always holds.
    """

    value: float
    gram_det: float


@dataclass(frozen=True)
class VolumeGradient:
    """d(volume)/d(vector) for each input row.

    When the volume is degenerate (at or below ``DEGENERATE_VOLUME``) the
    gradient rows are a zero subgradient and ``degenerate`` is True.
    """

    grads: np.ndarray  # (k, n); row i is the gradient for vector i
    degenerate: bool


def _as_rows(vectors) -> np.ndarray:
    """Stack input vectors into a C-contiguous (k, n) float64 array."""
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        if vectors.shape[0] == 0:
            raise EmptyInputError("need at least one vector")
        return np.ascontiguousarray(vectors, dtype=np.float64)
    vecs = [np.asarray(v, dtype=np.float64) for v in vectors]
    if len(vecs) == 0:
        raise EmptyInputError("need at least one vector")
    for v in vecs:
        if v.ndim != 1:
            raise DimensionMismatchError(f"expected 1-D vectors, got shape {v.shape}")
    dims = {v.shape[0] for v in vecs}
    if len(dims) != 1:
        raise DimensionMismatchError(f"vectors have mixed dimensions {sorted(dims)}")
    return np.array(vecs, dtype=np.float64)


def _require_finite(rows: np.ndarray) -> None:
    if not np.isfinite(rows).all():
        raise NonFiniteInputError("input contains NaN or Inf")


def normalize(v) -> np.ndarray:
    """Scale ``v`` to unit Euclidean norm, preserving direction.

    ``v`` is one vector (n,) or a stack of rows (N, n), each scaled by its
    own norm; a row's norm is ``_dots`` of the row with itself, so it does
    not depend on the row's position or on the BLAS thread count.  Raises
    ``ZeroVectorError`` when a norm is below ``ZERO_NORM_CUTOFF`` (a
    degenerate encoder output) and ``NonFiniteInputError`` on NaN/Inf.
    """
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim not in (1, 2):
        raise DimensionMismatchError(f"expected a vector or rows, got shape {arr.shape}")
    _require_finite(arr)
    norms = np.sqrt(_dots(arr, arr))
    if (norms < ZERO_NORM_CUTOFF).any():
        raise ZeroVectorError(f"cannot normalize vector with norm {float(norms.min())!r}")
    return arr / norms[..., None]


#: Longest stretch of n that one BLAS ``ddot`` call sees.  OpenBLAS splits a
#: single ``ddot`` across threads above 10,000 elements, which changes its
#: summation order; below that it runs on one thread.
_DOT_CHUNK = 8192


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Inner products along the last axis, broadcasting the others.

    Every inner product of the kernel goes through here.  ``np.vecdot``
    makes one BLAS ``ddot`` call per entry over that entry's own two
    vectors, so an entry's bits depend on its vectors only, never on its
    position in the batch.  Chunks of at most ``_DOT_CHUNK`` elements,
    added in index order, keep each call on one thread, so the bits do not
    depend on the BLAS thread count either.
    """
    out = np.vecdot(x[..., :_DOT_CHUNK], y[..., :_DOT_CHUNK])
    for lo in range(_DOT_CHUNK, x.shape[-1], _DOT_CHUNK):
        out = out + np.vecdot(x[..., lo:lo + _DOT_CHUNK], y[..., lo:lo + _DOT_CHUNK])
    return out


def _eliminate(x: np.ndarray, norm2: np.ndarray, u: np.ndarray, p: np.ndarray):
    """Gram-Schmidt step for one more row, written on inner products.

    ``x`` (B, J, t) holds the row's inner products with the first t data
    rows of each sample and ``norm2`` (B, J) its squared norm; ``u`` and
    ``p`` are those rows' unscaled factor and pivots.  Returns the row's
    unscaled coefficients y (B, J, t), y_l = <row, q_l> * sqrt(p_l), and
    its residual norm2 - sum_l y_l^2 / p_l: its squared distance from the
    span.  Data rows and anchors run this same code, so an anchor equal to
    a data row reproduces that row's arithmetic and cancels to within one
    rounding of its pivot.  The loops are elementwise, with no reduction,
    so no entry depends on its position in the batch.
    """
    y = np.empty_like(x)
    res = norm2.copy()
    for t in range(x.shape[-1]):
        yt = x[..., t].copy()
        for l in range(t):
            yt -= y[..., l] * u[:, None, t, l] / p[:, None, l]
        y[..., t] = yt
        res -= yt * yt / p[:, None, t]
    return y, res


class VolumeBatch:
    """Volumes of a batch of (anchor, data rows) tuples, with their gradient.

    ``anchor`` is (B, n); ``datas`` holds the k-1 data modalities, each
    (B, n).  The cross form pairs every anchor with every sample's data
    rows, ``values[i, j] = Vol(anchor[j], datas[0][i], ..., datas[-1][i])``
    of shape (B, B); the paired form keeps only the matched tuples,
    ``values[i] = Vol(anchor[i], datas[0][i], ...)`` of shape (B,).

    With D = R Q the Gram-Schmidt factorization of a sample's data rows and
    c = Q a, det G = det(D D^T) * s with s = |a|^2 - |c|^2.  Gram-Schmidt
    runs on inner products (``_dots``, then ``_eliminate``): once over each
    sample's data rows, whose squared pivots multiply to det(D D^T), and
    once more for the anchors, on D a.
    """

    def __init__(self, anchor, datas, paired: bool = False):
        rows = np.stack([anchor, *datas], axis=1).astype(np.float64, copy=False)
        a, d = rows[:, 0], rows[:, 1:]
        b, k, n = rows.shape
        g = _dots(d[:, :, None], d[:, None, :])
        a2 = _dots(a, a)
        # Per-anchor quantities broadcast along the grid's anchor axis: j in
        # the cross form, the sample itself (a length-1 axis) when paired.
        a2 = a2[:, None] if paired else a2[None, :]
        # Each pivot and residual is judged against its own row's squared
        # norm, so the test does not depend on the rows' relative scales;
        # (k + n) * eps bounds the roundoff of the dots and the elimination.
        tol = (k + n) * _EPS
        tol_d = tol * g[:, range(k - 1), range(k - 1)]
        tol_s = tol * a2
        u = np.zeros((b, k - 1, k - 1))
        piv = np.empty((b, k - 1))
        # A pivot at or below the tolerance is replaced by 1 in ``p``, so
        # nothing divides by zero; every volume of that sample is 0 anyway.
        p = np.ones((b, k - 1))
        det_d = np.ones(b)
        for t in range(k - 1):
            y, res = _eliminate(g[:, None, t, :t], g[:, None, t, t], u, p)
            u[:, t, :t], piv[:, t] = y[:, 0], res[:, 0]
            p[:, t] = np.where(piv[:, t] > tol_d[:, t], piv[:, t], 1.0)
            det_d *= piv[:, t]
        if paired:
            da = _dots(d, a[:, None])[:, None]
        else:
            da = _dots(d[:, None], a[None, :, None])
        y, s = _eliminate(da, a2 + np.zeros(da.shape[:2]), u, p)
        rank_deficient = (
            (piv <= tol_d).any(axis=1)[:, None] | (s <= tol_s) | (k > n)
        )
        det = np.where(rank_deficient, 0.0, det_d[:, None] * s)
        vol = np.sqrt(det)
        self._paired = paired
        self._a, self._d, self._u, self._p, self._y = a, d, u, p, y
        self._s, self._vol = s, vol
        self.gram_det = det[:, 0] if paired else det
        self.values = vol[:, 0] if paired else vol

    @property
    def degenerate(self) -> np.ndarray:
        """Entries at or below ``DEGENERATE_VOLUME``: zero subgradient."""
        return self.values <= DEGENERATE_VOLUME

    def backward(self, dvalues) -> tuple[np.ndarray, np.ndarray]:
        """dL/d anchor (B, n) and dL/d datas (k-1, B, n) from dL/d values.

        For each entry, dV/da = V r / s and dV/dD = V R^-T (Q - c r^T / s),
        with r = a - Q^T c the part of a off span D.  Both are contracted
        with ``dvalues`` directly, summed over the entries each row joins.
        """
        a, d, vol = self._a, self._d, self._vol
        b, m, n = d.shape
        sqrt_p = np.sqrt(self._p)
        r = self._u / sqrt_p[:, None, :]
        r[:, range(m), range(m)] = sqrt_p
        c = self._y / sqrt_p[:, None, :]
        q = np.empty_like(d)
        for t in range(m):
            q[:, t] = d[:, t]
            for l in range(t):
                q[:, t] -= r[:, t, l, None] * q[:, l]
            q[:, t] /= r[:, t, t, None]
        live = vol > DEGENERATE_VOLUME
        w = np.where(live, np.reshape(dvalues, vol.shape), 0.0) * vol
        alpha = np.divide(w, self._s, out=np.zeros_like(w), where=live)
        beta = alpha[..., None] * c
        beta_t = beta.transpose(0, 2, 1)
        if self._paired:
            grad_anchor = alpha * a - (beta @ q)[:, 0]
            beta_a = beta_t @ a[:, None]
        else:
            grad_anchor = (alpha.sum(axis=0)[:, None] * a
                           - beta.transpose(1, 0, 2).reshape(b, b * m) @ q.reshape(b * m, n))
            beta_a = (beta_t.reshape(b * m, b) @ a).reshape(b, m, n)
        x = w.sum(axis=1)[:, None, None] * q - beta_a + (beta_t @ c) @ q
        # dL/dD = R^-T x: back substitution over the k-1 rows.
        for t in reversed(range(m)):
            for l in range(t + 1, m):
                x[:, t] -= r[:, l, t, None] * x[:, l]
            x[:, t] /= r[:, t, t, None]
        return grad_anchor, np.ascontiguousarray(x.transpose(1, 0, 2))


def gramian_volume(vectors) -> Volume:
    """Volume of the parallelotope spanned by the input vectors.

    k = 1 returns the vector's norm; k > n returns 0.  Computed as the
    1 x 1 cross form of ``VolumeBatch``, so it equals the matching entry of
    any cross-volume matrix bit for bit.
    """
    rows = _as_rows(vectors)
    _require_finite(rows)
    batch = VolumeBatch(rows[:1], rows[1:, None])
    return Volume(value=float(batch.values[0, 0]), gram_det=float(batch.gram_det[0, 0]))


def volume_gradient(vectors) -> VolumeGradient:
    """Gradient of ``gramian_volume`` with respect to every input vector.

    With A the n x k matrix of column vectors, dVol/dA = Vol * A * G^-1;
    row i of ``grads`` is that matrix's column i.  At or below
    ``DEGENERATE_VOLUME`` the rows are a zero subgradient.
    """
    rows = _as_rows(vectors)
    _require_finite(rows)
    batch = VolumeBatch(rows[:1], rows[1:, None], paired=True)
    grad_anchor, grad_datas = batch.backward(np.ones(1))
    return VolumeGradient(
        grads=np.concatenate([grad_anchor, grad_datas[:, 0]]),
        degenerate=bool(batch.degenerate[0]),
    )

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

The contractions run on BLAS, through two helpers.  ``_dots`` makes one
``ddot`` call per inner product, over that entry's own two vectors: the
data rows' Gram matrices, the anchors' norms and the paired form's D a.
``_matmul`` computes every matrix product: the cross form's D a grid, as
one product of the (k-1) B data rows with the B anchors, and the backward
pass.  Both set numpy's bundled OpenBLAS to one thread for their calls and
restore the caller's count after, so their bits do not depend on the
thread count, on any OpenBLAS kernel.  The count is process-wide: when
Python threads call into gramvol at once, the first call to start pins it
and the last to finish restores it, so another thread's direct numpy
calls see one BLAS thread while a gramvol call runs.  Under another BLAS
(MKL, Accelerate) the calls run as they are, unpinned.

A cross entry matches the per-tuple call (a 1 x 1 cross form) and the
paired form up to rounding, not bit for bit: a product of another shape,
or a ``ddot``, rounds its sums in another order.  Rank-deficient tuples
are exactly 0 in every form, and equal anchors give equal columns.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    NonFiniteInputError,
    ZeroVectorError,
)

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)

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
    not depend on the row's position or on the BLAS thread count.  A row
    whose squared norm overflows, or falls below the normal floats, is
    first divided by its largest |element|, so it still gets its unit row
    and its true norm.  Raises ``ZeroVectorError`` when a norm is below
    ``ZERO_NORM_CUTOFF`` (a degenerate encoder output), naming the smallest
    norm and, for rows, carrying that row's index as ``row``; and
    ``NonFiniteInputError`` on NaN/Inf.
    """
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim not in (1, 2):
        raise DimensionMismatchError(f"expected a vector or rows, got shape {arr.shape}")
    _require_finite(arr)
    squares = squared_norms(arr)
    scale = np.ones(squares.shape)
    far = (squares < _TINY) | (squares == np.inf)
    if far.any():
        biggest = np.abs(arr[far]).max(axis=-1, initial=0.0)
        scale[far] = np.where(biggest > 0, biggest, 1.0)
        arr = arr / scale[..., None]
        squares = _dots(arr, arr)
    norms = np.sqrt(squares)
    low = norms < ZERO_NORM_CUTOFF / scale
    if low.any():
        true_norms = np.where(low, norms * scale, np.inf).ravel()
        row = int(true_norms.argmin())
        raise ZeroVectorError(f"cannot normalize vector with norm {float(true_norms[row])!r}",
                              row if arr.ndim == 2 else None)
    return arr / norms[..., None]


def squared_norms(arr: np.ndarray) -> np.ndarray:
    """``_dots`` of each row with itself, inf where that overflows, with no
    floating-point warning."""
    with np.errstate(over="ignore", under="ignore"):
        return _dots(arr, arr)


def _openblas_threads():
    """numpy's bundled OpenBLAS thread-count getter and setter, or None.
    Wheels ship it in ``numpy.libs`` (Linux, Windows) or ``numpy/.dylibs``."""
    root = os.path.dirname(np.__file__)
    for path in sorted(glob.glob(os.path.join(root, "..", "numpy.libs", "*openblas*"))
                       + glob.glob(os.path.join(root, ".dylibs", "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            if hasattr(lib, name.format("get")) and hasattr(lib, name.format("set")):
                get, set_ = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


_OPENBLAS_THREADS = _openblas_threads()

#: Calls inside ``_one_thread`` in any Python thread, and the count the last
#: of them restores; both guarded by ``_PIN_LOCK``.
_pin_depth = 0
_pin_restore = 0
_PIN_LOCK = threading.Lock()


def _one_thread(f, *args):
    """``f(*args)`` with OpenBLAS on one thread, the caller's count restored
    when the last overlapping call ends; a plain call where the OpenBLAS
    calls were not found."""
    global _pin_depth, _pin_restore
    if _OPENBLAS_THREADS is None:
        return f(*args)
    get, set_ = _OPENBLAS_THREADS
    with _PIN_LOCK:
        if _pin_depth == 0:
            _pin_restore = get()
            set_(1)
        _pin_depth += 1
    try:
        return f(*args)
    finally:
        with _PIN_LOCK:
            _pin_depth -= 1
            if _pin_depth == 0:
                set_(_pin_restore)


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Inner products along the last axis, broadcasting the others.

    Every inner product outside a matrix product (``_matmul``) goes
    through here.  ``np.vecdot`` makes one BLAS ``ddot`` call per entry
    over that entry's own two vectors, so an entry's bits depend on its
    vectors only, never on its position in the batch.
    """
    return _one_thread(np.vecdot, x, y)


def _matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` for a matrix ``x`` (M, K) and a matrix (K, N) or vector
    (K,) ``y``, on one BLAS thread.

    Every matrix product of the package goes through here.  A matrix
    ``y`` is padded with zero columns to a width that is a multiple of 8,
    so equal columns of ``y`` give equal output columns: a ragged edge
    would run them through narrower kernels that round differently.
    """
    n = y.shape[1] if y.ndim == 2 else 0
    if n % 8:
        padded = np.zeros((y.shape[0], n + -n % 8))
        padded[:, :n] = y
        return _one_thread(np.matmul, x, padded)[:, :n]
    return _one_thread(np.matmul, x, y)


def _eliminate(x: np.ndarray, norm2: np.ndarray, u: np.ndarray, p: np.ndarray):
    """Gram-Schmidt step for one more row, written on inner products.

    ``x`` (t, B, J) holds the row's inner products with the first t data
    rows of each sample, one (B, J) plane per data row, and ``norm2``
    (broadcast to (B, J)) its squared norm; ``u`` (k-1, k-1, B) and ``p``
    (k-1, B) are those rows' unscaled factor and pivots.  Overwrites ``x``
    with the row's unscaled coefficients y, y_l = <row, q_l> * sqrt(p_l),
    and returns y and the residual norm2 - sum_l y_l^2 / p_l: the row's
    squared distance from the span.  Data rows and anchors run this same
    code, so an anchor equal to a data row reproduces that row's
    arithmetic up to the rounding of its inner products.  The loops are
    elementwise, with no reduction, so no entry depends on its position in
    the batch.
    """
    res = np.empty(x.shape[1:])
    res[...] = norm2
    tmp = np.empty_like(res)
    for t, yt in enumerate(x):
        for l in range(t):
            np.multiply(x[l], u[t, l, :, None], out=tmp)
            tmp /= p[l, :, None]
            yt -= tmp
        np.multiply(yt, yt, out=tmp)
        tmp /= p[t, :, None]
        res -= tmp
    return x, res


class VolumeBatch:
    """Volumes of a batch of (anchor, data rows) tuples, with their gradient.

    ``anchor`` is (B, n); ``datas`` holds the k-1 data modalities, each
    (B, n).  The cross form pairs every anchor with every sample's data
    rows, ``values[i, j] = Vol(anchor[j], datas[0][i], ..., datas[-1][i])``
    of shape (B, B); the paired form is its diagonal, laid out as
    ``values[i] = Vol(anchor[i], datas[0][i], ...)`` of shape (B,), up to
    the rounding of the inner products: a Gram determinant within
    (k + n) * eps * (the product of its rows' squared norms), the bound of
    the rank test.

    With D = R Q the Gram-Schmidt factorization of a sample's data rows and
    c = Q a, det G = det(D D^T) * s with s = |a|^2 - |c|^2.  Gram-Schmidt
    runs on inner products, then ``_eliminate``: once over each sample's
    data rows (``_dots``), whose squared pivots multiply to det(D D^T), and
    once more for the anchors, on D a.  The cross form's D a grid is one
    ``_matmul`` of the (k-1) B data rows against the B anchors; the paired
    form takes each sample's own k-1 inner products from ``_dots``.
    """

    def __init__(self, anchor, datas, paired: bool = False):
        rows = np.stack([anchor, *datas]).astype(np.float64, copy=False)
        a, d = rows[0], rows[1:]
        k, b, n = rows.shape
        g = _dots(d[:, None], d[None])
        if paired:
            da = _dots(d, a)[..., None]
            a2 = _dots(a, a)[:, None]
        else:
            da = _matmul(d.reshape(-1, n), a.T).reshape(k - 1, b, b)
            a2 = _dots(a, a)[None]
        # Each pivot and residual is judged against its own row's squared
        # norm, so the test does not depend on the rows' relative scales;
        # (k + n) * eps bounds the roundoff of the dots and the elimination.
        tol = (k + n) * _EPS
        tol_d = tol * g[range(k - 1), range(k - 1)]
        tol_s = tol * a2
        u = np.zeros((k - 1, k - 1, b))
        piv = np.empty((k - 1, b))
        # A pivot at or below the tolerance is replaced by 1 in ``p``, so
        # nothing divides by zero; every volume of that sample is 0 anyway.
        p = np.ones((k - 1, b))
        det_d = np.ones(b)
        for t in range(k - 1):
            y, res = _eliminate(g[t, :t, :, None].copy(), g[t, t, :, None], u, p)
            u[t, :t], piv[t] = y[..., 0], res[:, 0]
            p[t] = np.where(piv[t] > tol_d[t], piv[t], 1.0)
            det_d *= piv[t]
        y, s = _eliminate(da, a2, u, p)
        det = det_d[:, None] * s
        det[(piv <= tol_d).any(axis=0)[:, None] | (s <= tol_s) | (k > n)] = 0.0
        vol = np.sqrt(det)
        self._a, self._d, self._u, self._p, self._y = a, d, u, p, y
        self._s, self._vol = s, vol
        self.gram_det = det[:, 0] if paired else det
        self.values = vol[:, 0] if paired else vol

    @property
    def degenerate(self) -> np.ndarray:
        """Entries at or below ``DEGENERATE_VOLUME``: zero subgradient."""
        return self.values <= DEGENERATE_VOLUME

    def backward(self, dvalues) -> tuple[np.ndarray, np.ndarray]:
        """dL/d anchor (B, n) and dL/d datas (k-1, B, n) from the cross
        form's dL/d values (B, B).

        For each entry, dV/da = V r / s and dV/dD = V R^-T (Q - c r^T / s),
        with r = a - Q^T c the part of a off span D.  Both are contracted
        with ``dvalues`` directly, summed over the entries each row joins:
        two ``_matmul`` products over the (k-1) B data rows, and per
        sample the (k-1) x (k-1) inner products of its coefficients
        (``_dots``).
        """
        a, d, vol = self._a, self._d, self._vol
        m, b, n = d.shape
        sqrt_p = np.sqrt(self._p)
        r = self._u / sqrt_p
        r[range(m), range(m)] = sqrt_p
        c = self._y / sqrt_p[..., None]
        q = np.empty_like(d)
        for t in range(m):
            q[t] = d[t]
            for l in range(t):
                q[t] -= r[t, l, :, None] * q[l]
            q[t] /= r[t, t, :, None]
        live = vol > DEGENERATE_VOLUME
        w = np.where(live, np.reshape(dvalues, vol.shape), 0.0) * vol
        alpha = np.divide(w, self._s, out=np.zeros_like(w), where=live)
        beta = (alpha * c).reshape(-1, b)
        grad_anchor = (alpha.sum(axis=0)[:, None] * a
                       - _matmul(beta.T, q.reshape(-1, n)))
        x = w.sum(axis=1)[:, None] * q - _matmul(beta, a).reshape(m, b, n)
        bc = _dots(beta.reshape(m, 1, b, b), c)
        for t in range(m):
            # A sum over the leading axis adds the k-1 planes in order.
            x[t] += (bc[t, :, :, None] * q).sum(axis=0)
        # dL/dD = R^-T x: back substitution over the k-1 rows.
        for t in reversed(range(m)):
            for l in range(t + 1, m):
                x[t] -= r[l, t, :, None] * x[l]
            x[t] /= r[t, t, :, None]
        return grad_anchor, x


def gramian_volume(vectors) -> Volume:
    """Volume of the parallelotope spanned by the input vectors.

    k = 1 returns the vector's norm; k > n returns 0.  Computed as the
    1 x 1 cross form of ``VolumeBatch``, so it matches the entry of any
    cross-volume matrix up to rounding; a rank-deficient tuple is exactly
    0 in both.
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
    batch = VolumeBatch(rows[:1], rows[1:, None])
    grad_anchor, grad_datas = batch.backward(np.ones((1, 1)))
    return VolumeGradient(
        grads=np.concatenate([grad_anchor, grad_datas[:, 0]]),
        degenerate=bool(batch.degenerate[0, 0]),
    )

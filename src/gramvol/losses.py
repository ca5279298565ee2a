"""Volume-based contrastive objective, matching loss, and their gradients.

The contrastive part scores each sample against every in-batch candidate
with negated volumes divided by a learnable temperature, then applies the
usual two-direction softmax cross entropy (data-to-anchor over rows of the
cross-volume matrix, anchor-to-data over its columns).  One core,
``contrastive(z)``, serves the volume logits ``-V / tau`` and the cosine
baseline's ``D A^T / tau``.  Each objective has one report function,
``loss_report`` and ``cosine_pairwise_report``, which training calls with
gradients and evaluation with ``grad=False``.  The matching part
is a binary cross entropy over a small feed-forward head that sees the
concatenated modality embeddings of a matched tuple and of one mined hard
negative per sample (the off-diagonal candidate with the smallest volume).

The combined objective is

    total = 0.5 * (data_to_anchor + anchor_to_data) + lam * matching

with ``lam`` defaulting to 0.1.  Gradients are computed analytically,
flow through every entry of the cross-volume matrix (not only the
diagonal), and are exact up to the zero subgradient used for degenerate
tuples.  All softmax / sigmoid terms use max-subtraction or softplus
forms; no raw exp of large magnitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BatchTooSmallError, NonFiniteLossError
from .volume import VolumeBatch, _matmul

TAU_MIN = 1e-3
TAU_MAX = 10.0

#: Default weight of the matching term in the combined objective.
LAMBDA_DAM = 0.1


@dataclass(frozen=True)
class Temperature:
    """Learnable softmax temperature, parameterized by its logarithm."""

    log_tau: float

    @property
    def tau(self) -> float:
        return math.exp(self.log_tau)

    @classmethod
    def from_tau(cls, tau: float) -> "Temperature":
        if not (tau > 0.0 and math.isfinite(tau)):
            raise ValueError(f"temperature must be finite and positive, got {tau!r}")
        return cls(log_tau=math.log(tau))

    def clamped(self) -> "Temperature":
        """Clamp tau into [TAU_MIN, TAU_MAX]; call after every update."""
        lo, hi = math.log(TAU_MIN), math.log(TAU_MAX)
        return Temperature(log_tau=min(max(self.log_tau, lo), hi))


@dataclass
class LossReport:
    """Loss values for one batch, with their gradients unless the report
    was made with ``grad=False``, where every gradient field is None.

    ``grad_anchor`` is (B, n); ``grad_datas`` is (k-1, B, n) in modality
    order.  ``head_grads`` carries the matching head's parameter gradients
    (already scaled by ``lam``) when a head participated, else None.
    ``degenerate_tuples`` counts cross-volume entries that received a zero
    subgradient, and ``volumes`` is the B x B cross-volume matrix that the
    volume objective scored (None under the cosine objective).
    """

    l_d2a: float
    l_a2d: float
    l_dam: float = 0.0
    l_tot: float = 0.0
    grad_anchor: np.ndarray | None = None
    grad_datas: np.ndarray | None = None
    grad_log_tau: float | None = None
    head_grads: dict[str, np.ndarray] | None = None
    degenerate_tuples: int = 0
    volumes: np.ndarray | None = None


def _direction(z: np.ndarray, axis: int, grad: bool):
    """``(loss, B * dloss/dz or None)`` for the softmax cross entropy of
    ``z`` along ``axis``, diagonal positive.  One exp matrix, shifted and
    summed along ``axis`` (no transposed copy), is divided in place."""
    top = z.max(axis=axis, keepdims=True)
    e = z - top
    np.exp(e, out=e)
    s = e.sum(axis=axis, keepdims=True)
    loss = float(np.mean(np.log(s).ravel() + top.ravel() - np.diagonal(z)))
    if not grad:
        return loss, None
    e /= s
    e.flat[:: z.shape[0] + 1] -= 1.0
    return loss, e


def contrastive(z: np.ndarray, grad: bool = True):
    """Two-direction softmax cross entropy of a B x B logit matrix.

    Returns ``(row loss, column loss, dL/dz)`` with the diagonal as the
    positive and ``L`` the mean of the two directions; ``dL/dz`` is None
    unless ``grad``.  Reductions use ``np.sum``, never a flattened BLAS
    dot, so results do not depend on the BLAS thread count.
    """
    l_rows, dz = _direction(z, 1, grad)
    l_cols, dz_cols = _direction(z, 0, grad)
    if grad:
        dz += dz_cols
        dz *= 0.5 / z.shape[0]
    return l_rows, l_cols, dz


def _volume_logits(v: np.ndarray, tau: Temperature) -> np.ndarray:
    if not np.isfinite(v).all():
        raise NonFiniteLossError("cross-volume matrix contains NaN or Inf")
    return -v / tau.tau


def gram_contrastive_loss(volumes: np.ndarray, tau: Temperature) -> tuple[float, float]:
    """Two-direction contrastive loss over a B x B cross-volume array.

    Returns ``(l_d2a, l_a2d)``: row-wise and column-wise softmax cross
    entropy of ``-volumes / tau`` with the diagonal as the positive.
    """
    l_d2a, l_a2d, _ = contrastive(_volume_logits(volumes, tau), grad=False)
    return l_d2a, l_a2d


def total_loss(contrastive: tuple[float, float], dam: float, lam: float = LAMBDA_DAM) -> float:
    """Combined objective: half the contrastive sum plus ``lam`` times matching."""
    l_d2a, l_a2d = contrastive
    return 0.5 * (l_d2a + l_a2d) + lam * dam


def hard_negative_mine(volumes: np.ndarray) -> np.ndarray:
    """Most confusable in-batch negative per sample.

    Entry i is the off-diagonal column j of row i with the smallest
    volume; ties go to the lowest index.
    """
    if volumes.shape[0] < 2:
        raise BatchTooSmallError("hard negative mining needs a batch of at least 2")
    masked = volumes.copy()
    np.fill_diagonal(masked, np.inf)
    # argmin returns the first minimum, which is the lowest-index tie-break.
    return np.argmin(masked, axis=1)


class DamHead:
    """Two-hidden-layer tanh head mapping concatenated embeddings to a logit.

    Input is the anchor embedding followed by the data embeddings of one
    tuple (k * n values); both hidden layers are 4 * n wide; the output goes
    through a sigmoid, so probabilities are strictly inside (0, 1).
    """

    def __init__(self, k: int, n: int, rng: np.random.Generator):
        in_dim, h = k * n, 4 * n
        self.w1 = rng.standard_normal((in_dim, h)) / math.sqrt(in_dim)
        self.b1 = np.zeros(h)
        self.w2 = rng.standard_normal((h, h)) / math.sqrt(h)
        self.b2 = np.zeros(h)
        self.w3 = rng.standard_normal(h) / math.sqrt(h)
        self.b3 = np.zeros(())

    def params(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2,
                "w3": self.w3, "b3": self.b3}

    def logits(self, x: np.ndarray) -> np.ndarray:
        h1 = np.tanh(_matmul(x, self.w1) + self.b1)
        h2 = np.tanh(_matmul(h1, self.w2) + self.b2)
        return _matmul(h2, self.w3) + self.b3

    def bce_forward(self, anchor: np.ndarray, datas: Sequence[np.ndarray], neg_j: np.ndarray):
        """(mean BCE, cache) over the B matched tuples (label 1), then their
        negatives with ``anchor[neg_j]`` swapped in (label 0).  These share
        data blocks, so the first layer is P_a + P_d and P_a[neg_j] + P_d
        with P_a = A W1[:n], P_d = [D_1 .. D_{k-1}] W1[n:] + b1."""
        b, n = anchor.shape
        dcat = np.concatenate(datas, axis=1)
        p_d = _matmul(dcat, self.w1[n:]) + self.b1
        p_a = _matmul(anchor, self.w1[:n])
        # In place: at these sizes a fresh temporary costs more than its math.
        h1 = np.concatenate([p_a, p_a[neg_j]]).reshape(2, b, -1)
        h1 += p_d
        h1 = np.tanh(h1, out=h1).reshape(2 * b, -1)
        h2 = _matmul(h1, self.w2)
        h2 += self.b2
        np.tanh(h2, out=h2)
        logit = _matmul(h2, self.w3) + self.b3
        y = np.repeat([1.0, 0.0], b)
        # softplus(l) - l*y == -[y log p + (1-y) log(1-p)] for p = sigmoid(l)
        softplus = np.logaddexp(0.0, logit)
        loss = float(np.mean(softplus - logit * y))
        return loss, (dcat, h1, h2, logit - softplus, y)

    def bce_value_and_grads(
        self, anchor: np.ndarray, datas: Sequence[np.ndarray], neg_j: np.ndarray, lam: float
    ):
        """(mean BCE, d/d anchor, d/d datas as (k-1, B, n), d/d params) for
        the rows of ``bce_forward``; every gradient is scaled by ``lam``."""
        loss, (dcat, h1, h2, log_p, y) = self.bce_forward(anchor, datas, neg_j)
        b, n = anchor.shape
        dlogit = (lam / y.shape[0]) * (np.exp(log_p) - y)
        grads = {"w3": _matmul(h2.T, dlogit), "b3": np.asarray(dlogit.sum())}
        dh2 = _tanh_backward(h2, np.outer(dlogit, self.w3))
        grads["w2"] = _matmul(h1.T, dh2)
        grads["b2"] = dh2.sum(axis=0)
        dh1 = _tanh_backward(h1, _matmul(dh2, self.w2.T))
        dp_d = dh1[:b] + dh1[b:]
        # One-hot fold of each negative row onto the anchor it borrowed
        # (fold[neg_j[r], r] = 1); a matmul, where np.add.at is far slower.
        fold = np.zeros((b, b))
        fold[neg_j, np.arange(b)] = 1.0
        dp_a = _matmul(fold, dh1[b:])
        dp_a += dh1[:b]
        grads["w1"] = np.concatenate([_matmul(anchor.T, dp_a), _matmul(dcat.T, dp_d)])
        grads["b1"] = dp_d.sum(axis=0)
        grad_datas = _matmul(dp_d, self.w1[n:].T).reshape(b, -1, n).transpose(1, 0, 2)
        return loss, _matmul(dp_a, self.w1[:n].T), grad_datas, grads


def _tanh_backward(h: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """``grad * (1 - h**2)`` for ``h = tanh(x)``, written over ``h``."""
    h *= h
    h *= grad
    return np.subtract(grad, h, out=h)


def loss_report(
    anchor: np.ndarray,
    datas: Sequence[np.ndarray],
    tau: Temperature,
    head: DamHead | None = None,
    lam: float = LAMBDA_DAM,
    grad: bool = True,
) -> LossReport:
    """Full objective, with its gradients unless ``grad`` is False, at the
    array level.

    ``anchor`` and each entry of ``datas`` are (B, n) embedding rows.
    Gradients cover every embedding row, the log-temperature, and (when a
    head is given and B >= 2) the head parameters.  Mining indices are
    treated as constants of the current batch.
    """
    anchor = np.asarray(anchor, dtype=np.float64)
    volumes = VolumeBatch(anchor, datas)
    vols = volumes.values
    z = _volume_logits(vols, tau)
    l_d2a, l_a2d, dz = contrastive(z, grad)
    rep = LossReport(l_d2a, l_a2d, degenerate_tuples=int(volumes.degenerate.sum()),
                     volumes=vols)
    if grad:
        rep.grad_log_tau = -float(np.sum(dz * z))
        # Chain rule through every (i, j) entry: anchor j appears across rows i,
        # data row i appears across columns j.  The kernel sums both directly.
        rep.grad_anchor, rep.grad_datas = volumes.backward(dz * (-1.0 / tau.tau))
    # The head needs none of the kernel's arrays: freed first, they leave
    # the head's forward fewer fresh pages to fault in.
    del volumes, z, dz
    if head is not None and anchor.shape[0] >= 2:
        neg_j = hard_negative_mine(vols)
        if grad:
            rep.l_dam, g_anchor, g_datas, rep.head_grads = head.bce_value_and_grads(
                anchor, datas, neg_j, lam)
            rep.grad_anchor += g_anchor
            rep.grad_datas += g_datas
        else:
            rep.l_dam = head.bce_forward(anchor, datas, neg_j)[0]
    rep.l_tot = total_loss((l_d2a, l_a2d), rep.l_dam, lam)
    return rep


def cosine_pairwise_report(
    anchor: np.ndarray,
    datas: Sequence[np.ndarray],
    tau: Temperature,
    head: None = None,
    lam: float = LAMBDA_DAM,
    grad: bool = True,
) -> LossReport:
    """Baseline objective: softmax cross entropy on cosine logits, each
    data modality against the anchor separately, averaged over modalities.

    Takes ``loss_report``'s arguments, so that one call serves either
    objective; the baseline has no matching term, so it uses no ``head``
    and ``lam`` weighs a matching loss of 0.
    """
    anchor = np.asarray(anchor, dtype=np.float64)
    nmod, t = len(datas), tau.tau
    rep = LossReport(0.0, 0.0)
    if grad:
        rep.grad_anchor, rep.grad_log_tau = np.zeros_like(anchor), 0.0
        rep.grad_datas = np.empty((nmod,) + anchor.shape)
    for off, d in enumerate(datas):
        z = _matmul(d, anchor.T) / t
        l_m2a, l_a2m, dz = contrastive(z, grad)
        rep.l_d2a += l_m2a / nmod
        rep.l_a2d += l_a2m / nmod
        if grad:
            rep.grad_log_tau -= float(np.sum(dz * z)) / nmod
            dz /= nmod * t
            rep.grad_datas[off] = _matmul(dz, anchor)
            rep.grad_anchor += _matmul(dz.T, d)
    rep.l_tot = total_loss((rep.l_d2a, rep.l_a2d), 0.0, lam)
    return rep

"""Volume-based contrastive objective, matching loss, and their gradients.

The contrastive part scores each sample against every in-batch candidate
with negated volumes divided by a learnable temperature, then applies the
usual two-direction softmax cross entropy (data-to-anchor over rows of the
cross-volume matrix, anchor-to-data over its columns).  The matching part
is a binary cross entropy over a small feed-forward head that sees the
concatenated modality embeddings of a matched tuple and of one mined hard
negative per sample (the off-diagonal candidate with the smallest volume,
i.e. the most confusable one).

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

from .errors import (
    BatchTooSmallError,
    EmptyInputError,
    NonFiniteLossError,
)
from .volume import VolumeBatch

TAU_MIN = 1e-3
TAU_MAX = 10.0

#: Default temperature initialization (standard contrastive choice).
TAU_INIT = 0.07

#: Default weight of the matching term in the combined objective.
LAMBDA_DAM = 0.1


@dataclass(frozen=True)
class Temperature:
    """Learnable softmax temperature, parameterized by its logarithm."""

    log_tau: float = math.log(TAU_INIT)

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


@dataclass(frozen=True)
class MatchLabel:
    """A binary match label with a strictly-interior sigmoid probability."""

    y: int
    p_dam: float

    def __post_init__(self):
        if self.y not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.y!r}")
        if not (0.0 < self.p_dam < 1.0):
            raise ValueError(f"probability must lie strictly in (0, 1), got {self.p_dam!r}")


@dataclass
class LossReport:
    """Loss values plus gradients for one batch.

    ``grad_anchor`` is (B, n); ``grad_datas`` is (k-1, B, n) in modality
    order.  ``head_grads`` carries the matching head's parameter gradients
    (already scaled by ``lam``) when a head participated, else None.
    ``degenerate_tuples`` counts cross-volume entries that received a zero
    subgradient.
    """

    l_d2a: float
    l_a2d: float
    l_dam: float
    l_tot: float
    grad_anchor: np.ndarray
    grad_datas: np.ndarray
    grad_log_tau: float
    head_grads: dict[str, np.ndarray] | None = None
    degenerate_tuples: int = 0


def _volume_values(volumes) -> np.ndarray:
    values = getattr(volumes, "values", volumes)
    return np.asarray(values, dtype=np.float64)


def _log_softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = np.exp(z - z.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)


def gram_contrastive_loss(volumes, tau: Temperature) -> tuple[float, float]:
    """Two-direction contrastive loss over a cross-volume matrix.

    Returns ``(l_d2a, l_a2d)``: row-wise and column-wise softmax cross
    entropy of ``-volumes / tau`` with the diagonal as the positive.
    """
    v = _volume_values(volumes)
    if not np.isfinite(v).all():
        raise NonFiniteLossError("cross-volume matrix contains NaN or Inf")
    z = -v / tau.tau
    l_d2a = float(-np.mean(np.diag(_log_softmax_rows(z))))
    l_a2d = float(-np.mean(np.diag(_log_softmax_rows(z.T))))
    return l_d2a, l_a2d


def total_loss(contrastive: tuple[float, float], dam: float, lam: float = LAMBDA_DAM) -> float:
    """Combined objective: half the contrastive sum plus ``lam`` times matching."""
    l_d2a, l_a2d = contrastive
    return 0.5 * (l_d2a + l_a2d) + lam * dam


def dam_loss(preds: Sequence[MatchLabel]) -> float:
    """Mean binary cross entropy over match predictions."""
    if len(preds) == 0:
        raise EmptyInputError("need at least one match prediction")
    total = 0.0
    for pred in preds:
        total += pred.y * math.log(pred.p_dam) + (1 - pred.y) * math.log(1.0 - pred.p_dam)
    return -total / len(preds)


def _mine_indices(values: np.ndarray) -> np.ndarray:
    masked = values.copy()
    np.fill_diagonal(masked, np.inf)
    # argmin returns the first minimum, which is the lowest-index tie-break.
    return np.argmin(masked, axis=1)


def hard_negative_mine(volumes) -> list[tuple[int, int]]:
    """Most confusable in-batch negative per sample.

    For each row i, the off-diagonal column j with the smallest volume;
    ties go to the lowest index.
    """
    v = _volume_values(volumes)
    if v.shape[0] < 2:
        raise BatchTooSmallError("hard negative mining needs a batch of at least 2")
    idx = _mine_indices(v)
    return [(i, int(j)) for i, j in enumerate(idx)]


def _contrastive_parts(v: np.ndarray, tau: Temperature):
    """Losses plus d(loss)/d(volumes) and d(loss)/d(log tau), per direction.

    With z = -v / tau, the row-direction loss gradient in z-space is
    -(I - softmax_rows(z)) / B; since dz/d(log tau) = -z, the temperature
    gradient is -sum(dL/dz * z).
    """
    if not np.isfinite(v).all():
        raise NonFiniteLossError("cross-volume matrix contains NaN or Inf")
    t = tau.tau
    b = v.shape[0]
    z = -v / t
    ls_rows = _log_softmax_rows(z)
    ls_cols = _log_softmax_rows(z.T)
    l_d2a = float(-np.mean(np.diag(ls_rows)))
    l_a2d = float(-np.mean(np.diag(ls_cols)))
    eye = np.eye(b)
    dz_d2a = -(eye - _softmax_rows(z)) / b
    dz_a2d = -(eye - _softmax_rows(z.T)).T / b
    g_logtau_d2a = float(-np.sum(dz_d2a * z))
    g_logtau_a2d = float(-np.sum(dz_a2d * z))
    dz_total = 0.5 * (dz_d2a + dz_a2d)
    dv_total = dz_total * (-1.0 / t)
    return l_d2a, l_a2d, dv_total, g_logtau_d2a, g_logtau_a2d


class DamHead:
    """Two-hidden-layer tanh head mapping concatenated embeddings to a logit.

    Input is the anchor embedding followed by the data embeddings of one
    tuple (k * n values); hidden width defaults to 4 * n; the output goes
    through a sigmoid, so probabilities are strictly inside (0, 1).
    """

    def __init__(self, k: int, n: int, rng: np.random.Generator, hidden: int | None = None):
        in_dim = k * n
        h = 4 * n if hidden is None else hidden
        self.k, self.n, self.hidden = k, n, h
        self.w1 = rng.standard_normal((in_dim, h)) / math.sqrt(in_dim)
        self.b1 = np.zeros(h)
        self.w2 = rng.standard_normal((h, h)) / math.sqrt(h)
        self.b2 = np.zeros(h)
        self.w3 = rng.standard_normal(h) / math.sqrt(h)
        self.b3 = np.zeros(())

    def params(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2,
                "w3": self.w3, "b3": self.b3}

    def param_count(self) -> int:
        return sum(p.size for p in self.params().values())

    def logits(self, x: np.ndarray) -> np.ndarray:
        h1 = np.tanh(x @ self.w1 + self.b1)
        h2 = np.tanh(h1 @ self.w2 + self.b2)
        return h2 @ self.w3 + self.b3

    def probabilities(self, x: np.ndarray) -> np.ndarray:
        return _sigmoid(self.logits(x))

    def bce_value_and_grads(self, x: np.ndarray, y: np.ndarray):
        """(mean BCE, d/dx, d/dparams) computed from logits via softplus."""
        h1 = np.tanh(x @ self.w1 + self.b1)
        h2 = np.tanh(h1 @ self.w2 + self.b2)
        logit = h2 @ self.w3 + self.b3
        # softplus(l) - l*y == -[y log p + (1-y) log(1-p)] for p = sigmoid(l)
        loss = float(np.mean(np.logaddexp(0.0, logit) - logit * y))
        dlogit = (_sigmoid(logit) - y) / y.shape[0]
        grads = {
            "w3": h2.T @ dlogit,
            "b3": np.asarray(dlogit.sum()),
        }
        dh2 = np.outer(dlogit, self.w3) * (1.0 - h2 * h2)
        grads["w2"] = h1.T @ dh2
        grads["b2"] = dh2.sum(axis=0)
        dh1 = (dh2 @ self.w2.T) * (1.0 - h1 * h1)
        grads["w1"] = x.T @ dh1
        grads["b1"] = dh1.sum(axis=0)
        dx = dh1 @ self.w1.T
        return loss, dx, grads


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def loss_report(
    anchor: np.ndarray,
    datas: Sequence[np.ndarray],
    tau: Temperature,
    head: DamHead | None = None,
    lam: float = LAMBDA_DAM,
) -> LossReport:
    """Full objective with gradients, at the array level.

    ``anchor`` and each entry of ``datas`` are (B, n) embedding rows.
    Gradients cover every embedding row, the log-temperature, and (when a
    head is given and B >= 2) the head parameters.  Mining indices are
    treated as constants of the current batch.
    """
    anchor = np.asarray(anchor, dtype=np.float64)
    b, n = anchor.shape
    k = 1 + len(datas)

    volumes = VolumeBatch(anchor, datas)
    vols = volumes.values
    l_d2a, l_a2d, dv, g_lt_d2a, g_lt_a2d = _contrastive_parts(vols, tau)
    grad_log_tau = 0.5 * (g_lt_d2a + g_lt_a2d)
    # Chain rule through every (i, j) entry: anchor j appears across rows i,
    # data row i appears across columns j.  The kernel sums both directly.
    grad_anchor, grad_datas = volumes.backward(dv)

    l_dam = 0.0
    head_grads = None
    if head is not None and b >= 2:
        neg_j = _mine_indices(vols)
        x = np.empty((2 * b, k * n))
        x[:b, :n] = anchor
        x[b:, :n] = anchor[neg_j]
        for off, d in enumerate(datas):
            sl = slice((1 + off) * n, (2 + off) * n)
            x[:b, sl] = d
            x[b:, sl] = d
        y = np.concatenate([np.ones(b), np.zeros(b)])
        l_dam, dx, raw_head_grads = head.bce_value_and_grads(x, y)
        head_grads = {name: lam * g for name, g in raw_head_grads.items()}
        grad_anchor += lam * dx[:b, :n]
        np.add.at(grad_anchor, neg_j, lam * dx[b:, :n])
        for off in range(k - 1):
            sl = slice((1 + off) * n, (2 + off) * n)
            grad_datas[off] += lam * (dx[:b, sl] + dx[b:, sl])

    l_tot = total_loss((l_d2a, l_a2d), l_dam, lam)
    return LossReport(
        l_d2a=l_d2a,
        l_a2d=l_a2d,
        l_dam=l_dam,
        l_tot=l_tot,
        grad_anchor=grad_anchor,
        grad_datas=grad_datas,
        grad_log_tau=grad_log_tau,
        head_grads=head_grads,
        degenerate_tuples=int(volumes.degenerate.sum()),
    )


def contrastive_grad(batch, tau: Temperature) -> LossReport:
    """Contrastive-only report for a validated multimodal batch."""
    return loss_report(
        batch.anchor.rows, [m.rows for m in batch.datas], tau, head=None
    )

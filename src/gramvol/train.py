"""Deterministic training loop for the synthetic alignment task.

Trains one encoder per modality (plus the matching head and the
temperature) with minibatch Adam on the combined volume-based objective,
or on the pairwise-cosine objective for the baseline.  Everything is
driven by one seed: parameter init and batch shuffling (the split is
fixed by position), so identical seeds give bit-identical traces.

Each epoch ends with an evaluation on a fixed prefix of the held-out
split: the run's own losses, mean matched / mismatched volume, and
top-1 retrieval over the cross-volume matrix (epoch 0 records the
untrained state).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .encoders import ToyEncoder
from .errors import (
    BatchTooSmallError,
    DivergedTrainingError,
    InvalidConfigError,
    NonFiniteLossError,
    ZeroVectorError,
)
from .losses import (
    LAMBDA_DAM,
    TAU_MAX,
    TAU_MIN,
    DamHead,
    LossReport,
    Temperature,
    contrastive,
    gram_contrastive_loss,
    hard_negative_mine,
    loss_report,
    total_loss,
)
from .metrics import retrieval_recall
from .optim import AdamState, adam_step
from .similarity import cross_volumes
from .synth import MultimodalDataset, split_dataset
from .volume import _matmul

LOSS_KINDS = ("gram", "cosine")


@dataclass(frozen=True)
class TrainConfig:
    """Desk-scale defaults; ``loss`` picks the objective."""

    batch_size: int = 64
    epochs: int = 10
    lr: float = 1e-2
    lam: float = LAMBDA_DAM
    tau_init: float = 1.0
    seed: int = 0
    loss: str = "gram"
    eval_max_samples: int = 256
    holdout_fraction: float = 0.2

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                name = "lambda" if f.name == "lam" else f.name
                raise InvalidConfigError(f"{name} must be finite, got {value!r}")
        checks = [
            # A 1 x 1 contrastive loss has zero gradient and no negative.
            (self.batch_size >= 2, "batch_size must be >= 2"),
            (self.epochs >= 0, "epochs must be >= 0"),
            (self.lr >= 0.0, "lr must be >= 0"),
            (self.lam >= 0.0, "lambda must be >= 0"),
            (self.seed >= 0, f"seed must be >= 0, got {self.seed}"),
            (TAU_MIN <= self.tau_init <= TAU_MAX,
             f"tau_init must lie in [{TAU_MIN}, {TAU_MAX}]"),
            (self.loss in LOSS_KINDS, f"loss must be one of {LOSS_KINDS}"),
            # One evaluated sample has no mismatched tuple and no negative.
            (self.eval_max_samples >= 2, "eval_max_samples must be >= 2"),
            (0.0 < self.holdout_fraction < 1.0, "holdout_fraction must be in (0, 1)"),
        ]
        for ok, msg in checks:
            if not ok:
                raise InvalidConfigError(msg)


@dataclass(frozen=True)
class TraceRow:
    epoch: int
    l_d2a: float
    l_a2d: float
    l_dam: float
    matched_vol: float
    mismatched_vol: float
    r_at_1: float


@dataclass
class TrainingTrace:
    rows: list[TraceRow] = field(default_factory=list)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows], dtype=np.float64)

    @property
    def final(self) -> TraceRow:
        return self.rows[-1]


@dataclass
class TrainResult:
    trace: TrainingTrace
    encoders: list[ToyEncoder]
    params: dict[str, np.ndarray]


def cosine_pairwise_report(
    anchor: np.ndarray, datas: Sequence[np.ndarray], tau: Temperature
) -> LossReport:
    """Baseline objective: softmax cross entropy on cosine logits, each
    data modality against the anchor separately, averaged over modalities.

    Mirrors the report layout of ``loss_report`` so the training loop can
    treat both objectives uniformly.
    """
    anchor = np.asarray(anchor, dtype=np.float64)
    nmod = len(datas)
    t = tau.tau
    l_d2a = l_a2d = grad_log_tau = 0.0
    grad_anchor = np.zeros_like(anchor)
    grad_datas = np.empty((nmod,) + anchor.shape)
    for off, d in enumerate(datas):
        z = _matmul(d, anchor.T) / t
        l_m2a, l_a2m, dz = contrastive(z)
        l_d2a += l_m2a / nmod
        l_a2d += l_a2m / nmod
        grad_log_tau -= float(np.sum(dz * z)) / nmod
        dz /= nmod * t
        grad_datas[off] = _matmul(dz, anchor)
        grad_anchor += _matmul(dz.T, d)
    l_tot = total_loss((l_d2a, l_a2d), 0.0)
    return LossReport(
        l_d2a=l_d2a, l_a2d=l_a2d, l_dam=0.0, l_tot=l_tot,
        grad_anchor=grad_anchor, grad_datas=grad_datas,
        grad_log_tau=grad_log_tau, head_grads=None,
    )


def evaluate(
    encoders: Sequence[ToyEncoder],
    dataset: MultimodalDataset,
    tau: Temperature,
    head: DamHead | None,
    max_samples: int,
    loss_kind: str,
    epoch: int,
) -> TraceRow:
    """The trace row of ``epoch``: losses, volumes and R@1 on the leading
    ``max_samples`` rows of ``dataset``.

    ``head`` (None under the cosine objective) adds the matching loss.
    Raises ``BatchTooSmallError`` when the slice holds fewer than 2 samples,
    which have no mismatched tuple and no negative.
    """
    nsel = min(max_samples, dataset.num_samples)
    if nsel < 2:
        raise BatchTooSmallError(f"evaluation needs at least 2 samples, got {nsel}")
    embeds = [
        enc.encode(view[:nsel]) for enc, view in zip(encoders, dataset.views)
    ]
    vols = cross_volumes(embeds[0], embeds[1:])
    matched = float(np.mean(np.diag(vols)))
    mismatched = float(np.mean(vols[~np.eye(nsel, dtype=bool)]))
    r1 = retrieval_recall(vols, ks=(1,))[1]

    l_dam = 0.0
    if loss_kind == "cosine":
        # The losses of cosine_pairwise_report, without its gradients.
        parts = [contrastive(_matmul(d, embeds[0].T) / tau.tau, grad=False)
                 for d in embeds[1:]]
        l_d2a = sum(p[0] / len(parts) for p in parts)
        l_a2d = sum(p[1] / len(parts) for p in parts)
    else:
        l_d2a, l_a2d = gram_contrastive_loss(vols, tau)
        if head is not None:
            l_dam = head.bce_forward(embeds[0], embeds[1:], hard_negative_mine(vols))[0]
    return TraceRow(epoch, l_d2a, l_a2d, l_dam, matched, mismatched, r1)


@np.errstate(over="raise", invalid="raise", divide="raise")
def train(
    config: TrainConfig,
    dataset: MultimodalDataset,
    embed_dim: int,
) -> TrainResult:
    """Minibatch training on the configured objective.

    ``embed_dim`` is the encoders' output width, the ``embed_dim`` of the
    ``SyntheticSpec`` that generated ``dataset``.

    Raises ``InvalidConfigError`` when the training split holds fewer than
    2 samples (no contrastive gradient) or the held-out split does (no
    mismatched tuple to evaluate), and ``DivergedTrainingError``
    (carrying the partial trace) if any loss value stops being finite, a
    float operation overflows or turns invalid, or an encoder produces a
    zero embedding.
    """
    rng = np.random.default_rng(config.seed)
    train_ds, held_ds = split_dataset(dataset, config.holdout_fraction)
    for name, part in (("training", train_ds), ("held-out", held_ds)):
        if part.num_samples < 2:
            raise InvalidConfigError(
                f"the {name} split holds {part.num_samples} of {dataset.num_samples} "
                f"samples (holdout_fraction {config.holdout_fraction}); it needs at least 2"
            )

    encoders = [ToyEncoder.init(view.shape[1], embed_dim, rng) for view in dataset.views]
    head = DamHead(dataset.modalities, embed_dim, rng) if config.loss == "gram" else None

    params: dict[str, np.ndarray] = {}
    for mi, enc in enumerate(encoders):
        for name, arr in enc.params().items():
            params[f"enc{mi}.{name}"] = arr
    if head is not None:
        for name, arr in head.params().items():
            params[f"head.{name}"] = arr
    params["log_tau"] = np.array(math.log(config.tau_init))

    state = AdamState.init(params)

    def current_tau() -> Temperature:
        return Temperature(log_tau=float(params["log_tau"]))

    def record(epoch: int) -> None:
        trace.rows.append(evaluate(encoders, held_ds, current_tau(), head,
                                   config.eval_max_samples, config.loss, epoch))

    trace = TrainingTrace()
    epoch = 0
    n_train = train_ds.num_samples
    try:
        record(0)
        for epoch in range(1, config.epochs + 1):
            perm = rng.permutation(n_train)
            for start in range(0, n_train, config.batch_size):
                bidx = perm[start:start + config.batch_size]
                embeds, caches = zip(*(
                    enc.encode_cached(view[bidx]) for enc, view in zip(encoders, train_ds.views)
                ))
                tau = current_tau()
                if config.loss == "gram":
                    report = loss_report(embeds[0], embeds[1:], tau, head, config.lam)
                else:
                    report = cosine_pairwise_report(embeds[0], embeds[1:], tau)
                if not math.isfinite(report.l_tot):
                    raise NonFiniteLossError("the total loss is not finite")

                grads: dict[str, np.ndarray] = {}
                for mi, enc in enumerate(encoders):
                    grad_e = report.grad_anchor if mi == 0 else report.grad_datas[mi - 1]
                    for name, g in enc.backward(caches[mi], grad_e).items():
                        grads[f"enc{mi}.{name}"] = g
                if report.head_grads is not None:
                    for name, g in report.head_grads.items():
                        grads[f"head.{name}"] = g
                grads["log_tau"] = np.array(report.grad_log_tau)

                adam_step(params, grads, state, config.lr)
                params["log_tau"][()] = current_tau().clamped().log_tau
            record(epoch)
    except (NonFiniteLossError, FloatingPointError, ZeroVectorError) as exc:
        # A collapsed encoder (zero embedding) is divergence too.
        raise DivergedTrainingError(
            f"training diverged at epoch {epoch}: {exc}", trace=trace
        ) from exc

    return TrainResult(trace=trace, encoders=encoders, params=params)

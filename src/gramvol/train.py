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
    Temperature,
    cosine_pairwise_report,
    loss_report,
)
from .metrics import retrieval_recall
from .optim import AdamState, adam_step
from .similarity import cross_volumes
from .synth import MultimodalDataset, split_dataset

#: Each objective's report function, by loss kind, as the name of a global
#: of this module.  The step loop and ``evaluate`` look the name up when
#: they call it, so a wrapper set on this module sees every call.
_REPORTS = {"gram": "loss_report", "cosine": "cosine_pairwise_report"}
LOSS_KINDS = tuple(_REPORTS)


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


def evaluate(
    encoders: Sequence[ToyEncoder],
    dataset: MultimodalDataset,
    tau: Temperature,
    head: DamHead | None,
    max_samples: int,
    loss_kind: str,
    epoch: int,
    lam: float = LAMBDA_DAM,
) -> TraceRow:
    """The trace row of ``epoch``: losses, volumes and R@1 on the leading
    ``max_samples`` rows of ``dataset``.

    The losses come from one forward-only report of the ``loss_kind``
    objective; ``head`` (None under the cosine objective) adds the
    matching loss, which ``lam`` weighs in the report's total.  Raises
    ``BatchTooSmallError`` when the slice holds fewer than 2 samples,
    which have no mismatched tuple and no negative.
    """
    nsel = min(max_samples, dataset.num_samples)
    if nsel < 2:
        raise BatchTooSmallError(f"evaluation needs at least 2 samples, got {nsel}")
    embeds = [
        enc.encode(view[:nsel]) for enc, view in zip(encoders, dataset.views)
    ]
    report = globals()[_REPORTS[loss_kind]](embeds[0], embeds[1:], tau, head, lam, grad=False)
    # The volume objective has scored the cross volumes already.
    vols = report.volumes
    if vols is None:
        vols = cross_volumes(embeds[0], embeds[1:])
    matched = float(np.mean(np.diag(vols)))
    mismatched = float(np.mean(vols[~np.eye(nsel, dtype=bool)]))
    r1 = retrieval_recall(vols, ks=(1,))[1]
    return TraceRow(epoch, report.l_d2a, report.l_a2d, report.l_dam, matched, mismatched, r1)


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
                                   config.eval_max_samples, config.loss, epoch, config.lam))

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
                report = globals()[_REPORTS[config.loss]](
                    embeds[0], embeds[1:], current_tau(), head, config.lam)
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

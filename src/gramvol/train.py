"""Deterministic training loop for the synthetic alignment task.

Trains one encoder per modality (plus the matching head and the
temperature) with minibatch Adam on the combined volume-based objective,
or on the pairwise-cosine objective for the baseline.  Everything is
driven by one seed: parameter init and batch shuffling (the split is
fixed by position), so identical seeds give bit-identical traces.

The encoders run as one stacked bank (``ToyEncoder`` with a leading
modality axis): the dataset's views are one (k, N, d) array, so each step
indexes the batch's rows of every view as one (k, B, d) array, makes one
forward and one backward call, and Adam updates the bank's four stacked
arrays.  The run's ``params`` name each modality's arrays (``enc{i}.w1``
...) as views of the bank, in the checkpoint's order.

Each epoch ends with an evaluation on a fixed prefix of the held-out
split: the run's own losses, mean matched / mismatched volume, and
top-1 retrieval over the cross-volume matrix (epoch 0 records the
untrained state).  The objective's report function is chosen once per
run and serves the steps and the evaluations.

Adam is written out here (no framework) so the finite-difference
gradient checks cover the entire training path, in Kingma & Ba's
efficient form (``adam_step``).  Parameters live in a flat name -> array
dict; scalars are 0-d arrays.  Only the learning rate is a setting: the
moment decays and the denominator guard are Adam's usual constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from . import synth
from .encoders import HIDDEN_WIDTH, ToyEncoder
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
    cosine_pairwise_report,
    loss_report,
)
from .metrics import cross_volumes, retrieval_recall
from .synth import MultimodalDataset, split_dataset

#: ``train`` reads ``loss_report`` ("gram") or ``cosine_pairwise_report``
#: ("cosine") from this module's globals when it is called, and hands that
#: function to ``evaluate``, so a wrapper set on this module before the call
#: sees every call of the run.
LOSS_KINDS = ("gram", "cosine")

#: Adam's moment decays and denominator guard.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


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
    encoders: ToyEncoder,
    dataset: MultimodalDataset,
    tau: Temperature,
    head: DamHead | None,
    max_samples: int,
    objective: Callable[..., LossReport],
    epoch: int,
    lam: float = LAMBDA_DAM,
) -> TraceRow:
    """The trace row of ``epoch``: losses, volumes and R@1 on the leading
    ``max_samples`` rows of ``dataset``, embedded in one call by the bank
    ``encoders`` (one encoder per modality).

    The losses come from one forward-only call of the report function
    ``objective`` (``loss_report`` or ``cosine_pairwise_report``); ``head``
    (None under the cosine objective) adds the matching loss, which
    ``lam`` weighs in the report's total.  Raises
    ``BatchTooSmallError`` when the slice holds fewer than 2 samples,
    which have no mismatched tuple and no negative.
    """
    nsel = min(max_samples, dataset.num_samples)
    if nsel < 2:
        raise BatchTooSmallError(f"evaluation needs at least 2 samples, got {nsel}")
    embeds = encoders.encode(dataset.views[:, :nsel])
    report = objective(embeds[0], embeds[1:], tau, head, lam, grad=False)
    # The volume objective has scored the cross volumes already.
    vols = report.volumes
    if vols is None:
        vols = cross_volumes(embeds[0], embeds[1:])
    matched = float(np.mean(np.diag(vols)))
    mismatched = float(np.mean(vols[~np.eye(nsel, dtype=bool)]))
    r1 = retrieval_recall(vols, ks=(1,))[1]
    return TraceRow(epoch, report.l_d2a, report.l_a2d, report.l_dam, matched, mismatched, r1)


def check_splits(config: TrainConfig, shape: tuple[int, int, int], embed_dim: int) -> None:
    """Raise ``InvalidConfigError`` when ``config`` cannot train an
    ``embed_dim``-wide model on views of ``shape`` (k, N, d): the latent
    width d exceeds ``embed_dim``; the model's parameters with their two
    Adam moments (the matching head's under ``loss = gram`` only) exceed
    ``synth.MAX_RUN_VALUES``; the training or held-out split holds fewer
    than 2 samples (no contrastive gradient, no mismatched tuple to
    evaluate); or one step's (k - 1) B^2 cross volumes exceed
    ``synth.MAX_RUN_VALUES``.

    It needs the sizes only, so ``formats.build_train_setup`` runs it
    before any data is made.
    """
    (k, samples, d), n = shape, embed_dim
    if d > n:
        raise InvalidConfigError(f"latent_dim must be <= embed_dim, got {d} vs {n}")
    # Encoders d -> HIDDEN_WIDTH -> n, and log tau; the head k n -> 4 n -> 4 n -> 1.
    params = k * (HIDDEN_WIDTH * (d + 1 + n) + n) + 1
    if config.loss == "gram":
        params += 4 * n * (k * n + 4 * n + 3) + 1
    if 3 * params > synth.MAX_RUN_VALUES:
        raise InvalidConfigError(f"a training run on this spec needs {3 * params} float64 "
                                 f"values, more than {synth.MAX_RUN_VALUES}")
    for name, part, size in zip(("training", "held-out"),
                                synth.split_sizes(samples, config.holdout_fraction),
                                (config.batch_size, config.eval_max_samples)):
        if part < 2:
            raise InvalidConfigError(
                f"the {name} split holds {part} of {samples} samples "
                f"(holdout_fraction {config.holdout_fraction}); it needs at least 2"
            )
        grid = (k - 1) * min(size, part) ** 2
        if grid > synth.MAX_RUN_VALUES:
            raise InvalidConfigError(f"a {name} step's cross-volume grid needs {grid} "
                                     f"float64 values, more than {synth.MAX_RUN_VALUES}")


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0

    @classmethod
    def init(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            t=0,
        )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> None:
    """One update with bias-corrected moments, in place on ``params`` and
    ``state``.  Parameters without a grad entry are left as they are.

    The update is Kingma & Ba's efficient form (Adam, section 2): the bias
    corrections c1 = 1 - beta1^t and c2 = 1 - beta2^t fold into the step
    size lr sqrt(c2) / c1 and the guard eps sqrt(c2), so each value costs
    one square root and one division.  It is algebraically the textbook
    update lr (m / c1) / (sqrt(v / c2) + eps), and equal to it up to
    rounding.  Each parameter's update runs in place through one scratch
    array.
    """
    state.t += 1
    c1 = 1.0 - BETA1 ** state.t
    root_c2 = math.sqrt(1.0 - BETA2 ** state.t)
    step, eps_hat = lr * root_c2 / c1, EPS * root_c2
    for name, g in grads.items():
        p, m, v = params[name], state.m[name], state.v[name]
        scratch = np.multiply(g, 1.0 - BETA1, out=np.empty_like(m))
        m *= BETA1
        m += scratch
        np.square(g, out=scratch)
        scratch *= 1.0 - BETA2
        v *= BETA2
        v += scratch
        np.sqrt(v, out=scratch)
        scratch += eps_hat
        np.divide(m, scratch, out=scratch)
        scratch *= step
        p -= scratch


@np.errstate(over="raise", invalid="raise", divide="raise")
def train(
    config: TrainConfig,
    dataset: MultimodalDataset,
    embed_dim: int,
) -> TrainResult:
    """Minibatch training on the configured objective.

    ``embed_dim`` is the encoders' output width, the ``embed_dim`` of the
    ``SyntheticSpec`` that generated ``dataset``.

    Raises ``InvalidConfigError`` where ``check_splits`` does, and
    ``DivergedTrainingError`` (carrying the partial trace) if any loss
    value stops being finite, a float operation overflows or turns
    invalid, or an encoder produces a zero embedding.
    """
    check_splits(config, dataset.views.shape, embed_dim)
    rng = np.random.default_rng(config.seed)
    train_ds, held_ds = split_dataset(dataset, config.holdout_fraction)

    # Each encoder is drawn in modality order from the run's stream, then
    # stacked, so a seed fixes each modality's initial weights.
    bank = ToyEncoder.stack([ToyEncoder.init(view.shape[1], embed_dim, rng)
                             for view in dataset.views])
    if config.loss == "gram":
        objective, head = loss_report, DamHead(dataset.modalities, embed_dim, rng)
    else:
        objective, head = cosine_pairwise_report, None

    # Adam runs over the bank's stacked arrays; the result's params name
    # each modality's encoder as views of them.
    params = {f"enc.{name}": arr for name, arr in bank.params().items()}
    if head is not None:
        for name, arr in head.params().items():
            params[f"head.{name}"] = arr
    params["log_tau"] = np.array(math.log(config.tau_init))

    state = AdamState.init(params)

    def current_tau() -> Temperature:
        return Temperature(log_tau=float(params["log_tau"]))

    def record(epoch: int) -> None:
        trace.rows.append(evaluate(bank, held_ds, current_tau(), head,
                                   config.eval_max_samples, objective, epoch, config.lam))

    trace = TrainingTrace()
    epoch = 0
    n_train = train_ds.num_samples
    try:
        record(0)
        for epoch in range(1, config.epochs + 1):
            perm = rng.permutation(n_train)
            for start in range(0, n_train, config.batch_size):
                bidx = perm[start:start + config.batch_size]
                embeds, cache = bank.encode_cached(train_ds.views[:, bidx])
                report = objective(embeds[0], embeds[1:], current_tau(), head, config.lam)
                if not math.isfinite(report.l_tot):
                    raise NonFiniteLossError("the total loss is not finite")

                grad_e = np.concatenate([report.grad_anchor[None], report.grad_datas])
                grads = {f"enc.{name}": g for name, g in bank.backward(cache, grad_e).items()}
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

    encoders = [bank[i] for i in range(dataset.modalities)]
    layout = {f"enc{i}.{name}": arr
              for i, enc in enumerate(encoders) for name, arr in enc.params().items()}
    layout.update((name, arr) for name, arr in params.items() if not name.startswith("enc."))
    return TrainResult(trace=trace, encoders=encoders, params=layout)

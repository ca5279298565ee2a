"""Synthetic multimodal data with a checkable ground-truth alignment.

Every sample draws a class mean plus per-sample jitter in a shared latent
space; each modality observes that latent through its own fixed Gaussian
projection (full rank almost surely) plus modality noise.  Matched tuples
therefore share the latent, which is exactly the signal contrastive
training is supposed to recover, and which no desk-scale real dataset
exposes for verification.

The k views are stored as one (k, N, d) array, the input layout of the
training's encoder bank: a step gathers its batch with one index, and the
training and held-out splits are slices of the array, not copies.

This module describes and bounds the data only; ``train.check_splits``
checks the data against a model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError
from .volume import _matmul

#: Most float64 values each part of a training run may take: a spec's views
#: and class means (``SyntheticSpec`` checks them), and the run's parameters
#: with their two Adam moments and one step's cross-volume grid
#: (``train.check_splits`` checks these).  2**28 values are 2 GiB, far above
#: every shipped config.
MAX_RUN_VALUES = 2**28


@dataclass(frozen=True)
class SyntheticSpec:
    """Generation parameters; the dataset is fully determined by ``seed``.

    Generation does not read ``embed_dim``, the width a run embeds into.

    ``noise_sigma`` may be a single float or one float per modality
    (decreasing values make later modalities more informative).

    ``paired_dims`` makes modalities complementary instead of redundant:
    the first (anchor) modality observes the whole latent, while data
    modality i observes only the first ``shared_dims`` coordinates plus its
    own private block of ``paired_dims`` coordinates.  With the default
    ``paired_dims=0`` every modality observes the full latent.  Pairwise
    anchor alignment cannot reconcile the private blocks of two different
    data modalities, which is what makes a joint alignment objective
    distinguishable from a pairwise one on this data.
    """

    latent_dim: int = 16
    embed_dim: int = 64
    modalities: int = 3
    num_classes: int = 4
    noise_sigma: float | tuple[float, ...] = 0.03
    samples: int = 2048
    seed: int = 0
    paired_dims: int = 0

    def __post_init__(self):
        if self.latent_dim < 1:
            raise InvalidSpecError(f"latent_dim must be >= 1, got {self.latent_dim}")
        if self.num_classes < 2:
            raise InvalidSpecError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.modalities < 2:
            raise InvalidSpecError(f"need at least 2 modalities, got {self.modalities}")
        if self.samples < 1:
            raise InvalidSpecError(f"samples must be >= 1, got {self.samples}")
        if self.seed < 0:
            raise InvalidSpecError(f"seed must be >= 0, got {self.seed}")
        # The views and the class means.
        values = (self.modalities * self.samples + self.num_classes) * self.latent_dim
        if values > MAX_RUN_VALUES:
            raise InvalidSpecError(f"a training run on this spec needs {values} float64 "
                                   f"values, more than {MAX_RUN_VALUES}")
        if isinstance(self.noise_sigma, (int, float)):
            object.__setattr__(self, "noise_sigma", float(self.noise_sigma))
        else:
            sigmas = tuple(float(s) for s in self.noise_sigma)
            if len(sigmas) != self.modalities:
                raise InvalidSpecError(
                    f"noise_sigma has {len(sigmas)} entries for {self.modalities} modalities"
                )
            object.__setattr__(self, "noise_sigma", sigmas)
        if not all(math.isfinite(s) for s in self.sigmas()):
            raise InvalidSpecError(f"noise_sigma must be finite, got {self.noise_sigma!r}")
        if any(s < 0.0 for s in self.sigmas()):
            raise InvalidSpecError(f"noise_sigma must be >= 0, got {self.noise_sigma!r}")
        if self.paired_dims < 0:
            raise InvalidSpecError(f"paired_dims must be >= 0, got {self.paired_dims}")
        if self.shared_dims < 1:
            raise InvalidSpecError(
                f"paired_dims={self.paired_dims} leaves no shared coordinates "
                f"in a latent of dimension {self.latent_dim}"
            )

    @property
    def shared_dims(self) -> int:
        """Latent coordinates observed by every modality."""
        return self.latent_dim - (self.modalities - 1) * self.paired_dims

    def sigmas(self) -> tuple[float, ...]:
        """Per-modality noise levels, broadcasting a scalar."""
        if isinstance(self.noise_sigma, float):
            return (self.noise_sigma,) * self.modalities
        return self.noise_sigma

    def visibility_masks(self) -> list[np.ndarray]:
        """Per-modality 0/1 masks over latent coordinates."""
        d, shared = self.latent_dim, self.shared_dims
        masks = [np.ones(d)]
        for i in range(1, self.modalities):
            m = np.zeros(d)
            m[:shared] = 1.0
            lo = shared + (i - 1) * self.paired_dims
            m[lo:lo + self.paired_dims] = 1.0
            masks.append(m)
        return masks


@dataclass(frozen=True)
class MultimodalDataset:
    """Raw per-modality views; sample i is row i of every view."""

    views: np.ndarray  # (k, N, raw_dim), the encoder bank's input layout

    @property
    def num_samples(self) -> int:
        return self.views.shape[1]

    @property
    def modalities(self) -> int:
        return self.views.shape[0]


def generate_dataset(spec: SyntheticSpec) -> MultimodalDataset:
    """Deterministic dataset for ``spec``.

    Per sample: class c, shared latent z = mu_c + eps; modality i sees
    ``z @ P_i.T + sigma_i * noise``, drawing the noise at sigma 0 too, so
    no sigma moves the stream.  Raises ``InvalidSpecError`` when a noise
    level is so large that a view overflows.
    """
    rng = np.random.default_rng(spec.seed)
    d, k, n_samples = spec.latent_dim, spec.modalities, spec.samples
    sigmas = spec.sigmas()

    mu = rng.standard_normal((spec.num_classes, d))
    projections = [rng.standard_normal((d, d)) / np.sqrt(d) for _ in range(k)]

    # Each sample's class picks its mean; the dataset keeps no labels.
    labels = rng.integers(0, spec.num_classes, size=n_samples)
    z = mu[labels] + rng.standard_normal((n_samples, d))
    masks = spec.visibility_masks()
    views = np.empty((k, n_samples, d))
    for i, slot in enumerate(views):
        view = _matmul(z * masks[i], projections[i].T)
        # The noise is drawn into the view's own slot and scaled and shifted
        # there: the bits of view + sigma * noise, without a noise array.
        rng.standard_normal(out=slot)
        try:
            with np.errstate(over="raise"):
                slot *= sigmas[i]
                slot += view
        except FloatingPointError:
            raise InvalidSpecError(
                f"noise_sigma {sigmas[i]!r} overflows the view of modality {i}"
            ) from None

    return MultimodalDataset(views=views)


def split_sizes(samples: int, holdout_fraction: float) -> tuple[int, int]:
    """The training and held-out sample counts of ``split_dataset`` on
    ``samples`` samples, without the data."""
    if not (0.0 < holdout_fraction < 1.0):
        raise InvalidSpecError(f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
    cut = int(round(samples * (1.0 - holdout_fraction)))
    cut = max(min(max(cut, 1), samples - 1), 0)  # >= 1 a side from 2 samples; 0 from 0
    return cut, samples - cut


def split_dataset(
    dataset: MultimodalDataset, holdout_fraction: float
) -> tuple[MultimodalDataset, MultimodalDataset]:
    """Fixed split by position: the leading samples train, the trailing
    ``holdout_fraction`` (``TrainConfig.holdout_fraction``) holds out."""
    cut, _ = split_sizes(dataset.num_samples, holdout_fraction)
    return MultimodalDataset(dataset.views[:, :cut]), MultimodalDataset(dataset.views[:, cut:])

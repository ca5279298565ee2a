"""Small per-modality encoders producing unit-norm embeddings.

One hidden tanh layer (``HIDDEN_WIDTH`` wide) followed by a linear
projection and row normalization: the smallest architecture that can
rotate an arbitrary full-rank view of the shared latent into alignment.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroVectorError
from .volume import ZERO_NORM_CUTOFF, _matmul

logger = logging.getLogger(__name__)

HIDDEN_WIDTH = 128


@dataclass
class ToyEncoder:
    """Affine -> tanh -> affine -> row normalize."""

    w1: np.ndarray  # (raw_dim, hidden)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden, embed_dim)
    b2: np.ndarray  # (embed_dim,)

    @classmethod
    def init(cls, raw_dim: int, embed_dim: int, rng: np.random.Generator) -> "ToyEncoder":
        enc = cls(
            w1=rng.standard_normal((raw_dim, HIDDEN_WIDTH)) / math.sqrt(raw_dim),
            b1=np.zeros(HIDDEN_WIDTH),
            w2=rng.standard_normal((HIDDEN_WIDTH, embed_dim)) / math.sqrt(HIDDEN_WIDTH),
            b2=np.zeros(embed_dim),
        )
        logger.info(
            "encoder %d->%d->%d with %d parameters",
            raw_dim, HIDDEN_WIDTH, embed_dim, enc.param_count(),
        )
        return enc

    def params(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def param_count(self) -> int:
        return sum(p.size for p in self.params().values())

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Unit-norm embedding rows for raw input rows."""
        return self.encode_cached(x)[0]

    def encode_cached(self, x: np.ndarray):
        """(embeddings, cache) where the cache feeds ``backward``."""
        x = np.asarray(x, dtype=np.float64)
        h = np.tanh(_matmul(x, self.w1) + self.b1)
        u = _matmul(h, self.w2) + self.b2
        norms = np.linalg.norm(u, axis=1, keepdims=True)
        if float(norms.min()) < ZERO_NORM_CUTOFF:
            raise ZeroVectorError("encoder produced a zero embedding")
        e = u / norms
        return e, (x, h, e, norms)

    def backward(self, cache, grad_e: np.ndarray) -> dict[str, np.ndarray]:
        """Parameter gradients given d(loss)/d(embedding rows)."""
        x, h, e, norms = cache
        # Through row normalization: du = (de - e <e, de>) / |u|.
        du = (grad_e - e * np.sum(e * grad_e, axis=1, keepdims=True)) / norms
        grads = {"w2": _matmul(h.T, du), "b2": du.sum(axis=0)}
        dh = _matmul(du, self.w2.T) * (1.0 - h * h)
        grads["w1"] = _matmul(x.T, dh)
        grads["b1"] = dh.sum(axis=0)
        return grads

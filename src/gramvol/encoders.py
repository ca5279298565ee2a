"""Small per-modality encoders producing unit-norm embeddings.

One hidden tanh layer (``HIDDEN_WIDTH`` wide) followed by a linear
projection and row normalization: the smallest architecture that can
rotate an arbitrary full-rank view of the shared latent into alignment.

A ``ToyEncoder`` is one encoder, or a bank of k encoders whose arrays
carry a leading modality axis: (k, d, H), (k, H), (k, H, n) and (k, n).
Both run the same code, on inputs (B, d) or (k, B, d).  A bank's matrix
products are stacked ``_matmul`` calls, one BLAS call per modality on
that modality's own operands, so the bank's embeddings and gradients are
bit for bit those of its encoders run one at a time, and ``bank[i]`` is
encoder i as a view of the bank's arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroVectorError
from .volume import ZERO_NORM_CUTOFF, _matmul

HIDDEN_WIDTH = 128


@dataclass
class ToyEncoder:
    """Affine -> tanh -> affine -> row normalize, per leading modality."""

    w1: np.ndarray  # ([k,] raw_dim, hidden)
    b1: np.ndarray  # ([k,] hidden)
    w2: np.ndarray  # ([k,] hidden, embed_dim)
    b2: np.ndarray  # ([k,] embed_dim)

    @classmethod
    def init(cls, raw_dim: int, embed_dim: int, rng: np.random.Generator) -> "ToyEncoder":
        return cls(
            w1=rng.standard_normal((raw_dim, HIDDEN_WIDTH)) / math.sqrt(raw_dim),
            b1=np.zeros(HIDDEN_WIDTH),
            w2=rng.standard_normal((HIDDEN_WIDTH, embed_dim)) / math.sqrt(HIDDEN_WIDTH),
            b2=np.zeros(embed_dim),
        )

    @classmethod
    def stack(cls, encoders) -> "ToyEncoder":
        """The bank of ``encoders``, which share their shapes."""
        return cls(**{name: np.stack([getattr(enc, name) for enc in encoders])
                      for name in ("w1", "b1", "w2", "b2")})

    def __getitem__(self, i: int) -> "ToyEncoder":
        """Encoder ``i`` of a bank, as views of the bank's arrays."""
        return ToyEncoder(self.w1[i], self.b1[i], self.w2[i], self.b2[i])

    def params(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Unit-norm embedding rows for raw input rows."""
        return self.encode_cached(x)[0]

    def encode_cached(self, x: np.ndarray):
        """(embeddings, cache) where the cache feeds ``backward``."""
        x = np.asarray(x, dtype=np.float64)
        # The bias adds and tanh write over each product: no second (k, B, H) array.
        h = _matmul(x, self.w1)
        h += self.b1[..., None, :]
        np.tanh(h, out=h)
        u = _matmul(h, self.w2)
        u += self.b2[..., None, :]
        norms = np.sqrt(np.add.reduce(u * u, -1, keepdims=True))
        if float(np.minimum.reduce(norms, None)) < ZERO_NORM_CUTOFF:
            raise ZeroVectorError("encoder produced a zero embedding")
        e = u / norms
        return e, (x, h, e, norms)

    def backward(self, cache, grad_e: np.ndarray) -> dict[str, np.ndarray]:
        """Parameter gradients given d(loss)/d(embedding rows)."""
        x, h, e, norms = cache
        # Through row normalization: du = (de - e <e, de>) / |u|.
        du = e * np.add.reduce(e * grad_e, -1, keepdims=True)
        np.subtract(grad_e, du, out=du)
        du /= norms
        grads = {"w2": _matmul(np.swapaxes(h, -1, -2), du), "b2": np.add.reduce(du, -2)}
        # Through tanh: dh = (du W2^T) (1 - h^2).
        dtanh = h * h
        np.subtract(1.0, dtanh, out=dtanh)
        dh = _matmul(du, np.swapaxes(self.w2, -1, -2))
        dh *= dtanh
        grads["w1"] = _matmul(np.swapaxes(x, -1, -2), dh)
        grads["b1"] = np.add.reduce(dh, -2)
        return grads

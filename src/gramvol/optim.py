"""Adaptive-moment optimizer (Adam), from scratch.

Kept in-repo (no framework) so the finite-difference gradient checks cover
the entire training path.  Parameters live in a flat name -> array dict;
scalars are 0-d arrays.  Only the learning rate is a setting: the moment
decays and the denominator guard are Adam's usual constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


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
    ``state``.  Parameters without a grad entry are left as they are."""
    state.t += 1
    c1 = 1.0 - BETA1 ** state.t
    c2 = 1.0 - BETA2 ** state.t
    for name, g in grads.items():
        p, m, v = params[name], state.m[name], state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * np.square(g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + EPS)

"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own code paths:
determinants come from recursive cofactor expansion and derivatives from
central finite differences, so agreement with the implementation is
evidence rather than tautology.  ``assert_same_at_1_and_2_threads`` is
the one check that a run's bytes do not depend on the BLAS thread count.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest


def cofactor_det(m: np.ndarray) -> float:
    """Determinant by Laplace expansion along the first row."""
    m = np.asarray(m, dtype=np.float64)
    k = m.shape[0]
    if k == 1:
        return float(m[0, 0])
    total = 0.0
    for j in range(k):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += ((-1.0) ** j) * float(m[0, j]) * cofactor_det(minor)
    return total


def central_diff(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function, coordinate-wise."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + h
        fp = f(x)
        xf[i] = orig - h
        fm = f(x)
        xf[i] = orig
        flat[i] = (fp - fm) / (2.0 * h)
    return grad


def unit_rows(rng: np.random.Generator, b: int, n: int) -> np.ndarray:
    """Random unit-norm rows."""
    x = rng.standard_normal((b, n))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def contrastive_loss_value(anchor, datas, tau) -> float:
    """Forward-only contrastive objective, for finite differencing."""
    import gramvol as gv

    vols = gv.cross_volumes(anchor, datas)
    l_d2a, l_a2d = gv.gram_contrastive_loss(vols, tau)
    return 0.5 * (l_d2a + l_a2d)


def total_loss_value(anchor, datas, tau, head, lam: float = 0.1) -> float:
    """Forward-only combined objective (contrastive + mined matching)."""
    import gramvol as gv

    vols = gv.cross_volumes(anchor, datas)
    l_d2a, l_a2d = gv.gram_contrastive_loss(vols, tau)
    b, n = anchor.shape
    neg_j = np.argmin(np.where(np.eye(b, dtype=bool), np.inf, vols), axis=1)
    x = np.empty((2 * b, (1 + len(datas)) * n))
    x[:b, :n] = anchor
    x[b:, :n] = anchor[neg_j]
    for off, d in enumerate(datas):
        sl = slice((1 + off) * n, (2 + off) * n)
        x[:b, sl] = d
        x[b:, sl] = d
    y = np.concatenate([np.ones(b), np.zeros(b)])
    logits = head.logits(x)
    l_dam = float(np.mean(np.logaddexp(0.0, logits) - logits * y))
    return gv.total_loss((l_d2a, l_a2d), l_dam, lam)


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-12) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


#: The OpenBLAS kernel sets a thread-count check runs under: the machine's
#: own, the AVX2 kernels (``Haswell``, which OpenBLAS also runs on AMD Zen),
#: the AVX kernels (``Sandybridge``) and the pre-AVX ones (``Nehalem``).
BLAS_CORES = [pytest.param(None, id="default-core"), "Haswell", "Sandybridge", "Nehalem"]


def assert_same_at_1_and_2_threads(args, *, core=None, tmp_path=None, files=()):
    """Run ``python *args`` at 1 and at 2 OpenBLAS threads, assert that both
    runs print the same stdout, and return its lines.

    For a run that writes files, ``args`` is a function of its output
    directory, a fresh one under ``tmp_path`` per run, and the ``files``
    there must be the same bytes too.  ``core`` forces an OpenBLAS kernel
    set (``OPENBLAS_CORETYPE``).  The check skips when the child does not
    report that core under ``OPENBLAS_VERBOSE=2``: a numpy not built on
    OpenBLAS, or a CPU without the core's instructions.
    """
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        if core is not None:
            env.update(OPENBLAS_CORETYPE=core, OPENBLAS_VERBOSE="2")
        out = tmp_path / f"threads{threads}" if callable(args) else None
        res = subprocess.run([sys.executable, *map(str, args(out) if out else args)],
                             capture_output=True, text=True, env=env)
        if core is not None and f"Core: {core}" not in res.stderr.splitlines():
            pytest.skip(f"OpenBLAS did not report the {core} kernels")
        assert res.returncode == 0, res.stderr
        digests = [hashlib.sha256((out / f).read_bytes()).hexdigest() for f in files]
        runs.append((res.stdout.splitlines(), digests))
    assert runs[0] == runs[1]
    return runs[0][0]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)

"""The training step's reductions and in-place updates, bit for bit.

The contrastive core, the cosine report and the encoders sum with direct
``ufunc.reduce`` calls and add biases in place.  Each check here runs the
rewritten function beside the plain expression it replaced, kept below
verbatim as the reference, and compares with ``np.array_equal`` and exact
float ``==``.  The scripts run at B = 64 and at a ragged B = 38, whose
products are slices of ``_matmul``'s padded ones, under each OpenBLAS
kernel set at 1 and 2 threads.
"""

import pytest

from conftest import BLAS_CORES, assert_same_at_1_and_2_threads

REFERENCES = """
import numpy as np
from gramvol.errors import ZeroVectorError
from gramvol.losses import LossReport, _volume_logits, hard_negative_mine, total_loss
from gramvol.metrics import cross_volumes, retrieval_recall
from gramvol.train import TraceRow
from gramvol.volume import ZERO_NORM_CUTOFF, VolumeBatch, _matmul


def ref_direction(z, axis, grad):
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


def ref_contrastive(z, grad=True):
    l_rows, dz = ref_direction(z, 1, grad)
    l_cols, dz_cols = ref_direction(z, 0, grad)
    if grad:
        dz += dz_cols
        dz *= 0.5 / z.shape[0]
    return l_rows, l_cols, dz


def ref_cosine(anchor, datas, tau, head=None, lam=0.1, grad=True):
    anchor = np.asarray(anchor, dtype=np.float64)
    nmod, t = len(datas), tau.tau
    rep = LossReport(0.0, 0.0)
    if grad:
        rep.grad_anchor, rep.grad_log_tau = np.zeros_like(anchor), 0.0
        rep.grad_datas = np.empty((nmod,) + anchor.shape)
    for off, d in enumerate(datas):
        z = _matmul(d, anchor.T) / t
        l_m2a, l_a2m, dz = ref_contrastive(z, grad)
        rep.l_d2a += l_m2a / nmod
        rep.l_a2d += l_a2m / nmod
        if grad:
            rep.grad_log_tau -= float(np.sum(dz * z)) / nmod
            dz /= nmod * t
            rep.grad_datas[off] = _matmul(dz, anchor)
            rep.grad_anchor += _matmul(dz.T, d)
    rep.l_tot = total_loss((rep.l_d2a, rep.l_a2d), 0.0, lam)
    return rep


def ref_gram_forward(anchor, datas, tau, head=None, lam=0.1, grad=False):
    # loss_report's grad=False path.
    anchor = np.asarray(anchor, dtype=np.float64)
    volumes = VolumeBatch(anchor, datas)
    vols = volumes.values
    z = _volume_logits(vols, tau)
    l_d2a, l_a2d, dz = ref_contrastive(z, grad)
    rep = LossReport(l_d2a, l_a2d, degenerate_tuples=int(volumes.degenerate.sum()),
                     volumes=vols)
    if head is not None and anchor.shape[0] >= 2:
        rep.l_dam = head.bce_forward(anchor, datas, hard_negative_mine(vols))[0]
    rep.l_tot = total_loss((l_d2a, l_a2d), rep.l_dam, lam)
    return rep


def ref_encode_cached(self, x):
    x = np.asarray(x, dtype=np.float64)
    h = np.tanh(_matmul(x, self.w1) + self.b1[..., None, :])
    u = _matmul(h, self.w2) + self.b2[..., None, :]
    norms = np.linalg.norm(u, axis=-1, keepdims=True)
    if float(norms.min()) < ZERO_NORM_CUTOFF:
        raise ZeroVectorError("encoder produced a zero embedding")
    e = u / norms
    return e, (x, h, e, norms)


def ref_backward(self, cache, grad_e):
    x, h, e, norms = cache
    du = (grad_e - e * np.sum(e * grad_e, axis=-1, keepdims=True)) / norms
    grads = {"w2": _matmul(np.swapaxes(h, -1, -2), du), "b2": du.sum(axis=-2)}
    dh = _matmul(du, np.swapaxes(self.w2, -1, -2)) * (1.0 - h * h)
    grads["w1"] = _matmul(np.swapaxes(x, -1, -2), dh)
    grads["b1"] = dh.sum(axis=-2)
    return grads


def ref_evaluate(encoders, dataset, tau, head, max_samples, objective, epoch, lam=0.1):
    nsel = min(max_samples, dataset.num_samples)
    embeds = ref_encode_cached(encoders, dataset.views[:, :nsel])[0]
    report = objective(embeds[0], embeds[1:], tau, head, lam, grad=False)
    vols = report.volumes
    if vols is None:
        vols = cross_volumes(embeds[0], embeds[1:])
    matched = float(np.mean(np.diag(vols)))
    mismatched = float(np.mean(vols[~np.eye(nsel, dtype=bool)]))
    r1 = retrieval_recall(vols, ks=(1,))[1]
    return TraceRow(epoch, report.l_d2a, report.l_a2d, report.l_dam, matched, mismatched, r1)


def same(a, b):
    if a is None or b is None:
        return a is b
    if isinstance(a, float):
        return type(b) is float and a == b
    return np.array_equal(a, b)
"""

#: ``_direction`` along each axis and ``contrastive``, with and without
#: gradients, every field of ``cosine_pairwise_report``, and
#: ``loss_report``'s temperature gradient.
CONTRASTIVE_CHECKS = """
from gramvol.losses import Temperature, _direction, contrastive, cosine_pairwise_report, loss_report

FIELDS = ("l_d2a", "l_a2d", "l_dam", "l_tot", "grad_log_tau", "grad_anchor", "grad_datas")
for b in (64, 38):
    r = np.random.default_rng(b)
    x = r.standard_normal((3, b, 64))
    x /= np.sqrt((x * x).sum(axis=-1, keepdims=True))
    for t in (0.05, 1.0):
        tau = Temperature.from_tau(t)
        z = _matmul(x[1], x[0].T) / tau.tau
        for grad in (True, False):
            for axis in (0, 1):
                got, want = _direction(z, axis, grad), ref_direction(z, axis, grad)
                print(b, t, grad, "_direction", axis, all(map(same, got, want)))
            got, want = contrastive(z, grad), ref_contrastive(z, grad)
            print(b, t, grad, "contrastive", all(map(same, got, want)))
            got = cosine_pairwise_report(x[0], x[1:], tau, grad=grad)
            want = ref_cosine(x[0], x[1:], tau, grad=grad)
            print(b, t, grad, "cosine", all(same(getattr(got, f), getattr(want, f))
                                            for f in FIELDS))
        rep = loss_report(x[0], x[1:], tau)
        z = _volume_logits(rep.volumes, tau)
        want = -float(np.sum(ref_contrastive(z)[2] * z))
        print(b, t, "loss_report.grad_log_tau", same(rep.grad_log_tau, want))
"""

#: The bank's and a single encoder's forward (embeddings and cache) and
#: backward, on contiguous inputs and on row slices of a larger array,
#: then ``evaluate``'s trace row on the strided held-out views under both
#: objectives.
ENCODER_CHECKS = """
import gramvol as gv
from gramvol.encoders import ToyEncoder
from gramvol.losses import DamHead, Temperature, cosine_pairwise_report, loss_report
from gramvol.synth import split_dataset
from gramvol.train import evaluate

r = np.random.default_rng(30)
for k, d, n in ((3, 23, 64), (4, 16, 32)):
    bank = ToyEncoder.stack([ToyEncoder.init(d, n, r) for _ in range(k)])
    big = r.standard_normal((k, 100, d))
    for b in (64, 38):
        g = r.standard_normal((k, b, n))
        for kind, x in (("contiguous", r.standard_normal((k, b, d))), ("sliced", big[:, 7:7 + b])):
            for enc, xs, gs in ((bank, x, g), (bank[1], x[1], g[1])):
                e, cache = enc.encode_cached(xs)
                want_e, want_cache = ref_encode_cached(enc, xs)
                grads, want = enc.backward(cache, gs), ref_backward(enc, want_cache, gs)
                print(k, b, kind, xs.ndim, "encode", all(map(same, (e, *cache), (want_e, *want_cache))))
                print(k, b, kind, xs.ndim, "backward", grads.keys() == want.keys()
                      and all(same(grads[name], want[name]) for name in want))

spec = gv.SyntheticSpec(latent_dim=16, embed_dim=64, modalities=3, num_classes=4,
                        noise_sigma=0.03, samples=400, paired_dims=7)
_, held = split_dataset(gv.generate_dataset(spec), 0.2)
bank = ToyEncoder.stack([ToyEncoder.init(v.shape[1], 64, r) for v in held.views])
head = DamHead(3, 64, r)
tau = Temperature.from_tau(0.3)
for objective, want_objective, h in ((loss_report, ref_gram_forward, head),
                                     (cosine_pairwise_report, ref_cosine, None)):
    for b in (64, 38):
        row = evaluate(bank, held, tau, h, b, objective, 2)
        want = ref_evaluate(bank, held, tau, h, b, want_objective, 2)
        print(objective.__name__, b, "evaluate", row == want)
"""


@pytest.mark.parametrize("core", BLAS_CORES)
def test_contrastive_core_keeps_the_plain_expressions_bits(core):
    lines = assert_same_at_1_and_2_threads(["-c", REFERENCES + CONTRASTIVE_CHECKS], core=core)
    # Two batch sizes by two temperatures: with and without gradients,
    # _direction twice, contrastive and cosine; then loss_report once.
    assert len(lines) == 2 * 2 * (2 * 4 + 1)
    assert [line for line in lines if not line.endswith(" True")] == []


@pytest.mark.parametrize("core", BLAS_CORES)
def test_encoders_and_evaluate_keep_the_plain_expressions_bits(core):
    lines = assert_same_at_1_and_2_threads(["-c", REFERENCES + ENCODER_CHECKS], core=core)
    # Two banks by two batch sizes by two inputs, for the bank and one of
    # its encoders, forward and backward; then evaluate under two
    # objectives at two sizes.
    assert len(lines) == 2 * 2 * 2 * 2 * 2 + 2 * 2
    assert [line for line in lines if not line.endswith(" True")] == []

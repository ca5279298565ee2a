"""Contrastive and matching losses: worked examples and gradient checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gramvol as gv
from gramvol.errors import BatchTooSmallError, NonFiniteLossError
from gramvol.losses import (
    TAU_MIN,
    DamHead,
    Temperature,
    _direction,
    contrastive,
    hard_negative_mine,
    loss_report,
)
from gramvol.train import cosine_pairwise_report

from conftest import (
    BLAS_CORES,
    assert_same_at_1_and_2_threads,
    contrastive_loss_value as contrastive_value,
    rel_err,
    total_loss_value as total_value,
    unit_rows,
)

TAU_ONE = Temperature.from_tau(1.0)




class TestTemperature:
    def test_round_trip(self):
        assert Temperature.from_tau(0.07).tau == pytest.approx(0.07, rel=1e-15)

    def test_clamp(self):
        assert Temperature.from_tau(100.0).clamped().tau == pytest.approx(10.0)
        assert Temperature(log_tau=-50.0).clamped().tau == pytest.approx(1e-3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Temperature.from_tau(0.0)


class TestGramContrastiveLoss:
    def test_single_sample_is_zero(self):
        assert gv.gram_contrastive_loss(np.array([[0.3]]), TAU_ONE) == (0.0, 0.0)

    def test_uniform_volumes(self):
        l_d2a, l_a2d = gv.gram_contrastive_loss(np.full((4, 4), 0.6), TAU_ONE)
        assert l_d2a == pytest.approx(math.log(4.0), abs=1e-12)
        assert l_a2d == pytest.approx(math.log(4.0), abs=1e-12)

    def test_two_by_two_worked_example(self):
        v = np.array([[0.0, 1.0], [1.0, 0.0]])
        l_d2a, l_a2d = gv.gram_contrastive_loss(v, TAU_ONE)
        expected = math.log(1.0 + math.exp(-1.0))
        assert l_d2a == pytest.approx(expected, abs=1e-12)
        assert l_a2d == pytest.approx(expected, abs=1e-12)

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteLossError):
            gv.gram_contrastive_loss(np.array([[np.nan, 0.0], [0.0, 0.0]]), TAU_ONE)

    def test_perfect_alignment_floor(self):
        # Matched volumes 0, mismatched 1: the loss vanishes as tau shrinks.
        b = 8
        v = 1.0 - np.eye(b)
        l_d2a, l_a2d = gv.gram_contrastive_loss(v, Temperature.from_tau(0.01))
        assert l_d2a < 1e-3
        assert l_a2d < 1e-3

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
    def test_nonnegative(self, b, seed):
        v = np.random.default_rng(seed).uniform(0.0, 1.0, size=(b, b))
        l_d2a, l_a2d = gv.gram_contrastive_loss(v, Temperature.from_tau(0.5))
        assert l_d2a >= 0.0 and l_a2d >= 0.0


class TestHardNegativeMine:
    def test_two_sample_batch(self):
        v = np.array([[0.0, 0.3], [0.7, 0.0]])
        np.testing.assert_array_equal(hard_negative_mine(v), [1, 0])

    def test_argmin_selection(self):
        v = np.array([[0.0, 0.9, 0.2], [0.1, 0.0, 0.8], [0.5, 0.4, 0.0]])
        assert hard_negative_mine(v)[0] == 2

    def test_tie_breaks_to_lowest_index(self):
        v = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
        np.testing.assert_array_equal(hard_negative_mine(v), [1, 0, 0])

    def test_small_batch_rejected(self):
        with pytest.raises(BatchTooSmallError):
            hard_negative_mine(np.array([[0.0]]))


class TestTotalLoss:
    def test_zero(self):
        assert gv.total_loss((0.0, 0.0), 0.0) == 0.0

    def test_lambda_term_absent(self):
        l4 = math.log(4.0)
        assert gv.total_loss((l4, l4), 0.0) == pytest.approx(l4, abs=1e-15)

    def test_worked_arithmetic(self):
        l = math.log(1.0 + math.exp(-1.0))
        dam = math.log(2.0)
        assert gv.total_loss((l, l), dam) == pytest.approx(l + 0.1 * dam, abs=1e-15)
        assert gv.total_loss((l, l), dam) == pytest.approx(0.38257, abs=1e-5)


class TestContrastiveGrad:
    def test_single_sample_gradients_are_zero(self, rng):
        anchor = unit_rows(rng, 1, 5)
        datas = [unit_rows(rng, 1, 5)]
        rep = loss_report(anchor, datas, TAU_ONE)
        np.testing.assert_array_equal(rep.grad_anchor, 0.0)
        np.testing.assert_array_equal(rep.grad_datas, 0.0)
        assert rep.grad_log_tau == 0.0

    def test_matches_finite_differences(self, rng):
        tau = Temperature.from_tau(0.7)
        anchor = unit_rows(rng, 4, 8)
        datas = [unit_rows(rng, 4, 8) for _ in range(2)]
        rep = loss_report(anchor, datas, tau)

        fd_anchor = np.zeros_like(anchor)
        h = 1e-6
        for i in range(anchor.shape[0]):
            for j in range(anchor.shape[1]):
                ap, am = anchor.copy(), anchor.copy()
                ap[i, j] += h
                am[i, j] -= h
                fd_anchor[i, j] = (
                    contrastive_value(ap, datas, tau) - contrastive_value(am, datas, tau)
                ) / (2 * h)
        mask = np.abs(fd_anchor) > 1e-8
        assert rel_err(rep.grad_anchor[mask], fd_anchor[mask]).max() < 1e-5

        for m in range(2):
            fd = np.zeros_like(datas[m])
            for i in range(4):
                for j in range(8):
                    dp = [d.copy() for d in datas]
                    dm = [d.copy() for d in datas]
                    dp[m][i, j] += h
                    dm[m][i, j] -= h
                    fd[i, j] = (
                        contrastive_value(anchor, dp, tau) - contrastive_value(anchor, dm, tau)
                    ) / (2 * h)
            mask = np.abs(fd) > 1e-8
            assert rel_err(rep.grad_datas[m][mask], fd[mask]).max() < 1e-5

        fd_tau = (
            contrastive_value(anchor, datas, Temperature(tau.log_tau + h))
            - contrastive_value(anchor, datas, Temperature(tau.log_tau - h))
        ) / (2 * h)
        assert rel_err(rep.grad_log_tau, fd_tau).max() < 1e-5

    def test_symmetric_volumes_balance_tau_gradient(self, rng):
        # When the volume matrix is symmetric the two loss directions are
        # identical functions of tau.  Each direction's dL/d(log tau) is
        # -sum(dL/dz * z), since dz/d(log tau) = -z.
        rows = unit_rows(rng, 4, 8)
        batch_vols = gv.cross_volumes(rows, [rows[::-1].copy()])
        z = -0.5 * (batch_vols + batch_vols.T) / Temperature.from_tau(0.5).tau
        g_d2a, g_a2d = (-float(np.sum(_direction(z, axis, True)[1] * z)) for axis in (1, 0))
        assert abs(g_d2a - g_a2d) < 1e-10

    def test_batch_interface(self, rng):
        # A validated MultimodalBatch feeds loss_report through its rows.
        rows = [unit_rows(rng, 3, 6) for _ in range(3)]
        batch = gv.MultimodalBatch(
            anchor=gv.ModalityBatch(rows=rows[0]),
            datas=tuple(gv.ModalityBatch(rows=r) for r in rows[1:]),
        )
        rep = loss_report(batch.anchor.rows, [m.rows for m in batch.datas], TAU_ONE)
        assert rep.l_dam == 0.0
        assert rep.l_tot == gv.total_loss((rep.l_d2a, rep.l_a2d), 0.0)
        assert rep.grad_anchor.shape == (3, 6)
        assert rep.grad_datas.shape == (2, 3, 6)


class TestFullReport:
    def test_lambda_linkage_exact(self, rng):
        anchor = unit_rows(rng, 4, 8)
        datas = [unit_rows(rng, 4, 8)]
        head = DamHead(2, 8, rng)
        rep = loss_report(anchor, datas, TAU_ONE, head)
        assert rep.l_tot == gv.total_loss((rep.l_d2a, rep.l_a2d), rep.l_dam)
        assert abs(rep.l_tot - (0.5 * (rep.l_d2a + rep.l_a2d) + 0.1 * rep.l_dam)) <= 1e-12

    def test_full_gradient_matches_finite_differences(self, rng):
        tau = Temperature.from_tau(0.5)
        b, n = 3, 6
        anchor = unit_rows(rng, b, n)
        datas = [unit_rows(rng, b, n) for _ in range(2)]
        head = DamHead(3, n, rng)
        rep = loss_report(anchor, datas, tau, head)
        h = 1e-6

        fd_anchor = np.zeros_like(anchor)
        for i in range(b):
            for j in range(n):
                ap, am = anchor.copy(), anchor.copy()
                ap[i, j] += h
                am[i, j] -= h
                fd_anchor[i, j] = (
                    total_value(ap, datas, tau, head) - total_value(am, datas, tau, head)
                ) / (2 * h)
        mask = np.abs(fd_anchor) > 1e-8
        assert rel_err(rep.grad_anchor[mask], fd_anchor[mask]).max() < 1e-5

    def test_head_parameter_gradients_match_finite_differences(self, rng):
        tau = Temperature.from_tau(0.5)
        b, n = 3, 5
        anchor = unit_rows(rng, b, n)
        datas = [unit_rows(rng, b, n)]
        head = DamHead(2, n, rng)
        rep = loss_report(anchor, datas, tau, head)
        h = 1e-6
        for name, arr in head.params().items():
            flat = arr.reshape(-1)
            picks = rng.choice(flat.size, size=min(8, flat.size), replace=False)
            for idx in picks:
                orig = flat[idx]
                flat[idx] = orig + h
                fp = total_value(anchor, datas, tau, head)
                flat[idx] = orig - h
                fm = total_value(anchor, datas, tau, head)
                flat[idx] = orig
                fd = (fp - fm) / (2 * h)
                got = rep.head_grads[name].reshape(-1)[idx]
                if abs(fd) > 1e-8:
                    assert rel_err(got, fd).max() < 1e-5

    def test_descent_step_reduces_contrastive_loss(self, rng):
        tau = Temperature.from_tau(0.5)
        anchor = unit_rows(rng, 4, 8)
        datas = [unit_rows(rng, 4, 8) for _ in range(2)]
        rep = loss_report(anchor, datas, tau)
        before = 0.5 * (rep.l_d2a + rep.l_a2d)
        step = 1e-2
        for _ in range(20):
            new_anchor = anchor - step * rep.grad_anchor
            new_datas = [d - step * g for d, g in zip(datas, rep.grad_datas)]
            new_tau = Temperature(tau.log_tau - step * rep.grad_log_tau)
            after = contrastive_value(new_anchor, new_datas, new_tau)
            if after < before:
                break
            step /= 2.0
        assert after < before

    def test_degenerate_tuples_flagged(self, rng):
        v = unit_rows(rng, 1, 6)[0]
        anchor = np.array([v, v])
        datas = [np.array([v, v])]
        rep = loss_report(anchor, datas, TAU_ONE)
        assert rep.degenerate_tuples == 4
        np.testing.assert_array_equal(rep.grad_anchor, 0.0)


def assembled_head_grads(head, anchor, datas, neg_j, lam):
    """Reference head BCE gradients on the explicit (2B, k*n) input, with the
    negatives' anchor gradients scattered back by ``np.add.at``."""
    b, n = anchor.shape
    x = np.concatenate([np.hstack([anchor] + datas), np.hstack([anchor[neg_j]] + datas)])
    y = np.repeat([1.0, 0.0], b)
    h1 = np.tanh(x @ head.w1 + head.b1)
    h2 = np.tanh(h1 @ head.w2 + head.b2)
    logit = h2 @ head.w3 + head.b3
    dlogit = lam * (1.0 / (1.0 + np.exp(-logit)) - y) / (2 * b)
    dh2 = np.outer(dlogit, head.w3) * (1.0 - h2 * h2)
    dh1 = (dh2 @ head.w2.T) * (1.0 - h1 * h1)
    dx = dh1 @ head.w1.T
    grad_anchor = dx[:b, :n].copy()
    np.add.at(grad_anchor, neg_j, dx[b:, :n])
    grad_datas = (dx[:b, n:] + dx[b:, n:]).reshape(b, len(datas), n).transpose(1, 0, 2)
    params = {"w1": x.T @ dh1, "b1": dh1.sum(axis=0), "w2": h1.T @ dh2,
              "b2": dh2.sum(axis=0), "w3": h2.T @ dlogit, "b3": dlogit.sum()}
    return x, logit, grad_anchor, grad_datas, params


class TestContrastiveCore:
    def test_forward_only_losses_equal_gradient_path(self, rng):
        b, n = 6, 8
        tau = Temperature.from_tau(0.3)
        anchor = unit_rows(rng, b, n)
        datas = [unit_rows(rng, b, n) for _ in range(2)]
        head = DamHead(3, n, rng)
        rep = loss_report(anchor, datas, tau, head)
        vols = gv.cross_volumes(anchor, datas)
        assert gv.gram_contrastive_loss(vols, tau) == (rep.l_d2a, rep.l_a2d)
        l_rows, l_cols, dz = contrastive(-vols / tau.tau, grad=False)
        assert (l_rows, l_cols, dz) == (rep.l_d2a, rep.l_a2d, None)
        neg_j = np.argmin(np.where(np.eye(b, dtype=bool), np.inf, vols), axis=1)
        assert head.bce_forward(anchor, datas, neg_j)[0] == rep.l_dam

    def test_head_rows_match_assembled_input(self, rng):
        b, n, lam = 7, 5, 0.3
        anchor = unit_rows(rng, b, n)
        datas = [unit_rows(rng, b, n) for _ in range(2)]
        head = DamHead(3, n, rng)
        # Repeated negatives: several rows fold onto one anchor.
        neg_j = np.array([1, 0, 0, 0, 6, 6, 2])
        x, logit, ref_anchor, ref_datas, ref_params = assembled_head_grads(
            head, anchor, datas, neg_j, lam
        )
        loss, cache = head.bce_forward(anchor, datas, neg_j)
        log_p = cache[3]
        np.testing.assert_allclose(head.logits(x), logit, rtol=0, atol=1e-12)
        np.testing.assert_allclose(log_p, -np.logaddexp(0.0, -logit), rtol=0, atol=1e-12)
        y = np.repeat([1.0, 0.0], b)
        assert abs(loss - np.mean(np.logaddexp(0.0, logit) - logit * y)) <= 1e-12

        loss2, g_anchor, g_datas, g_params = head.bce_value_and_grads(anchor, datas, neg_j, lam)
        assert loss2 == loss
        np.testing.assert_allclose(g_anchor, ref_anchor, rtol=0, atol=1e-12)
        np.testing.assert_allclose(g_datas, ref_datas, rtol=0, atol=1e-12)
        for name, ref in ref_params.items():
            np.testing.assert_allclose(g_params[name], ref, rtol=0, atol=1e-12)

    def test_finite_at_minimum_temperature(self, rng):
        # z = -V / 1e-3 spans [-1000, 0]: exp underflows, never overflows.
        b = 64
        tau = Temperature.from_tau(TAU_MIN)
        v = rng.uniform(0.0, 1.0, size=(b, b))
        v[0, 0], v[0, 1] = 0.0, 1.0
        z = -v / tau.tau
        l_d2a, l_a2d, dz = contrastive(z)
        assert np.isfinite([l_d2a, l_a2d, np.sum(dz * z)]).all()
        assert np.isfinite(dz).all()
        assert gv.gram_contrastive_loss(v, tau) == (l_d2a, l_a2d)

        anchor = unit_rows(rng, b, 8)
        datas = [unit_rows(rng, b, 8) for _ in range(2)]
        for rep in (loss_report(anchor, datas, tau, DamHead(3, 8, rng)),
                    cosine_pairwise_report(anchor, datas, tau)):
            assert np.isfinite([rep.l_d2a, rep.l_a2d, rep.l_dam, rep.grad_log_tau]).all()
            assert np.isfinite(rep.grad_anchor).all()
            assert np.isfinite(rep.grad_datas).all()


#: Prints one line per LossReport field (a float's hex, an array's SHA-256)
#: for both objectives at two shapes and two temperatures, or at the
#: (B, k, n) shapes given as its argument.  At B = 128 the flattened B x B
#: matrices exceed the 10,000 elements above which OpenBLAS splits a single
#: dot product across threads.  A split sum can still round to the same
#: double, so each reduction is checked on several inputs.
THREAD_SCRIPT = """
import ast
import hashlib
import sys
import numpy as np
from gramvol.losses import DamHead, Temperature, loss_report
from gramvol.train import cosine_pairwise_report

shapes = ast.literal_eval(sys.argv[1]) if len(sys.argv) > 1 else ((64, 3, 64), (128, 4, 256))
for b, k, n in shapes:
    r = np.random.default_rng(b)
    x = r.standard_normal((k, b, n))
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    head = DamHead(k, n, r)
    for t in (0.1, 1.0):
        tau = Temperature.from_tau(t)
        reports = {
            "gram": loss_report(x[0], list(x[1:]), tau, head),
            "cosine": cosine_pairwise_report(x[0], list(x[1:]), tau),
        }
        for kind, rep in reports.items():
            fields = {name: getattr(rep, name) for name in (
                "l_d2a", "l_a2d", "l_dam", "l_tot", "grad_log_tau", "grad_anchor",
                "grad_datas")}
            fields.update({f"head.{name}": g for name, g in (rep.head_grads or {}).items()})
            for name, value in fields.items():
                if isinstance(value, float):
                    digest = value.hex()
                else:
                    digest = hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
                print(b, k, n, t, kind, name, digest)
"""


def test_loss_reports_byte_identical_across_blas_thread_counts():
    # Compares every field directly: training bytes can hide a one-ulp
    # gradient change, since Adam's normalised step absorbs most of them.
    lines = assert_same_at_1_and_2_threads(["-c", THREAD_SCRIPT])
    # Two shapes by two temperatures, each gram (7 fields, 6 head arrays)
    # and cosine (7 fields).
    assert len(lines) == 4 * (7 + 6 + 7)


@pytest.mark.parametrize("core", BLAS_CORES)
def test_loss_reports_byte_identical_across_blas_thread_counts_past_256(core):
    # Past B = 256 the volume backward sums over K = B (k - 1) > 512, the
    # head over K = 2B, and B = 257 or 300 is a width and a row count that
    # the kernels' 8-wide tiles do not divide.
    shapes = "((257, 3, 64), (300, 3, 64), (600, 2, 64))"
    lines = assert_same_at_1_and_2_threads(["-c", THREAD_SCRIPT, shapes], core=core)
    assert len(lines) == 6 * (7 + 6 + 7)

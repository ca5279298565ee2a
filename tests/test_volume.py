"""Core volume math: examples, invariants, and gradient correctness."""

import decimal
import math
import operator
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import gramvol as gv
from gramvol.errors import (
    DimensionMismatchError,
    EmptyInputError,
    NonFiniteInputError,
    ZeroVectorError,
)
from gramvol import volume
from gramvol.volume import DEGENERATE_VOLUME, VolumeBatch, _matmul, _one_thread

from conftest import (
    BLAS_CORES,
    assert_same_at_1_and_2_threads,
    central_diff,
    cofactor_det,
    random_orthogonal,
    rel_err,
    unit_rows,
)


class TestNormalize:
    def test_scales_to_unit(self):
        np.testing.assert_allclose(gv.normalize([3.0, 4.0]), [0.6, 0.8], rtol=0, atol=1e-15)

    def test_identity_on_unit_vector(self):
        np.testing.assert_array_equal(gv.normalize([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError) as info:
            gv.normalize([0.0, 0.0])
        assert info.value.row is None

    def test_three_dimensional_array_rejected(self):
        with pytest.raises(DimensionMismatchError, match=r"shape \(2, 1, 3\)"):
            gv.normalize(np.ones((2, 1, 3)))

    def test_smallest_zero_row_travels_on_the_error(self):
        # Rows 1 and 3 are below the cutoff too; the message and the index
        # name the smallest norm.
        rows = np.array([[1.0, 0.0], [0.0, 1e-40], [3e-41, 4e-41], [0.0, 2e-40]])
        with pytest.raises(ZeroVectorError) as info:
            gv.normalize(rows)
        assert str(info.value) == "cannot normalize vector with norm 5e-41"
        assert info.value.row == 2

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteInputError):
            gv.normalize([1.0, float("nan")])

    @pytest.mark.filterwarnings("error")
    def test_squared_norm_past_float_max(self):
        # 3e200**2 overflows; the row's norm, 5e200, does not.
        rows = np.array([[3e200, 4e200], [1.7e308, -1.7e308], [0.0, 2.0]])
        np.testing.assert_array_equal(gv.normalize(rows[0]), [0.6, 0.8])
        np.testing.assert_allclose(gv.normalize(rows),
                                   [[0.6, 0.8], [0.5 ** 0.5, -0.5 ** 0.5], [0.0, 1.0]],
                                   rtol=0, atol=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_other_rows_keep_their_bits(self, rng):
        rows = rng.standard_normal((6, 5))
        mixed = np.vstack([rows[:3], [[0.0, 3e200, 0.0, -4e200, 0.0]], rows[3:]])
        plain = rows / np.sqrt(np.vecdot(rows, rows))[:, None]
        out = gv.normalize(mixed)
        assert out[[0, 1, 2, 4, 5, 6]].tobytes() == plain.tobytes()
        np.testing.assert_allclose(out[3], [0.0, 0.6, 0.0, -0.8, 0.0], rtol=0, atol=1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("v, norm", [
        ([1e-200, 1e-200], 2 ** 0.5 * 1e-200),
        ([3e-170, 0.0, 4e-170], 5e-170),
        ([1e-310, 0.0], 1e-310),
    ], ids=["pair", "triple", "subnormal"])
    def test_squared_norm_below_normal_floats_reports_true_norm(self, v, norm):
        with pytest.raises(ZeroVectorError, match="norm") as info:
            gv.normalize(np.array([[1.0, 0.0, 0.0][:len(v)], v]))
        reported = float(str(info.value).rsplit(" ", 1)[1])
        assert reported == pytest.approx(norm, rel=1e-15, abs=0)

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (6,), elements=st.floats(-10, 10)))
    def test_unit_norm_and_direction(self, v):
        if np.linalg.norm(v) < 1e-6:
            return
        u = gv.normalize(v)
        assert abs(np.linalg.norm(u) - 1.0) < 1e-12
        np.testing.assert_allclose(u * np.linalg.norm(v), v, atol=1e-9)


class TestGramianVolume:
    def test_orthonormal_triple_in_r4(self):
        e = np.eye(4)
        vol = gv.gramian_volume([e[0], e[1], e[2]])
        assert vol.value == 1.0

    def test_sixty_degree_pair(self):
        v1 = np.array([1.0, 0.0])
        v2 = np.array([math.cos(math.pi / 3), math.sin(math.pi / 3)])
        assert abs(gv.gramian_volume([v1, v2]).value - math.sin(math.pi / 3)) < 1e-14

    def test_pairwise_half_triple(self):
        # Three unit vectors with all pairwise inner products 0.5; the
        # expected value comes from the cofactor-expansion oracle.
        g = np.full((3, 3), 0.5)
        np.fill_diagonal(g, 1.0)
        rows = np.linalg.cholesky(g)
        expected = math.sqrt(cofactor_det(g))
        assert abs(cofactor_det(g) - 0.5) < 1e-15
        assert abs(gv.gramian_volume(list(rows)).value - expected) < 1e-12

    def test_k_exceeding_n_is_zero(self):
        vol = gv.gramian_volume([np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                                 gv.normalize([1.0, 1.0])])
        assert vol.value == 0.0

    def test_single_vector_is_norm(self):
        assert abs(gv.gramian_volume([np.array([3.0, 4.0])]).value - 5.0) < 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteInputError):
            gv.gramian_volume([np.array([1.0, np.inf])])

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            gv.gramian_volume([])

    @pytest.mark.parametrize("vectors, error", [
        (np.zeros((0, 3)), EmptyInputError),
        ([np.eye(2)], DimensionMismatchError),
    ], ids=["no-rows", "2-d-vector"])
    def test_malformed_rows_rejected(self, vectors, error):
        with pytest.raises(error):
            gv.gramian_volume(vectors)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            gv.volume_gradient([np.zeros(3), np.zeros(4)])

    def test_large_k_matches_eigenvalue_product(self, rng):
        rows = rng.standard_normal((12, 20))
        expected = float(np.prod(np.linalg.eigvalsh(rows @ rows.T)))
        assert gv.gramian_volume(rows).value ** 2 == pytest.approx(expected, rel=1e-8)

    def test_oracle_equivalence_sample(self, rng):
        for _ in range(100):
            k = int(rng.integers(1, 5))
            n = int(rng.integers(k, 7))
            rows = unit_rows(rng, k, n)
            det = cofactor_det(rows @ rows.T)
            assert abs(gv.gramian_volume(rows).value ** 2 - det) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 2 ** 31 - 1))
    def test_permutation_invariance(self, k, seed):
        r = np.random.default_rng(seed)
        rows = unit_rows(r, k, 6)
        base = gv.gramian_volume(rows).value
        perm = r.permutation(k)
        assert gv.gramian_volume(rows[perm]).value == pytest.approx(base, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 2 ** 31 - 1))
    def test_orthogonal_invariance(self, k, seed):
        r = np.random.default_rng(seed)
        rows = unit_rows(r, k, 6)
        o = random_orthogonal(r, 6)
        rotated = rows @ o.T
        assert abs(gv.gramian_volume(rotated).value - gv.gramian_volume(rows).value) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 2 ** 31 - 1))
    def test_monotone_degeneracy(self, k, seed):
        r = np.random.default_rng(seed)
        rows = unit_rows(r, k, 8)
        rows[1] = rows[0]
        assert gv.gramian_volume(rows).value < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 2 ** 31 - 1))
    def test_hadamard_bound_for_unit_inputs(self, k, seed):
        rows = unit_rows(np.random.default_rng(seed), k, 8)
        v = gv.gramian_volume(rows).value
        assert 0.0 <= v <= 1.0 + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 31 - 1),
        st.floats(-9.0, 0.0), st.booleans(), st.sampled_from([None, "data", "anchor"]),
    )
    # Exactly collinear rows whose computed pivot or residual is not 0 but a
    # few eps of rounding from the length-n inner products.
    @example(k=3, n=6, seed=12449290, log_gap=-1.0, unit=True, collinear="data")
    @example(k=2, n=6, seed=8, log_gap=-1.0, unit=True, collinear="anchor")
    @example(k=3, n=6, seed=69, log_gap=-1.0, unit=True, collinear="anchor")
    def test_matches_cofactor_oracle_near_degenerate(
        self, k, n, seed, log_gap, unit, collinear
    ):
        # One row sits 10**log_gap off the span of the others, so volumes
        # run from about 1e-9 to 1.  Non-unit rows scale the tolerance with
        # the Hadamard bound (the product of squared row norms); the rank
        # tolerance is per row, so rows of different lengths need no more.
        # ``collinear`` makes two data rows, or the anchor (row 0) and a data
        # row, exact multiples of each other: volume 0.
        r = np.random.default_rng(seed)
        rows = unit_rows(r, k, n)
        if k > 1:
            mix = r.standard_normal(k - 1) @ rows[1:]
            rows[0] = mix + 10.0 ** log_gap * unit_rows(r, 1, n)[0]
            rows = rows[r.permutation(k)]
        if not unit:
            rows *= 10.0 ** r.uniform(-2.0, 2.0, size=(k, 1))
        if collinear == "data" and k >= 3:
            rows[-1] = r.uniform(-3.0, 3.0) * rows[-2]
        elif collinear == "anchor" and k >= 2:
            rows[0] = r.uniform(-3.0, 3.0) * rows[1]
        else:
            collinear = None
        vol = gv.gramian_volume(rows)
        if k > n or collinear:
            assert vol.value == 0.0
            return
        norms2 = np.einsum("kn,kn->k", rows, rows)
        bound = 1e-12 * np.prod(norms2)
        assert abs(vol.value ** 2 - cofactor_det(rows @ rows.T)) <= bound

    @pytest.mark.parametrize("order", [(0, 1, 2), (1, 2, 0), (2, 0, 1)])
    def test_short_row_off_span_of_long_rows(self, order):
        # A short anchor, a few 1e-6 radians off the span of two long data
        # rows: each row is judged against its own norm, so the volume is
        # not mistaken for 0 whichever row leads.
        st = 2.6e-6
        rows = np.array([
            0.3 * np.array([math.sqrt(1.0 - st * st), 0.0, st, 0.0]),
            [52.0, 0.0, 0.0, 0.0],
            [0.0, 22.5, 0.0, 0.0],
        ])[list(order)]
        exact = [[Fraction(float(x)) for x in r] for r in rows]
        g = [[sum(x * y for x, y in zip(u, v)) for v in exact] for u in exact]
        det = float(
            g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
            - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
            + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0])
        )
        assert det == pytest.approx(8.3283876e-7, rel=1e-7)
        assert gv.gramian_volume(rows).value ** 2 == pytest.approx(det, rel=1e-4)

    def test_sine_equivalence_for_pairs(self, rng):
        for _ in range(200):
            rows = unit_rows(rng, 2, 6)
            cos = float(rows[0] @ rows[1])
            assert abs(gv.gramian_volume(rows).value - math.sqrt(1.0 - cos ** 2)) < 1e-10


class TestVolumeGradient:
    def test_orthonormal_pair_matches_finite_differences(self):
        rows = np.eye(3)[:2].copy()
        grad = gv.volume_gradient(rows)
        fd = central_diff(lambda r: gv.gramian_volume(r).value, rows)
        assert not grad.degenerate
        assert rel_err(grad.grads, fd).max() < 1e-5
        np.testing.assert_allclose(grad.grads, rows, atol=1e-12)

    def test_identical_vectors_degenerate(self, rng):
        v = unit_rows(rng, 1, 5)[0]
        grad = gv.volume_gradient([v, v])
        assert grad.degenerate
        np.testing.assert_array_equal(grad.grads, np.zeros((2, 5)))

    def test_random_triple_matches_finite_differences(self, rng):
        rows = unit_rows(rng, 3, 5)
        grad = gv.volume_gradient(rows)
        fd = central_diff(lambda r: gv.gramian_volume(r).value, rows)
        assert rel_err(grad.grads, fd).max() < 1e-5

    def test_gradient_suite_random_configs(self, rng):
        checked = 0
        while checked < 100:
            k = int(rng.integers(2, 6))
            rows = unit_rows(rng, k, 16)
            vol = gv.gramian_volume(rows).value
            if vol <= 1e-3:
                continue
            grad = gv.volume_gradient(rows)
            fd = central_diff(lambda r: gv.gramian_volume(r).value, rows)
            mask = np.abs(fd) > 1e-8
            assert rel_err(grad.grads[mask], fd[mask]).max() < 1e-5
            checked += 1

    def test_k_above_n_degenerate(self, rng):
        rows = unit_rows(rng, 4, 3)
        grad = gv.volume_gradient(rows)
        assert grad.degenerate

    @pytest.mark.parametrize("degenerate", [False, True])
    def test_degenerate_flag_follows_volume(self, rng, degenerate):
        rows = unit_rows(rng, 3, 5)
        if degenerate:
            rows[2] = rows[0]
        grad = gv.volume_gradient(rows)
        assert grad.degenerate is degenerate
        assert grad.degenerate == (gv.gramian_volume(rows).value <= DEGENERATE_VOLUME)

    def test_threshold_exported(self):
        assert DEGENERATE_VOLUME == 1e-9


class TestVolumeBatchBackward:
    """The batched backward against weighted sums of per-tuple gradients."""

    @staticmethod
    def inputs(rng, b, k, n):
        anchor = unit_rows(rng, b, n)
        datas = [unit_rows(rng, b, n) for _ in range(k - 1)]
        datas[-1][2] = anchor[1]  # tuple (data 2, anchor 1) is degenerate
        return anchor, datas

    @staticmethod
    def per_tuple(anchor, datas, i, j):
        grad = gv.volume_gradient([anchor[j]] + [d[i] for d in datas])
        return grad.grads

    @pytest.mark.parametrize("b, k, n", [(7, 3, 5), (6, 4, 9)])
    def test_cross_form(self, rng, b, k, n):
        anchor, datas = self.inputs(rng, b, k, n)
        w = rng.standard_normal((b, b))
        batch = VolumeBatch(anchor, datas)
        assert batch.degenerate[2, 1]
        expected_anchor = np.zeros((b, n))
        expected_datas = np.zeros((k - 1, b, n))
        largest = 0.0
        for i in range(b):
            for j in range(b):
                g = self.per_tuple(anchor, datas, i, j)
                largest = max(largest, np.abs(g).max())
                expected_anchor[j] += w[i, j] * g[0]
                expected_datas[:, i] += w[i, j] * g[1:]
        grad_anchor, grad_datas = batch.backward(w)
        assert np.abs(grad_anchor - expected_anchor).max() <= 1e-12 * largest
        assert np.abs(grad_datas - expected_datas).max() <= 1e-12 * largest

    @pytest.mark.parametrize("paired", [False, True], ids=["cross", "paired"])
    def test_inputs_are_left_unchanged(self, rng, paired):
        # The factor is written over the kernel's own stacked copy.
        anchor, datas = self.inputs(rng, 7, 4, 9)
        stacked = np.stack(datas)
        before = anchor.copy(), stacked.copy()
        batch = VolumeBatch(anchor, stacked, paired=paired)
        if not paired:
            batch.backward(rng.standard_normal((7, 7)))
        assert np.array_equal(anchor, before[0]) and np.array_equal(stacked, before[1])


def exact_volume(rows) -> float:
    """sqrt(det G) of the given floats: the Gram matrix and its
    determinant exact in ``Fraction``, the square root in 40-digit
    ``Decimal``, then rounded to a float."""
    exact = [[Fraction(float(x)) for x in row] for row in rows]
    g = [[sum(map(operator.mul, u, v), Fraction(0)) for v in exact] for u in exact]
    det = Fraction(1)
    for t in range(len(g)):
        det *= g[t][t]
        for i in range(t + 1, len(g)):
            f = g[i][t] / g[t][t]
            g[i] = [x - f * y for x, y in zip(g[i], g[t])]
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        return float((decimal.Decimal(det.numerator) / det.denominator).sqrt())


class TestNearCollinearDataRows:
    """A tuple's last data row a small angle from its first, or its anchor
    a small angle from the data rows' span, against the exact volume of
    the given floats.  Gram-Schmidt on the rows themselves loses about
    eps / angle of the volume; on their inner products it would lose
    eps / angle^2."""

    @pytest.mark.parametrize("paired", [False, True], ids=["cross", "paired"])
    @pytest.mark.parametrize("angle", [1e-4, 1e-6])
    @pytest.mark.parametrize("k, n", [(3, 16), (3, 64), (3, 256), (4, 16), (4, 64), (4, 256)])
    def test_within_1e_9_of_exact_volume(self, rng, k, n, angle, paired):
        b = 3
        anchor = unit_rows(rng, b, n)
        datas = [unit_rows(rng, b, n) for _ in range(k - 1)]
        off = unit_rows(rng, b, n)
        off -= np.vecdot(off, datas[0])[:, None] * datas[0]
        off /= np.sqrt(np.vecdot(off, off))[:, None]
        datas[-1] = math.cos(angle) * datas[0] + math.sin(angle) * off
        values = VolumeBatch(anchor, datas, paired=paired).values
        for i in range(b):
            for j in [i] if paired else range(b):
                want = exact_volume([anchor[j], *(d[i] for d in datas)])
                got = values[i] if paired else values[i, j]
                assert abs(got - want) <= 1e-9 * want, (i, j, got, want)

    @pytest.mark.parametrize("angle", [1e-3, 1e-5])
    @pytest.mark.parametrize("k, n", [(3, 16), (3, 64), (3, 256), (4, 16), (4, 64), (4, 256)])
    def test_paired_anchor_near_data_span(self, rng, k, n, angle):
        # The paired form factors the anchor as its last row, so its pivot
        # is the length of the explicit residual a - Q^T c; |a|^2 - |c|^2
        # would cancel.
        b = 3
        datas = [unit_rows(rng, b, n) for _ in range(k - 1)]
        basis = np.linalg.qr(np.stack(datas, axis=-1))[0]
        inside = np.einsum("bnt,bt->bn", basis, rng.standard_normal((b, k - 1)))
        inside /= np.sqrt(np.vecdot(inside, inside))[:, None]
        off = unit_rows(rng, b, n)
        off -= np.einsum("bnt,bt->bn", basis, np.einsum("bnt,bn->bt", basis, off))
        off /= np.sqrt(np.vecdot(off, off))[:, None]
        anchor = math.cos(angle) * inside + math.sin(angle) * off
        values = VolumeBatch(anchor, datas, paired=True).values
        for i in range(b):
            want = exact_volume([anchor[i], *(d[i] for d in datas)])
            assert abs(values[i] - want) <= 1e-9 * want, (i, values[i], want)


class TestPairedForm:
    """The paired form is the cross form's diagonal, up to rounding: it
    factors each sample's anchor as a Gram-Schmidt row, the cross form
    takes the anchors' coefficients from one matrix product.  The bound
    has the rank test's form: a squared volume within (k + n) * eps * (the
    product of squared row norms)."""

    @pytest.mark.parametrize("b, k, n", [
        (5, 1, 3),  # k = 1: each volume is the anchor's norm
        (6, 2, 4),
        (7, 3, 5),
        (6, 4, 9),
        (4, 3, 2),  # k > n
        (5, 5, 3),  # k > n
        (3, 4, 40),
        (300, 3, 64),
        (196, 4, 256),
    ])
    def test_values_are_cross_diagonal_to_few_ulp(self, rng, b, k, n):
        # Rows of mixed norms, so the diagonal is not only unit tuples.
        anchor = unit_rows(rng, b, n) * rng.uniform(0.5, 2.0, (b, 1))
        datas = [unit_rows(rng, b, n) * rng.uniform(0.5, 2.0, (b, 1)) for _ in range(k - 1)]
        if k >= 2:
            datas[-1][1] = anchor[1]  # a data row of tuple 1 repeats its anchor
        if k >= 3:
            datas[1][2] = -3.0 * datas[0][2]  # tuple 2's data rows are collinear
        paired = VolumeBatch(anchor, datas, paired=True)
        cross = VolumeBatch(anchor, datas)
        assert paired.values.shape == (b,)
        norms2 = np.vecdot(anchor, anchor) * np.prod([np.vecdot(d, d) for d in datas], axis=0)
        bound = (k + n) * np.finfo(np.float64).eps * norms2
        assert (np.abs(paired.values ** 2 - np.diagonal(cross.values) ** 2) <= bound).all()
        if k >= 2:
            assert paired.values[1] == 0.0
        if k >= 3:
            assert paired.values[2] == 0.0
        if k > n:
            assert not paired.values.any()
        if k == 1:
            assert np.array_equal(paired.values, np.sqrt(np.vecdot(anchor, anchor)))

    def test_backward_names_the_cross_form(self, rng):
        # The paired form keeps no factor to differentiate.
        anchor = unit_rows(rng, 5, 8)
        batch = VolumeBatch(anchor, [unit_rows(rng, 5, 8), unit_rows(rng, 5, 8)], paired=True)
        with pytest.raises(ValueError, match="cross form"):
            batch.backward(np.ones(5))


@pytest.mark.parametrize("case", ["collinear", "duplicated", "k>n"])
@pytest.mark.parametrize("paired", [False, True], ids=["cross", "paired"])
def test_exact_zeros_raise_no_floating_point_error(rng, case, paired):
    # Collinear data rows, a data row that repeats its anchor, and more
    # rows than dimensions: the rank test zeroes these volumes before any
    # square root, and no step divides by 0 or overflows.
    b, k, n = (5, 4, 3) if case == "k>n" else (5, 3, 8)
    anchor = unit_rows(rng, b, n)
    datas = [unit_rows(rng, b, n) for _ in range(k - 1)]
    if case == "collinear":
        datas[1] = -2.5 * datas[0]
    elif case == "duplicated":
        datas[1] = anchor.copy()
    with np.errstate(all="raise"):
        values = VolumeBatch(anchor, datas, paired=paired).values
    zeros = values if paired or case != "duplicated" else np.diagonal(values)
    assert not zeros.any()
    if case == "duplicated" and not paired:
        assert (values[~np.eye(b, dtype=bool)] > 0).all()


#: Prints the SHA-256 of ``_matmul`` on 60 seeded shapes: M up to 700, N
#: up to 700 (most not a multiple of 8), K up to 1100, each operand
#: C-ordered or transposed, and a vector ``y`` every fourth shape.
MATMUL_SCRIPT = """
import hashlib
import numpy as np
from gramvol.volume import _matmul

r = np.random.default_rng(14)
for case in range(60):
    m, n, k = (int(v) for v in r.integers(1, (700, 700, 1100)))
    x = r.standard_normal((m, k)) if case % 2 else r.standard_normal((k, m)).T
    y = r.standard_normal((k, n)) if case % 3 else r.standard_normal((n, k)).T
    if case % 4 == 0:
        y = y[:, 0]
    print(m, n, k, hashlib.sha256(_matmul(x, y).tobytes()).hexdigest())
"""

#: On seeded shapes whose M is not a multiple of 8, prints whether
#: ``_matmul`` of row-permuted ``x`` is the product's rows permuted, then
#: whether ``cross_volumes`` of permuted samples (B odd, so the (k-1) B data
#: rows are not a multiple of 8 either) is the permuted matrix.
ROW_PERMUTATION_SCRIPT = """
import numpy as np
from gramvol import cross_volumes
from gramvol.volume import _matmul

r = np.random.default_rng(26)
for case in range(30):
    m = 8 * int(r.integers(0, 80)) + int(r.integers(1, 8))
    n, k = (int(v) for v in r.integers(1, (300, 600)))
    x, y = r.standard_normal((m, k)), r.standard_normal((k, n))
    perm = r.permutation(m)
    print("matmul", m, n, k, np.array_equal(_matmul(x[perm], y), _matmul(x, y)[perm]))
for case in range(30):
    b, k = 2 * int(r.integers(1, 10)) + 1, int(r.integers(2, 5))
    n = int(r.integers(k, 40))
    rows = r.standard_normal((k, b, n))
    rows /= np.sqrt(np.vecdot(rows, rows))[..., None]
    perm = r.permutation(b)
    want = cross_volumes(rows[0], rows[1:])[np.ix_(perm, perm)]
    got = cross_volumes(rows[0][perm], rows[1:, perm])
    print("cross_volumes", b, k, n, np.array_equal(got, want))
"""

#: On seeded stacks of 2 to 4 slices, prints whether ``_matmul`` of the
#: stacks is, slice by slice, ``_matmul`` of the slices: M and N mostly
#: not a multiple of 8, and each operand C-ordered or transposed per slice
#: (as ``np.swapaxes`` leaves it).
STACKED_MATMUL_SCRIPT = """
import numpy as np
from gramvol.volume import _matmul

r = np.random.default_rng(41)
for case in range(40):
    s = int(r.integers(2, 5))
    m, n, k = (int(v) for v in r.integers(1, (300, 300, 400)))
    x = (r.standard_normal((s, m, k)) if case % 2
         else np.swapaxes(r.standard_normal((s, k, m)), -1, -2))
    y = (r.standard_normal((s, k, n)) if case % 3
         else np.swapaxes(r.standard_normal((s, n, k)), -1, -2))
    got = _matmul(x, y)
    print(s, m, n, k, all(np.array_equal(got[i], _matmul(x[i], y[i])) for i in range(s)))
"""


class TestMatmul:
    @pytest.mark.parametrize("m, k, n", [
        (5, 3, 7), (64, 64, 64), (300, 600, 300), (7, 257, 1), (4, 0, 9), (0, 5, 3),
    ])
    def test_is_the_product(self, rng, m, k, n):
        x, y = rng.standard_normal((m, k)), rng.standard_normal((k, n))
        for xs, ys in ((x, y), (x, y[:, 0] if n else y), (y.T, x.T)):
            got = _matmul(xs, ys)
            assert got.shape == (xs @ ys).shape
            np.testing.assert_allclose(got, xs @ ys, rtol=1e-13, atol=1e-13 * max(k, 1))

    @pytest.mark.parametrize("k", [256, 600])
    @pytest.mark.parametrize("m", [64, 40])
    def test_plain_product_at_width_multiple_of_8(self, rng, m, k):
        # When M and the width are multiples of 8 the product is one plain
        # call, at any K.  The reference runs on one thread too, since this
        # process may run BLAS on more.
        x, y = rng.standard_normal((m, k)), rng.standard_normal((k, 192))
        assert np.array_equal(_matmul(x, y), _one_thread(np.matmul, x, y))

    @pytest.mark.parametrize("core", BLAS_CORES)
    def test_bit_identical_across_blas_thread_counts(self, core):
        assert len(assert_same_at_1_and_2_threads(["-c", MATMUL_SCRIPT], core=core)) == 60

    @pytest.mark.parametrize("core", BLAS_CORES)
    def test_stacked_product_is_its_slices_products(self, core):
        lines = assert_same_at_1_and_2_threads(["-c", STACKED_MATMUL_SCRIPT], core=core)
        assert len(lines) == 40
        assert [line for line in lines if not line.endswith(" True")] == []

    @pytest.mark.parametrize("core", BLAS_CORES)
    def test_row_permutation_is_bit_exact(self, core):
        lines = assert_same_at_1_and_2_threads(["-c", ROW_PERMUTATION_SCRIPT], core=core)
        assert len(lines) == 60
        assert [line for line in lines if not line.endswith(" True")] == []

    def test_pin_restores_the_thread_count_and_falls_back(self, rng, monkeypatch):
        # Without the OpenBLAS calls the padded product runs unpinned: still
        # the product, and equal columns of y still give equal columns.
        # The shape is a (B, k, n) = (300, 3, 64) cross grid's.
        x, y = rng.standard_normal((600, 64)), rng.standard_normal((64, 300))
        y[:, 299] = y[:, 5]
        with monkeypatch.context() as patch:
            patch.setattr(volume, "_OPENBLAS_THREADS", None)
            got = _matmul(x, y)
        np.testing.assert_allclose(got, x @ y, rtol=1e-13, atol=1e-13 * 64)
        assert np.array_equal(got[:, 299], got[:, 5])
        if volume._OPENBLAS_THREADS is None:
            pytest.skip("numpy's BLAS is not its bundled OpenBLAS")
        # A child process, so this one keeps its thread count: inside a
        # call OpenBLAS runs on 1 thread, and after it, even one that
        # raised, on the caller's 2 again.
        res = subprocess.run([sys.executable, "-c", PIN_SCRIPT], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["1", "2", "2", "2"]

    def test_concurrent_callers_restore_the_thread_count(self, rng):
        # The count is process-wide.  First a fixed interleaving: thread b
        # enters its pinned call inside a's, and leaves it after a's has
        # ended.  Then more threads than cores, switching often; each
        # invariant breaks when a call restores a count another call set.
        if volume._OPENBLAS_THREADS is None:
            pytest.skip("numpy's BLAS is not its bundled OpenBLAS")
        get, set_ = volume._OPENBLAS_THREADS
        x, y = rng.standard_normal((256, 256)), rng.standard_normal((256, 120))
        want = _matmul(x, y)
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()

        def inside(entered, wait_for):
            entered.set()
            wait_for.wait(10)
            return x @ y

        def a(out):
            out.append(_one_thread(inside, a_in, b_in))
            a_out.set()

        def b(out):
            a_in.wait(10)
            out.append(_one_thread(inside, b_in, a_out))

        def stress(out):
            out.extend(_matmul(x, y) for _ in range(150))

        saved, interval = get(), sys.getswitchinterval()
        set_(2)
        counts, products = [], []
        try:
            for targets in ((a, b), (stress,) * 4):
                outs = [[] for _ in targets]
                threads = [threading.Thread(target=f, args=(out,)) for f, out in zip(targets, outs)]
                sys.setswitchinterval(1e-5)
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                sys.setswitchinterval(interval)
                assert not any(t.is_alive() for t in threads)
                counts.append(get())
                products += [p for out in outs for p in out]
        finally:
            sys.setswitchinterval(interval)
            set_(saved)
        assert counts == [2, 2]
        assert len(products) == 2 + 4 * 150
        assert all(np.array_equal(p, want) for p in products)


class TestOpenblasThreads:
    """``_openblas_threads`` on a stand-in numpy install tree: ``numpy/``
    next to a ``numpy.libs/`` holding the given libraries."""

    @staticmethod
    def stand_in(tmp_path, monkeypatch):
        (tmp_path / "numpy").mkdir()
        (tmp_path / "numpy.libs").mkdir()
        monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
        return tmp_path / "numpy.libs"

    def test_unloadable_library_is_skipped(self, tmp_path, monkeypatch):
        if volume._OPENBLAS_THREADS is None:
            pytest.skip("numpy's BLAS is not its bundled OpenBLAS")
        root = Path(np.__file__).parent
        real = [*(root.parent / "numpy.libs").glob("*openblas*"),
                *(root / ".dylibs").glob("*openblas*")]
        libs = self.stand_in(tmp_path, monkeypatch)
        # Sorts before the real libraries, which are linked in as they are.
        (libs / "libopenblas-0broken.so").write_text("not a shared library\n")
        for path in real:
            (libs / path.name).symlink_to(path)
        get, _ = volume._openblas_threads()
        assert get() == volume._OPENBLAS_THREADS[0]()

    def test_no_library_gives_none(self, tmp_path, monkeypatch):
        self.stand_in(tmp_path, monkeypatch)
        assert volume._openblas_threads() is None


#: Prints OpenBLAS's thread count inside a pinned call, then after a
#: ``_matmul``, a ``_dots`` and a ``_matmul`` that raises, set to 2 before.
PIN_SCRIPT = """
import numpy as np
from gramvol import volume

get, set_ = volume._OPENBLAS_THREADS
set_(2)
x = np.ones((300, 300))
print(volume._one_thread(get))
volume._matmul(x, x[:, :21])
print(get())
volume._dots(x, x)
print(get())
try:
    volume._matmul(x, x[:7])
except ValueError:
    print(get())
"""

#: Prints the SHA-256 of ``_dots`` on vectors past 10,000 elements, where
#: OpenBLAS would split a single ``ddot`` across threads.
DOTS_SCRIPT = """
import hashlib
import numpy as np
from gramvol.volume import _dots

r = np.random.default_rng(17)
for n in (10_001, 24_577, 100_000):
    x = r.standard_normal((3, n))
    print(n, hashlib.sha256(_dots(x, x[::-1]).tobytes()).hexdigest())
"""


@pytest.mark.parametrize("core", BLAS_CORES)
def test_long_dots_bit_identical_across_blas_thread_counts(core):
    assert len(assert_same_at_1_and_2_threads(["-c", DOTS_SCRIPT], core=core)) == 3

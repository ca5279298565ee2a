"""Cross-volume matrices against per-tuple oracles."""

import numpy as np
import pytest

import gramvol as gv
from gramvol.errors import InconsistentBatchError
from gramvol.losses import Temperature, loss_report

from conftest import assert_same_at_1_and_2_threads, unit_rows


def make_batch(rng, b, k, n, names=None):
    names = names or [f"mod{i}" for i in range(k)]
    rows = [unit_rows(rng, b, n) for _ in range(k)]
    return gv.MultimodalBatch(
        anchor=gv.ModalityBatch(rows=rows[0], modality_name=names[0]),
        datas=tuple(
            gv.ModalityBatch(rows=r, modality_name=nm)
            for r, nm in zip(rows[1:], names[1:])
        ),
    )


class TestModalityBatch:
    def test_rejects_non_unit_rows(self):
        with pytest.raises(InconsistentBatchError):
            gv.ModalityBatch(rows=np.array([[1.0, 1.0]]))

    def test_rejects_nan(self):
        with pytest.raises(InconsistentBatchError):
            gv.ModalityBatch(rows=np.array([[np.nan, 0.0]]))

    @pytest.mark.parametrize("rows", [np.zeros((0, 2)), np.array([1.0, 0.0])],
                             ids=["no-rows", "1-d"])
    def test_rejects_rows_that_are_not_a_nonempty_matrix(self, rows):
        with pytest.raises(InconsistentBatchError, match="nonempty 2-D array"):
            gv.ModalityBatch(rows=rows)

    @pytest.mark.filterwarnings("error")
    def test_rejects_overflowing_row_without_warning(self):
        with pytest.raises(InconsistentBatchError, match="off unit norm by inf"):
            gv.ModalityBatch(rows=np.array([[3e200, 4e200]]))

    def test_rejects_mismatched_members(self, rng):
        a = gv.ModalityBatch(rows=unit_rows(rng, 3, 4))
        d = gv.ModalityBatch(rows=unit_rows(rng, 2, 4), modality_name="x")
        with pytest.raises(InconsistentBatchError,
                           match=r"^modality 'x' is \(2, 4\), anchor is \(3, 4\)$"):
            gv.MultimodalBatch(anchor=a, datas=(d,))


class TestCrossVolumeMatrix:
    def test_single_sample(self, rng):
        batch = make_batch(rng, 1, 3, 6)
        m = gv.cross_volume_matrix(batch)
        tup = [batch.anchor.rows[0]] + [d.rows[0] for d in batch.datas]
        assert m.values.shape == (1, 1)
        assert m.values[0, 0] == gv.gramian_volume(tup).value

    def test_orthogonal_pair_construction(self):
        e = np.eye(2)
        batch = gv.MultimodalBatch(
            anchor=gv.ModalityBatch(rows=e, modality_name="a"),
            datas=(gv.ModalityBatch(rows=e, modality_name="m"),),
        )
        np.testing.assert_array_equal(
            gv.cross_volume_matrix(batch).values, [[0.0, 1.0], [1.0, 0.0]]
        )

    def test_every_entry_matches_per_tuple_oracle(self, rng):
        batch = make_batch(rng, 4, 3, 8)
        values = gv.cross_volume_matrix(batch).values
        for i in range(4):
            for j in range(4):
                tup = [batch.anchor.rows[j]] + [d.rows[i] for d in batch.datas]
                assert abs(values[i, j] - gv.gramian_volume(tup).value) <= 1e-12

    def test_transpose_contract_larger_batch(self, rng):
        batch = make_batch(rng, 6, 4, 9)
        values = gv.cross_volume_matrix(batch).values
        for i in range(6):
            for j in range(6):
                tup = [batch.anchor.rows[j]] + [d.rows[i] for d in batch.datas]
                assert abs(values[i, j] - gv.gramian_volume(tup).value) <= 1e-12

    def test_diagonal_matches_matched_tuples(self, rng):
        batch = make_batch(rng, 5, 3, 7)
        values = gv.cross_volume_matrix(batch).values
        for i in range(5):
            tup = [batch.anchor.rows[i]] + [d.rows[i] for d in batch.datas]
            assert abs(values[i, i] - gv.gramian_volume(tup).value) <= 1e-12

    def test_entries_in_unit_interval(self, rng):
        values = gv.cross_volume_matrix(make_batch(rng, 5, 4, 10)).values
        assert values.min() >= 0.0
        assert values.max() <= 1.0 + 1e-12

    def test_pair_volumes_complement_cosines(self, rng):
        # For k = 2, volume^2 + cosine^2 = 1 row against column.
        a = gv.ModalityBatch(rows=unit_rows(rng, 5, 6), modality_name="a")
        m = gv.ModalityBatch(rows=unit_rows(rng, 5, 6), modality_name="m")
        batch = gv.MultimodalBatch(anchor=a, datas=(m,))
        vols = gv.cross_volume_matrix(batch).values
        cosines = m.rows @ a.rows.T
        np.testing.assert_allclose(1.0 - vols ** 2, cosines ** 2, atol=1e-10)

    def test_sample_permutation_equivariance(self, rng):
        b = 5
        batch = make_batch(rng, b, 3, 6)
        values = gv.cross_volume_matrix(batch).values
        perm = rng.permutation(b)
        permuted = gv.MultimodalBatch(
            anchor=gv.ModalityBatch(rows=batch.anchor.rows[perm]),
            datas=tuple(gv.ModalityBatch(rows=d.rows[perm]) for d in batch.datas),
        )
        np.testing.assert_array_equal(
            gv.cross_volume_matrix(permuted).values, values[np.ix_(perm, perm)]
        )

    @pytest.mark.parametrize("b, k, n", [(64, 3, 64), (40, 4, 256), (48, 2, 64)])
    def test_within_few_ulp_of_per_tuple_calls(self, rng, b, k, n):
        # The cross form's D a grid is one matrix product, whose sums round
        # in another order than the per-tuple call's, so an entry matches
        # that call to a few ulp, not bit for bit.  Rank-deficient tuples
        # are exactly 0 in both: tuple (i, i) for i < 3 repeats its anchor,
        # and for k >= 3 sample 4's data rows are collinear.
        anchor = unit_rows(rng, b, n)
        datas = [unit_rows(rng, b, n) for _ in range(k - 1)]
        datas[-1][:3] = anchor[:3]
        if k >= 3:
            datas[1][4] = -datas[0][4]
        per_tuple = np.array([
            [gv.gramian_volume([anchor[j]] + [d[i] for d in datas]).value for j in range(b)]
            for i in range(b)
        ])
        cross = gv.cross_volumes(anchor, datas)
        zero = per_tuple == 0.0
        assert zero[range(3), range(3)].all()
        assert zero[4].all() == (k >= 3)
        assert np.array_equal(cross == 0.0, zero)
        np.testing.assert_array_max_ulp(cross[~zero], per_tuple[~zero], maxulp=4)

    @pytest.mark.parametrize("b, k, n", [(300, 3, 64), (196, 4, 256), (130, 3, 33), (65, 3, 8)])
    def test_equal_anchors_give_equal_columns(self, rng, b, k, n):
        # eval's tie rule needs exact ties: a candidate that repeats another
        # must get the same value in every row, wherever the product puts
        # its column.  Column b - 1 sits past the last multiple of 8.
        anchor = unit_rows(rng, b, n)
        datas = [unit_rows(rng, b, n) for _ in range(k - 1)]
        pairs = [(5, b - 1), (b - 2, 1), (b // 2, b - 3)]
        for src, dst in pairs:
            anchor[dst] = anchor[src]
        values = gv.cross_volumes(anchor, datas)
        for src, dst in pairs:
            assert np.array_equal(values[:, src], values[:, dst])

    @pytest.mark.parametrize("k", [3, 4])
    def test_tuples_repeating_their_anchor_give_zero_rows(self, rng, k):
        b, n, dup = 8, 8, [0, 3, 5, 6]
        anchor = unit_rows(rng, b, n)
        datas = [unit_rows(rng, b, n) for _ in range(k - 1)]
        for d in datas:
            d[dup] = anchor[dup]
        values = gv.cross_volumes(anchor, datas)
        assert np.array_equal(values[dup], np.zeros((len(dup), b)))
        assert (np.delete(values, dup, axis=0) > 1e-3).all()
        rep = loss_report(anchor, datas, Temperature.from_tau(1.0))
        assert rep.degenerate_tuples == len(dup) * b

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_anchor_repeating_one_data_row_gives_exact_zero(self, rng, k):
        # Sample i's anchor repeats one of its data rows, chosen per sample,
        # so every matched tuple is rank deficient and its volume exactly 0.
        b, n = 400, 256
        anchor = unit_rows(rng, b, n)
        datas = [unit_rows(rng, b, n) for _ in range(k - 1)]
        which = rng.integers(0, k - 1, size=b)
        for i, m in enumerate(which):
            datas[m][i] = anchor[i]
        assert np.array_equal(np.diag(gv.cross_volumes(anchor, datas)), np.zeros(b))


    def test_bit_identical_across_blas_thread_counts_at_large_n(self):
        # Above 10,000 elements OpenBLAS would split one dot product across
        # threads and change its summation order.
        script = (
            "import numpy as np, gramvol as gv\n"
            "r = np.random.default_rng(9)\n"
            "x = r.standard_normal((3, 6, 16384))\n"
            "x /= np.linalg.norm(x, axis=-1, keepdims=True)\n"
            "print(gv.cross_volumes(x[0], [x[1], x[2]]).tobytes().hex())\n"
        )
        assert_same_at_1_and_2_threads(["-c", script])

    def test_bit_identical_across_blas_thread_counts(self):
        # Widths that are not a multiple of 64 or 8: a plain matrix product
        # for the D a grid puts the kernel's edge columns in other places
        # on two threads, and its sum over n = 600 is blocked differently.
        script = (
            "import numpy as np, gramvol as gv\n"
            "r = np.random.default_rng(5)\n"
            "for b, k, n in ((300, 3, 64), (196, 4, 256), (300, 4, 600)):\n"
            "    x = r.standard_normal((k, b, n))\n"
            "    x /= np.linalg.norm(x, axis=-1, keepdims=True)\n"
            "    print(gv.cross_volumes(x[0], list(x[1:])).tobytes().hex())\n"
        )
        assert len(assert_same_at_1_and_2_threads(["-c", script])) == 3

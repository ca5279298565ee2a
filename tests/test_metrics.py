"""Retrieval recall, alignment score, and correlation."""

import json

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import gramvol as gv
from gramvol.cli import _report, main
from gramvol.errors import (
    DegenerateVarianceError,
    DimensionMismatchError,
    EmptyInputError,
    NonSquareError,
)
from gramvol.formats import write_embeddings
from gramvol.metrics import alignment_metric, retrieval_recall

from conftest import unit_rows


class TestRetrievalRecall:
    def test_perfect_alignment(self):
        v = 1.0 - np.eye(4)
        assert retrieval_recall(v, ks=(1,))[1] == 1.0

    def test_constant_matrix_tie_break(self):
        # Every candidate ties; only row 0's diagonal survives the
        # lowest-index tie-break, so R@1 = 1/B.
        b = 4
        v = np.full((b, b), 0.5)
        assert retrieval_recall(v, ks=(1,))[1] == pytest.approx(1.0 / b)
        # enumerated ranks: diagonal of row i is preceded by i tied columns
        from gramvol.metrics import _diagonal_ranks

        np.testing.assert_array_equal(_diagonal_ranks(v), [1, 2, 3, 4])

    def test_reversed_diagonal_worst_case(self):
        v = np.eye(4)  # matched entries largest, everything else smaller
        assert retrieval_recall(v, ks=(1,))[1] == 0.0

    def test_recall_at_b_is_one(self, rng):
        v = rng.uniform(size=(6, 6))
        assert retrieval_recall(v, ks=(6,))[6] == 1.0

    def test_monotone_in_k(self, rng):
        v = rng.uniform(size=(8, 8))
        r = retrieval_recall(v, ks=(1, 5, 8))
        assert 0.0 <= r[1] <= r[5] <= r[8] <= 1.0

    def test_shift_invariance(self, rng):
        v = rng.uniform(size=(5, 5))
        base = retrieval_recall(v, ks=(1, 2, 5))
        shifted = retrieval_recall(v + 3.7, ks=(1, 2, 5))
        assert base == shifted

    def test_nonsquare_rejected(self):
        with pytest.raises(NonSquareError):
            retrieval_recall(np.zeros((2, 3)), ks=(1,))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2 ** 31 - 1))
    def test_bounds(self, b, seed):
        v = np.random.default_rng(seed).uniform(size=(b, b))
        r = retrieval_recall(v, ks=(1, b))
        assert 0.0 <= r[1] <= 1.0
        assert r[b] == 1.0

    def test_report_fields(self, rng):
        v = rng.uniform(size=(12, 12))
        rep = retrieval_recall(v)  # the default cutoffs 1, 5 and 10
        assert list(rep) == [1, 5, 10]
        assert rep[1] <= rep[5] <= rep[10]


class TestAlignmentMetric:
    def test_collinear_tuples(self, rng):
        rows = unit_rows(rng, 4, 6)
        batch = gv.MultimodalBatch(
            anchor=gv.ModalityBatch(rows=rows),
            datas=(gv.ModalityBatch(rows=rows.copy()),),
        )
        assert alignment_metric(batch) == 0.0

    def test_orthonormal_tuples(self):
        e = np.eye(4)
        batch = gv.MultimodalBatch(
            anchor=gv.ModalityBatch(rows=e[:2]),
            datas=(gv.ModalityBatch(rows=e[2:]),),
        )
        assert alignment_metric(batch) == 1.0

    def test_mixed_batch_mean(self, rng):
        v = unit_rows(rng, 1, 4)[0]
        e = np.eye(4)
        anchor = np.array([v, e[0]])
        data = np.array([v, e[1]])
        batch = gv.MultimodalBatch(
            anchor=gv.ModalityBatch(rows=anchor),
            datas=(gv.ModalityBatch(rows=data),),
        )
        assert alignment_metric(batch) == pytest.approx(0.5, abs=1e-12)

    def test_complement_identity(self, tmp_path, rng):
        # The metric command's JSON line flips the mean so higher is better.
        paths = [tmp_path / f"{name}.jsonl" for name in ("x", "y")]
        for path in paths:
            write_embeddings(path, 6, [(f"s{i}", path.stem, row)
                                       for i, row in enumerate(unit_rows(rng, 5, 6))])
        result = CliRunner().invoke(main, ["metric", *map(str, paths)])
        assert result.exit_code == 0, result.output
        report = json.loads(result.stdout)
        assert 0.0 < report["mean_matched_volume"] < 1.0
        assert report["one_minus_gram"] == 1.0 - report["mean_matched_volume"]


class TestReportSerialization:
    """``cli._report``, the one renderer of eval/metric reports."""

    def test_json_single_line(self, tmp_path, capsys):
        report = {"r_at_1": 0.5, "r_at_5": 0.75, "r_at_10": 1.0}
        path = tmp_path / "report.json"
        _report(path, report)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["r_at_5"] == 0.75
        assert capsys.readouterr().out == lines[0] + "\n"


class TestPearson:
    def test_perfect_linear(self):
        xs = np.array([1.0, 2.0, 3.0, 4.0])
        assert gv.pearson(xs, 2 * xs + 1) == pytest.approx(1.0, abs=1e-12)

    def test_anti_linear(self):
        xs = np.array([1.0, 2.0, 3.0])
        assert gv.pearson(xs, -xs) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed_example(self):
        # direct formula: centered products (1+0+0) over sqrt(2*2)
        assert gv.pearson([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(0.5, abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateVarianceError):
            gv.pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            gv.pearson([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_one_point_rejected(self):
        with pytest.raises(EmptyInputError):
            gv.pearson([1.0], [2.0])

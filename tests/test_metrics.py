"""Confusion matrices and macro metrics, validated against published tables."""

import json

import numpy as np
import pytest

from flamewatch import data_path
from flamewatch.metrics import (
    ConfusionMatrix,
    confusion,
    format_table,
    macro_metrics,
)

LEXICON_TABLE = np.array([[128, 19, 35], [57, 83, 37], [37, 12, 90]])
BASELINE_TABLE = np.array([[24, 12, 156], [0, 15, 162], [1, 1, 137]])
NAMES = ["Pos", "Neg", "Neu"]


class TestConfusion:
    def test_counting_oracle_random(self):
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 4, size=500)
        actual = rng.integers(0, 4, size=500)
        cm = confusion(pred, actual, 4)
        for a in range(4):
            for p in range(4):
                assert cm.counts[a, p] == int(
                    sum(1 for x, y in zip(pred, actual) if x == p and y == a)
                )

    def test_total_preserved(self):
        cm = confusion([0, 1, 2, 2], [2, 1, 0, 2], 3)
        assert cm.counts.sum() == 4

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            confusion([0, 1], [0], 3)

    def test_out_of_range_label_raises(self):
        with pytest.raises(ValueError):
            confusion([0, 5], [0, 0], 3)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(np.zeros((2, 3), dtype=int), ["a", "b"])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(np.array([[1, -1], [0, 2]]), ["a", "b"])

    def test_json_round_trip(self):
        cm = ConfusionMatrix(LEXICON_TABLE, NAMES)
        text = json.dumps({"class_names": NAMES, "counts": cm.counts.tolist()})
        back = ConfusionMatrix.from_dict(json.loads(text))
        assert (back.counts == cm.counts).all() and back.class_names == NAMES


class TestPublishedLexiconTable:
    """The published 3-class matrix for the lexicon labeler."""

    @pytest.fixture()
    def mm(self):
        return macro_metrics(ConfusionMatrix(LEXICON_TABLE, NAMES), "paper")

    def test_macro_values(self, mm):
        assert mm.macro_precision * 100 == pytest.approx(60.66, abs=0.1)
        assert mm.macro_recall * 100 == pytest.approx(62.01, abs=0.1)
        assert mm.macro_f1 * 100 == pytest.approx(61.31, abs=0.1)

    def test_per_class_rates(self, mm):
        assert mm.per_class_precision * 100 == pytest.approx(
            [70.33, 46.89, 64.75], abs=0.01
        )
        assert mm.per_class_recall * 100 == pytest.approx(
            [57.66, 72.81, 55.56], abs=0.01
        )


class TestPublishedBaselineTable:
    """The published 3-class matrix for the off-the-shelf baseline."""

    @pytest.fixture()
    def mm(self):
        return macro_metrics(ConfusionMatrix(BASELINE_TABLE, NAMES), "paper")

    def test_column_rates(self, mm):
        # Pos column rate is excluded: the published table prints 70.56% where
        # the matrix itself gives 24/25; the cell is internally inconsistent
        assert mm.per_class_recall[1] * 100 == pytest.approx(53.57, abs=0.01)
        assert mm.per_class_recall[2] * 100 == pytest.approx(30.11, abs=0.01)

    def test_macro_precision_from_the_matrix(self, mm):
        # The published caption says 37.85%, but that number is only
        # reachable from the table's printed per-class cells (whose Neu cell
        # implies a row total of 148, not the matrix's 139). Recomputing
        # from the matrix, as this module must, gives 39.85%.
        assert mm.macro_precision * 100 == pytest.approx(39.845, abs=0.01)

    def test_bundled_matrix_file_matches(self):
        with open(data_path("published_eval_matrices.json"), encoding="utf-8") as fh:
            obj = json.load(fh)
        assert (np.array(obj["lexicon"]["counts"]) == LEXICON_TABLE).all()
        assert (np.array(obj["baseline"]["counts"]) == BASELINE_TABLE).all()


class TestMacroMetricsProperties:
    def test_identity_matrix_perfect_scores(self):
        cm = ConfusionMatrix(np.eye(4, dtype=int) * 7, list("abcd"))
        for orientation in ("standard", "paper"):
            mm = macro_metrics(cm, orientation)
            assert mm.macro_precision == mm.macro_recall == mm.macro_f1 == 1.0

    def test_transpose_duality(self):
        rng = np.random.default_rng(1)
        m = rng.integers(0, 50, size=(3, 3))
        paper = macro_metrics(ConfusionMatrix(m, NAMES), "paper")
        std_t = macro_metrics(ConfusionMatrix(m.T, NAMES), "standard")
        # paper "precision" is row-normalized, which is standard precision of
        # the transposed matrix
        assert paper.per_class_precision == pytest.approx(std_t.per_class_precision)
        assert paper.per_class_recall == pytest.approx(std_t.per_class_recall)

    def test_permutation_invariance_of_macros(self):
        rng = np.random.default_rng(2)
        m = rng.integers(0, 50, size=(4, 4))
        perm = rng.permutation(4)
        mm = macro_metrics(ConfusionMatrix(m, list("abcd")), "standard")
        mp = macro_metrics(
            ConfusionMatrix(m[np.ix_(perm, perm)], list("abcd")), "standard"
        )
        assert mm.macro_precision == pytest.approx(mp.macro_precision)
        assert mm.macro_recall == pytest.approx(mp.macro_recall)
        assert mm.macro_f1 == pytest.approx(mp.macro_f1)

    def test_zero_denominator_not_fatal(self):
        # class "b" never occurs and is never predicted
        cm = confusion([0, 0], [0, 0], 2, ["a", "b"])
        mm = macro_metrics(cm, "standard")
        assert mm.per_class_precision[1] == 0.0 and mm.per_class_recall[1] == 0.0

    def test_empty_matrix_raises(self):
        with pytest.raises(ValueError):
            macro_metrics(ConfusionMatrix(np.zeros((3, 3), dtype=int), NAMES))

    def test_unknown_orientation_rejected(self):
        with pytest.raises(ValueError):
            macro_metrics(ConfusionMatrix(LEXICON_TABLE, NAMES), "sideways")

    def test_standard_f1_is_mean_of_per_class(self):
        rng = np.random.default_rng(3)
        m = rng.integers(1, 50, size=(5, 5))
        mm = macro_metrics(ConfusionMatrix(m, list("abcde")), "standard")
        p, r = mm.per_class_precision, mm.per_class_recall
        assert mm.macro_f1 == pytest.approx(float((2 * p * r / (p + r)).mean()))

    def test_table_render(self):
        cm = ConfusionMatrix(LEXICON_TABLE, NAMES)
        mm = macro_metrics(cm, "paper")
        text = format_table(cm, mm)
        assert "Pos" in text and "macro precision" in text

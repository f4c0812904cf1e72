"""Confusion matrices and macro-averaged precision/recall/F1.

Two orientations are supported. "standard" follows the usual convention
(precision = diagonal / column sum, recall = diagonal / row sum, macro F1
= mean of per-class F1). "paper" reproduces the published tables this
package validates against, whose headers use the opposite convention
(the column labeled Precision is row-normalized) and whose macro F1 is
the harmonic mean of the two macro values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

INT64_MAX = 2 ** 63 - 1


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # rows = actual, columns = predicted
    class_names: list[str]

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise ValueError("confusion matrix must be square")
        if self.counts.shape[0] < 2:
            raise ValueError("need at least 2 classes")
        if (self.counts < 0).any():
            raise ValueError("counts must be non-negative")
        if len(self.class_names) != self.counts.shape[0]:
            raise ValueError("class_names length must match matrix size")

    @classmethod
    def from_dict(cls, obj) -> "ConfusionMatrix":
        """From {"counts": rows, "class_names": names} as JSON gives them: strings,
        and square rows of non-negative integers (no bool or float) whose total
        int64 holds. Else a ValueError names the field before numpy sees a value."""
        if not isinstance(obj, dict) or not {"counts", "class_names"} <= obj.keys():
            keys = ", ".join(sorted(obj)) if isinstance(obj, dict) else "none"
            raise ValueError(f"a matrix needs counts and class_names; available keys: {keys}")
        names, rows = obj["class_names"], obj["counts"]
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
            raise ValueError("class_names must be a list of strings")
        if not (isinstance(rows, list)
                and all(isinstance(r, list) and len(r) == len(rows) for r in rows)):
            raise ValueError("counts must be a square list of rows")
        values = [v for r in rows for v in r]
        if not all(type(v) is int and v >= 0 for v in values):
            raise ValueError("counts must be non-negative integers")
        if sum(values) > INT64_MAX:
            raise ValueError(f"counts total {sum(values)} exceeds {INT64_MAX}")
        return cls(np.array(rows, dtype=np.int64), names)


@dataclass
class MacroMetrics:
    orientation: str
    per_class_precision: np.ndarray
    per_class_recall: np.ndarray
    macro_precision: float
    macro_recall: float
    macro_f1: float


def confusion(predicted, actual, num_classes: int, class_names=None) -> ConfusionMatrix:
    predicted = list(predicted)
    actual = list(actual)
    if len(predicted) != len(actual):
        raise ValueError(f"length mismatch: {len(predicted)} vs {len(actual)}")
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    for p, a in zip(predicted, actual):
        if not (0 <= int(p) < num_classes and 0 <= int(a) < num_classes):
            raise ValueError(f"label outside [0, {num_classes}): pred={p} actual={a}")
        counts[int(a), int(p)] += 1
    if class_names is None:
        class_names = [str(i) for i in range(num_classes)]
    return ConfusionMatrix(counts, list(class_names))


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, with 0 where den is 0."""
    return np.where(den > 0, num / np.maximum(den, 1), 0.0)


def macro_metrics(m: ConfusionMatrix, orientation: str = "standard") -> MacroMetrics:
    counts = m.counts.astype(np.float64)
    if counts.sum() == 0:
        raise ValueError("empty confusion matrix: counts sum to 0")
    diag = np.diag(counts)
    row_rates = _safe_div(diag, counts.sum(axis=1))
    col_rates = _safe_div(diag, counts.sum(axis=0))

    if orientation == "standard":
        precision, recall = col_rates, row_rates
    elif orientation == "paper":
        # the published tables call row-normalized rates "Precision"
        precision, recall = row_rates, col_rates
    else:
        raise ValueError(f"unknown orientation {orientation!r}")
    macro_p = float(precision.mean())
    macro_r = float(recall.mean())
    if orientation == "standard":
        f1_den = precision + recall
        per_f1 = np.where(f1_den > 0, 2 * precision * recall / np.maximum(f1_den, 1e-300), 0.0)
        macro_f1 = float(per_f1.mean())
    else:
        macro_f1 = (
            2 * macro_p * macro_r / (macro_p + macro_r) if macro_p + macro_r > 0 else 0.0
        )

    return MacroMetrics(
        orientation=orientation,
        per_class_precision=precision,
        per_class_recall=recall,
        macro_precision=macro_p,
        macro_recall=macro_r,
        macro_f1=macro_f1,
    )


def format_table(m: ConfusionMatrix, mm: MacroMetrics) -> str:
    """Aligned text rendering of a matrix plus its macro summary."""
    width = max(9, max(len(n) for n in m.class_names) + 2)
    lines = ["".ljust(width) + "".join(n.rjust(width) for n in m.class_names)]
    for name, row in zip(m.class_names, m.counts):
        lines.append(name.ljust(width) + "".join(str(v).rjust(width) for v in row))
    lines.append(
        f"macro precision {mm.macro_precision:.2%}  "
        f"macro recall {mm.macro_recall:.2%}  macro F1 {mm.macro_f1:.2%}"
        f"  ({mm.orientation} orientation)"
    )
    return "\n".join(lines)

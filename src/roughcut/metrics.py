"""Classifier evaluation: confusion matrix, accuracy, ROC curve, AUC, and the
end-to-end discretize/induce/classify report with timings."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from time import perf_counter
from typing import Sequence

import numpy as np

from .data import DecisionTable, _labels, _reals
from .discretize import CutSet, apply_cuts
from .roughset import RuleSet, classify_table, induce_rules

__all__ = [
    "ConfusionMatrix",
    "EvaluationReport",
    "RocCurve",
    "accuracy",
    "auc",
    "confusion",
    "evaluate_pipeline",
    "report_to_json",
    "roc",
    "roc_to_csv",
]


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts in actual-positive/negative x predicted-positive/negative layout."""

    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class RocCurve:
    """ROC points ascending in FPR, with the score threshold for each point."""

    points: tuple[tuple[float, float], ...]
    thresholds: tuple[float, ...]

    def __post_init__(self):
        if len(self.points) != len(self.thresholds):
            raise ValueError("one threshold per ROC point required")
        if len(self.points) < 2 or self.points[0] != (0.0, 0.0) or self.points[-1] != (1.0, 1.0):
            raise ValueError("ROC curve must run from (0,0) to (1,1)")
        fprs = [p[0] for p in self.points]
        if any(b < a for a, b in zip(fprs, fprs[1:])):
            raise ValueError("FPR must be non-decreasing")


@dataclass(frozen=True)
class EvaluationReport:
    """Everything the comparison protocol reports for one trained classifier.

    report.json holds every compared field, ``matrix`` first as ``confusion``;
    a ``compare=False`` field (``curve``, ``rules``) stays out of it.
    """

    matrix: ConfusionMatrix
    accuracy: float
    auc: float
    num_rules: int
    num_certain_rules: int
    train_time_s: float
    test_time_s: float
    curve: RocCurve | None = field(repr=False, compare=False, default=None)
    rules: RuleSet | None = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if not 0.0 <= self.accuracy <= 1.0 or not 0.0 <= self.auc <= 1.0:
            raise ValueError("accuracy and auc must lie in [0, 1]")


def confusion(predictions: Sequence[int], actuals: Sequence[int]) -> ConfusionMatrix:
    """Tally tp/tn/fp/fn with class 1 (faulty) as positive."""
    predictions = _labels(predictions, None, "predictions", "object")
    actuals = _labels(actuals, predictions.size, "actuals", "object")
    if predictions.size == 0:
        raise ValueError("nothing to tally")
    return ConfusionMatrix(
        tp=int(((predictions == 1) & (actuals == 1)).sum()),
        tn=int(((predictions == 0) & (actuals == 0)).sum()),
        fp=int(((predictions == 1) & (actuals == 0)).sum()),
        fn=int(((predictions == 0) & (actuals == 1)).sum()),
    )


def accuracy(m: ConfusionMatrix) -> float:
    """(tp + tn) / (tp + tn + fp + fn)."""
    if m.total == 0:
        raise ValueError("empty confusion matrix")
    return (m.tp + m.tn) / m.total


def roc(scores: Sequence[float], actuals: Sequence[int]) -> RocCurve:
    """Threshold sweep over distinct scores, descending; tied scores form one step.

    The distinct scores come from one value sort. Each step's point counts the
    objects of each class scoring at or above its threshold, by ``searchsorted``
    in that class's own sorted scores. A step's threshold is the score of its
    last object in input order: ``0.0`` and ``-0.0`` tie, and the sort may put
    either sign first.
    """
    scores = _reals(scores, "score", "object", (None,), "scores must be 1-D")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")  # NaN sorts above every score and ties none, not even NaN
    actuals = _labels(actuals, scores.size, "actuals", "object")
    n_pos = int((actuals == 1).sum())
    n_neg = int((actuals == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC requires both classes among the actuals")

    ranked = np.sort(scores)
    thresholds = ranked[np.append(True, ranked[1:] != ranked[:-1])][::-1]
    zeros = np.flatnonzero(scores == 0)
    if zeros.size:
        thresholds[thresholds == 0] = scores[zeros[-1]]
    negatives, positives = (np.sort(scores[actuals == label]) for label in (0, 1))
    fp = n_neg - np.searchsorted(negatives, thresholds)
    tp = n_pos - np.searchsorted(positives, thresholds)

    rates = np.stack([fp / n_neg, tp / n_pos], axis=1)
    points = ((0.0, 0.0), *map(tuple, rates.tolist()))
    return RocCurve(points, (math.inf, *thresholds.tolist()))


def auc(curve: RocCurve) -> float:
    """Trapezoidal area under the ROC curve."""
    xs = np.array([p[0] for p in curve.points])
    ys = np.array([p[1] for p in curve.points])
    # The expression np.trapezoid evaluates, which numpy < 2.0 lacks.
    return float((np.diff(xs) * (ys[1:] + ys[:-1]) / 2.0).sum())


def evaluate_pipeline(
    train: DecisionTable,
    test: DecisionTable,
    cuts: CutSet,
    cut_time_s: float = 0.0,
) -> EvaluationReport:
    """Discretize, induce rules on train, classify test, and assemble the report.

    ``cut_time_s`` lets the caller fold the discretizer's own search time
    into train_time_s, so EFB and ACO training costs compare fairly.
    """
    t0 = perf_counter()
    rules = induce_rules(apply_cuts(train, cuts))
    train_time = perf_counter() - t0 + cut_time_s

    t1 = perf_counter()
    predictions, scores = classify_table(rules, apply_cuts(test, cuts))
    test_time = perf_counter() - t1

    matrix = confusion(predictions, test.decisions)
    curve = roc(scores, test.decisions)
    return EvaluationReport(
        matrix=matrix,
        accuracy=accuracy(matrix),
        auc=auc(curve),
        num_rules=rules.decisions.size,
        num_certain_rules=rules.n_certain,
        train_time_s=train_time,
        test_time_s=test_time,
        curve=curve,
        rules=rules,
    )


def report_to_json(report: EvaluationReport) -> dict:
    """The confusion counts, then every other compared field of the report, in field order."""
    return {"confusion": asdict(report.matrix)} | {
        f.name: getattr(report, f.name) for f in fields(report) if f.compare and f.name != "matrix"
    }


def roc_to_csv(curve: RocCurve, path) -> None:
    """Write (threshold, fpr, tpr) rows for external plotting."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("threshold,fpr,tpr\n")
        for threshold, (fpr, tpr) in zip(curve.thresholds, curve.points):
            fh.write(f"{threshold!r},{fpr!r},{tpr!r}\n")

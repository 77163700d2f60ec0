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
    """Threshold sweep over distinct scores, descending; tied scores form one step."""
    scores = _reals(scores, "score", "object", (None,), "scores must be 1-D")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")  # argsort puts NaN last, as if lowest
    actuals = _labels(actuals, scores.size, "actuals", "object")
    n_pos = int((actuals == 1).sum())
    n_neg = int((actuals == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC requires both classes among the actuals")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_actuals = actuals[order]
    cum_tp = np.cumsum(sorted_actuals == 1)
    cum_fp = np.cumsum(sorted_actuals == 0)
    # index of the last element in each tied-score group
    step_ends = np.append(np.nonzero(np.diff(sorted_scores))[0], len(sorted_scores) - 1)

    rates = np.stack([cum_fp[step_ends] / n_neg, cum_tp[step_ends] / n_pos], axis=1)
    points = ((0.0, 0.0), *map(tuple, rates.tolist()))
    return RocCurve(points, (math.inf, *sorted_scores[step_ends].tolist()))


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

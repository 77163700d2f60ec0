"""Independent numpy reference for the EFB + exact-match rough-set pipeline.

Nothing here calls roughcut. Rows are grouped with ``np.unique(axis=0)``
instead of the library's dict of tuples, majorities come from ``bincount``,
and AUC is the pair-count (Mann-Whitney) statistic instead of the trapezoid
over the ROC curve.
"""

from __future__ import annotations

import numpy as np


def efb_cuts(values: np.ndarray, num_cuts: int) -> tuple[tuple[float, ...], ...]:
    """Midpoints straddling the equal-frequency boundaries, interior and deduplicated."""
    n = values.shape[0]
    per_attribute = []
    for col in np.sort(values, axis=0).T:
        kept: list[float] = []
        for q in range(1, num_cuts + 1):
            b = min(max(round(n * q / (num_cuts + 1)), 1), n - 1)
            c = float((col[b - 1] + col[b]) / 2.0)
            if col[0] < c < col[-1] and (not kept or c > kept[-1]):
                kept.append(c)
        per_attribute.append(tuple(kept))
    return tuple(per_attribute)


def bins(values: np.ndarray, cuts) -> np.ndarray:
    """Bin index per value: the number of cuts <= value."""
    out = np.empty(values.shape, dtype=np.int64)
    for a, attr_cuts in enumerate(cuts):
        out[:, a] = np.searchsorted(np.asarray(attr_cuts, dtype=np.float64), values[:, a], side="right")
    return out


def pair_count_auc(scores: np.ndarray, actuals: np.ndarray) -> float:
    """P(score of a positive > score of a negative), ties counting one half."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    midrank = upper - (counts - 1) / 2.0  # 1-based mean rank of each tied group
    ranks = midrank[inverse.ravel()]
    pos = actuals == 1
    n_pos = int(pos.sum())
    n_neg = actuals.size - n_pos
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


class RuleOracle:
    """Expected rules and test-set outputs for one cut set.

    One rule per distinct training bin vector, deciding by majority with ties
    going to the training prior (label 1 on an even prior). Test objects whose
    bin vector matches no rule get the prior decision and a score of 0.5.
    """

    def __init__(self, train_values, train_decisions, test_values, test_decisions, cuts):
        train_bins = bins(train_values, cuts)
        test_bins = bins(test_values, cuts)
        n_train = train_bins.shape[0]
        _, inverse = np.unique(np.concatenate([train_bins, test_bins]), axis=0, return_inverse=True)
        inverse = inverse.ravel()
        n_cells = int(inverse.max()) + 1
        size = np.bincount(inverse[:n_train], minlength=n_cells)
        ones = np.bincount(inverse[:n_train], weights=train_decisions, minlength=n_cells).astype(np.int64)
        zeros = size - ones
        total_ones = int(train_decisions.sum())
        prior = 1 if total_ones >= n_train - total_ones else 0
        decision = np.where(ones > zeros, 1, np.where(zeros > ones, 0, prior))
        majority = np.where(decision == 1, ones, zeros)
        present = size > 0
        confidence = np.divide(majority, size, out=np.zeros(n_cells), where=present)
        cell_score = np.where(decision == 1, confidence, 1.0 - confidence)

        test_cell = inverse[n_train:]
        matched = present[test_cell]
        self.cuts = tuple(tuple(c) for c in cuts)
        self.num_rules = int(present.sum())
        self.num_certain_rules = int((present & (majority == size)).sum())
        self.predictions = np.where(matched, decision[test_cell], prior)
        self.scores = np.where(matched, cell_score[test_cell], 0.5)
        self.unmatched = int((~matched).sum())
        actual = np.asarray(test_decisions)
        p = self.predictions
        self.confusion = {
            "tp": int(((p == 1) & (actual == 1)).sum()),
            "tn": int(((p == 0) & (actual == 0)).sum()),
            "fp": int(((p == 1) & (actual == 0)).sum()),
            "fn": int(((p == 0) & (actual == 1)).sum()),
        }
        self.accuracy = (self.confusion["tp"] + self.confusion["tn"]) / actual.size
        self.auc = pair_count_auc(self.scores, actual)

    def mismatches(self, predictions, scores, confusion, num_rules, num_certain_rules, accuracy, auc):
        """Names of the outputs that disagree with this reference (empty when all agree)."""
        bad = []
        if not np.array_equal(np.asarray(predictions), self.predictions):
            bad.append("predictions")
        if not np.array_equal(np.asarray(scores), self.scores):
            bad.append("scores")
        if dict(confusion) != self.confusion:
            bad.append("confusion")
        if num_rules != self.num_rules:
            bad.append("num_rules")
        if num_certain_rules != self.num_certain_rules:
            bad.append("num_certain_rules")
        if accuracy != self.accuracy:
            bad.append("accuracy")
        if not abs(auc - self.auc) <= 1e-9:
            bad.append("auc")
        return bad

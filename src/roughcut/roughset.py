"""Rough-set machinery: indiscernibility partitions, set approximations,
rough membership, rule induction, and rule-based classification.

Objects are indiscernible when their discretized condition vectors agree on
every attribute considered; each equivalence class becomes one if-then rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .discretize import DiscretizedTable


@dataclass(frozen=True)
class Partition:
    """Equivalence classes of the indiscernibility relation.

    Classes are ordered by the first object index they contain; ``class_of``
    maps every object index to its class index.
    """

    classes: tuple[frozenset[int], ...]
    class_of: np.ndarray

    def __post_init__(self):
        class_of = np.asarray(self.class_of, dtype=np.int64)
        class_of.setflags(write=False)
        object.__setattr__(self, "class_of", class_of)

    @property
    def n_objects(self) -> int:
        return self.class_of.shape[0]


@dataclass(frozen=True)
class Approximation:
    """Lower/upper approximations and boundary region for one decision class."""

    lower: frozenset[int]
    upper: frozenset[int]
    boundary: frozenset[int]
    target_class: int

    @property
    def is_crisp(self) -> bool:
        return not self.boundary


@dataclass(frozen=True)
class Rule:
    """One if-then rule: a full condition bin vector implying a decision.

    ``confidence`` is the rough membership of the decision within the rule's
    equivalence class; ``certain`` rules come from the lower approximation
    (confidence exactly 1).
    """

    conditions: dict[int, int]
    decision: int
    support: int
    confidence: float
    certain: bool


@dataclass(frozen=True)
class RuleSet:
    """All rules induced from a training table plus a majority-class fallback."""

    rules: tuple[Rule, ...]
    default_decision: int
    attribute_bin_counts: tuple[int, ...]
    # Rule condition keys in sorted order, and the position in ``rules`` of each.
    _keys: np.ndarray = field(init=False, repr=False, compare=False)
    _positions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n_attrs = len(self.attribute_bin_counts)
        conditions = np.array(
            [[rule.conditions[a] for a in range(n_attrs)] for rule in self.rules], dtype=np.int64
        ).reshape(len(self.rules), n_attrs)
        keys, first, _ = _group_rows(conditions)
        if first.size < len(self.rules):
            raise ValueError("duplicate rule conditions")
        positions = np.argsort(keys)
        object.__setattr__(self, "_keys", keys[positions])
        object.__setattr__(self, "_positions", positions)

    @property
    def n_certain(self) -> int:
        return sum(1 for r in self.rules if r.certain)

    def match(self, bins: np.ndarray) -> np.ndarray:
        """Position in ``rules`` of the rule matching each row of a bin matrix, or -1."""
        bins = np.asarray(bins, dtype=np.int64)
        n_attrs = len(self.attribute_bin_counts)
        if bins.ndim != 2 or bins.shape[1] != n_attrs:
            raise ValueError(f"expected {n_attrs} bins per object, got shape {bins.shape}")
        keys = _row_keys(bins)
        if not self.rules:
            return np.full(keys.size, -1, dtype=np.int64)
        at = np.minimum(np.searchsorted(self._keys, keys), self._keys.size - 1)
        return np.where(self._keys[at] == keys, self._positions[at], -1)

    def lookup(self, key: tuple[int, ...]) -> Rule | None:
        at = int(self.match([key])[0])
        return None if at < 0 else self.rules[at]


def _row_keys(bins: np.ndarray) -> np.ndarray:
    """One np.void key per row of a 2-D bin matrix: the row's bytes.

    Two keys are equal exactly when their rows are, however wide the table.
    """
    rows = np.ascontiguousarray(bins, dtype=np.int64)
    if rows.shape[1] == 0:
        raise ValueError("bin matrix must have at least one attribute")
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _group_rows(bins: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the rows of a bin matrix by exact equality.

    Cells are numbered by first appearance. Returns ``(keys, first, cell_of)``:
    cell c has row key ``keys[c]`` and first row ``first[c]``, and row r lies
    in cell ``cell_of[r]``.
    """
    keys = _row_keys(bins)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    renumber = np.empty_like(order)
    renumber[order] = np.arange(order.size)
    first = first[order]
    return keys[first], first, renumber[inverse.ravel()]


def partition(table: DiscretizedTable, attributes: Iterable[int]) -> Partition:
    """Group objects by exact equality of their projected bin vectors."""
    attrs = sorted(set(int(a) for a in attributes))
    if not attrs:
        raise ValueError("attribute subset must be non-empty")
    if attrs[0] < 0 or attrs[-1] >= table.n_attributes:
        raise ValueError("attribute index out of range")
    _, _, class_of = _group_rows(table.bins[:, attrs])
    members = np.argsort(class_of, kind="stable")
    bounds = np.cumsum(np.bincount(class_of))
    classes = tuple(frozenset(m.tolist()) for m in np.split(members, bounds)[:-1])
    return Partition(classes, class_of)


def approximate(part: Partition, decisions: Sequence[int], target: int) -> Approximation:
    """Lower/upper approximation of X = {objects with decision == target}.

    Lower: union of classes entirely inside X. Upper: union of classes
    intersecting X. Boundary: upper minus lower.
    """
    decisions = np.asarray(decisions)
    if decisions.shape[0] != part.n_objects:
        raise ValueError("decisions must label exactly the partitioned objects")
    lower: set[int] = set()
    upper: set[int] = set()
    for members in part.classes:
        labels = decisions[list(members)]
        hits = int((labels == target).sum())
        if hits:
            upper.update(members)
            if hits == len(members):
                lower.update(members)
    return Approximation(frozenset(lower), frozenset(upper), frozenset(upper - lower), target)


def membership(part: Partition, decisions: Sequence[int], obj: int, target: int) -> float:
    """Rough membership: fraction of the object's class carrying the target label."""
    decisions = np.asarray(decisions)
    members = part.classes[int(part.class_of[obj])]
    hits = int((decisions[list(members)] == target).sum())
    return hits / len(members)


def induce_rules(table: DiscretizedTable) -> RuleSet:
    """One rule per equivalence class of the full-attribute partition.

    The rule takes the class's majority label (ties broken toward the
    globally more frequent class, then toward label 1); its confidence is
    the majority fraction, so certain rules are exactly the lower
    approximation's classes.
    """
    if table.n_objects == 0:
        raise ValueError("cannot induce rules from an empty table")
    total_ones = int(table.decisions.sum())
    total_zeros = table.n_objects - total_ones
    if total_ones == 0 or total_zeros == 0:
        raise ValueError("training table must contain both decision classes")
    prior_winner = 1 if total_ones >= total_zeros else 0

    _, first, cell_of = _group_rows(table.bins)
    sizes = np.bincount(cell_of)
    ones = np.bincount(cell_of[table.decisions == 1], minlength=sizes.size)
    zeros = sizes - ones
    decisions = np.where(ones > zeros, 1, np.where(zeros > ones, 0, prior_winner))
    confidences = np.where(decisions == 1, ones, zeros) / sizes
    rules = tuple(
        Rule(
            conditions=dict(enumerate(key)),
            decision=decision,
            support=size,
            confidence=confidence,
            certain=confidence == 1.0,
        )
        for key, decision, size, confidence in zip(
            table.bins[first].tolist(), decisions.tolist(), sizes.tolist(), confidences.tolist()
        )
    )
    return RuleSet(rules, prior_winner, table.attribute_bin_counts)


def _predict(rules: RuleSet, bins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decisions and class-1 scores for each row of a bin matrix."""
    at = rules.match(bins)
    counts = rules.attribute_bin_counts
    bad = (bins < 0) | (bins >= np.asarray(counts))
    if bad.any():
        attr = int(np.nonzero(bad)[1][0])
        raise ValueError(f"bin index out of range for attribute {attr} ({counts[attr]} bins)")
    # Position -1, no matching rule, picks the fallback appended last.
    decisions = np.array([r.decision for r in rules.rules] + [rules.default_decision], dtype=np.int64)
    scores = np.array(
        [r.confidence if r.decision == 1 else 1.0 - r.confidence for r in rules.rules] + [0.5]
    )
    return decisions[at], scores[at]


def classify(rules: RuleSet, bins: Sequence[int]) -> tuple[int, float]:
    """Classify one bin vector; the score is the implied P(class 1).

    An exact-condition rule yields its decision with score equal to its
    confidence (decision 1) or one minus it (decision 0). Unmatched vectors
    fall back to the default decision with a neutral score of 0.5.
    """
    decisions, scores = _predict(rules, np.asarray(bins, dtype=np.int64).reshape(1, -1))
    return int(decisions[0]), float(scores[0])


def classify_table(rules: RuleSet, table: DiscretizedTable) -> tuple[np.ndarray, np.ndarray]:
    """Classify every object of a discretized table; returns (decisions, scores)."""
    return _predict(rules, table.bins)


def ruleset_to_json(rules: RuleSet) -> dict:
    """Serialize rules as the transparency artifact: one entry per rule."""
    return {
        "rules": [
            {
                "conditions": {str(a): b for a, b in sorted(rule.conditions.items())},
                "decision": rule.decision,
                "support": rule.support,
                "confidence": rule.confidence,
                "certain": rule.certain,
            }
            for rule in rules.rules
        ],
        "default_decision": rules.default_decision,
        "attribute_bin_counts": list(rules.attribute_bin_counts),
    }


def ruleset_from_json(payload: dict) -> RuleSet:
    rules = tuple(
        Rule(
            conditions={int(a): int(b) for a, b in entry["conditions"].items()},
            decision=int(entry["decision"]),
            support=int(entry["support"]),
            confidence=float(entry["confidence"]),
            certain=bool(entry["certain"]),
        )
        for entry in payload["rules"]
    )
    return RuleSet(
        rules,
        int(payload["default_decision"]),
        tuple(int(c) for c in payload["attribute_bin_counts"]),
    )

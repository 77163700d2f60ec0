"""Rough-set machinery: indiscernibility partitions, set approximations,
rough membership, rule induction, and rule-based classification.

Objects are indiscernible when their discretized condition vectors agree on
every attribute considered; each equivalence class becomes one if-then rule.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .discretize import DiscretizedTable

KEY_LIMIT = 2**62  # cell keys are renumbered before their radix would pass this


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
    """Read-only view of one rule: a full condition bin vector implying a decision.

    ``confidence`` is the rough membership of the decision within the rule's
    equivalence class; ``certain`` rules come from the lower approximation
    (confidence exactly 1).
    """

    conditions: dict[int, int]
    decision: int
    support: int
    confidence: float
    certain: bool


@dataclass(frozen=True, eq=False)
class RuleSet:
    """All rules induced from a training table plus a majority-class fallback.

    Rule i is row i of the table: bin ``conditions[i, a]`` on attribute a
    implies ``decisions[i]``, with ``supports[i]`` training objects and
    confidence ``confidences[i]``. No two rules share a condition row.
    """

    conditions: np.ndarray
    decisions: np.ndarray
    supports: np.ndarray
    confidences: np.ndarray
    default_decision: int
    attribute_bin_counts: tuple[int, ...]
    _keys: np.ndarray = field(init=False, repr=False)
    _positions: np.ndarray = field(init=False, repr=False)
    _renumbered: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        for name, dtype in (("conditions", np.int64), ("decisions", np.int64),
                            ("supports", np.int64), ("confidences", np.float64)):
            array = np.array(getattr(self, name), dtype=dtype)
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        for a, count in enumerate(self.attribute_bin_counts):
            if not 1 <= count < 2**63:
                raise ValueError(f"attribute_bin_counts entry {a}: {count} is not in [1, 2**63)")
        per_rule = (self.decisions.size,)
        if self.conditions.shape != per_rule + (len(self.attribute_bin_counts),) or any(
                a.shape != per_rule for a in (self.decisions, self.supports, self.confidences)):
            raise ValueError("expected one condition row, decision, support and confidence per rule")
        _check_bins(self.conditions, self.attribute_bin_counts, "rule")
        for name, values, allowed, ok in (
                ("decision", self.decisions, "in {0, 1}", np.isin(self.decisions, (0, 1))),
                ("support", self.supports, ">= 1", self.supports >= 1),
                ("confidence", self.confidences, "in [0, 1]",
                 (self.confidences >= 0) & (self.confidences <= 1))):
            if not ok.all():
                at = int(np.argmin(ok))
                raise ValueError(f"rule {at}: {name} {values[at]} is not {allowed}")
        if self.default_decision not in (0, 1):
            raise ValueError(f"default_decision must be 0 or 1, got {self.default_decision!r}")
        # Sorted distinct keys, the rule holding each (then -1, for no key),
        # and the partial keys renumbered with, which match ranks queries against.
        keys, renumbered = _row_keys(zip(self.conditions.T, self.attribute_bin_counts))
        keys, positions = np.unique(keys, return_index=True)
        if keys.size < self.decisions.size:
            raise ValueError("duplicate rule conditions")
        object.__setattr__(self, "_keys", keys)
        object.__setattr__(self, "_positions", np.append(positions, -1))
        object.__setattr__(self, "_renumbered", tuple(renumbered))

    @property
    def rules(self) -> tuple[Rule, ...]:
        """One Rule view per row of the rule table, built on each access."""
        return tuple(map(self._rule, range(self.decisions.size)))

    @property
    def n_certain(self) -> int:
        return int((self.confidences == 1.0).sum())

    def _rule(self, at: int) -> Rule:
        confidence = float(self.confidences[at])
        return Rule(dict(enumerate(self.conditions[at].tolist())), int(self.decisions[at]),
                    int(self.supports[at]), confidence, confidence == 1.0)

    def match(self, bins: np.ndarray) -> np.ndarray:
        """Position of the rule matching each row of a bin matrix, or -1.

        A row with a bin outside [0, count) matches nothing. The mask is taken
        from the bins because mixed-radix keys alias: with counts (3, 3) the
        rows (0, 5) and (1, 2) both have key 5.
        """
        bins = np.asarray(bins, dtype=np.int64)
        counts = self.attribute_bin_counts
        if bins.ndim != 2 or bins.shape[1] != len(counts):
            raise ValueError(f"expected {len(counts)} bins per object, got shape {bins.shape}")
        keys, _ = _row_keys(zip(bins.T, counts), self._renumbered)
        at = _find(self._keys, keys)
        at[_out_of_range(bins, counts).any(axis=1)] = -1
        return self._positions[at]

    def lookup(self, key: tuple[int, ...]) -> Rule | None:
        at = int(self.match([key])[0])
        return None if at < 0 else self._rule(at)


def _row_keys(
    columns: Iterable[tuple[np.ndarray, int]], dictionaries: Sequence[np.ndarray] | None = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """One int64 mixed-radix key per row, from the row's bin columns taken one at a time.

    ``columns`` yields ``(bins, count)`` pairs with every bin in [0, count),
    and each one turns the keys into ``key * count + bins``. Before the radix
    would pass KEY_LIMIT the partial keys are renumbered: by ``np.unique``
    when ``dictionaries`` is None, otherwise by their position in the next
    of those sorted partial keys, -1 where absent (a negative key stays
    negative, so it never matches). Returns the keys and the distinct partial
    keys renumbered with. Two keys are equal exactly when their rows are,
    however wide the table; a count too large for even the renumbered keys
    to stay within KEY_LIMIT raises ValueError.
    """
    keys, radix, renumbered = None, 1, []
    for bins, count in columns:
        if keys is None:
            keys = np.array(bins, dtype=np.int64)
        else:
            if radix * count > KEY_LIMIT:
                if dictionaries is None:
                    distinct, keys = np.unique(keys, return_inverse=True)
                else:
                    distinct = dictionaries[len(renumbered)]
                    keys = _find(distinct, keys)
                renumbered.append(distinct)
                radix = distinct.size
                if radix * count > KEY_LIMIT:
                    raise ValueError(f"bin count {count} is too large to key {radix} distinct row prefixes")
            keys *= count
            keys += bins
        radix *= count
    if keys is None:
        raise ValueError("bin matrix must have at least one attribute")
    return keys, renumbered


def _find(distinct: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Position of each key in the sorted distinct keys ``distinct``, or -1 where absent."""
    if not distinct.size:
        return np.full(keys.shape, -1, dtype=np.int64)
    at = np.minimum(np.searchsorted(distinct, keys), distinct.size - 1)
    return np.where(distinct[at] == keys, at, -1)


def _out_of_range(bins: np.ndarray, counts: tuple[int, ...]) -> np.ndarray:
    """Mask of the bins outside [0, count) for their attribute."""
    return (bins < 0) | (bins >= np.asarray(counts, dtype=np.int64))


def _check_bins(bins: np.ndarray, counts: tuple[int, ...], row_name: str) -> None:
    """Raise ValueError naming the first row and attribute with a bin outside [0, count)."""
    bad = _out_of_range(bins, counts)
    if bad.any():
        row, attr = (int(i) for i in np.argwhere(bad)[0])
        raise ValueError(f"{row_name} {row}: bin index out of range for attribute {attr} ({counts[attr]} bins)")


def _group_rows(bins: np.ndarray, counts: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Group the rows of a bin matrix, with ``counts`` bins per attribute, by exact equality.

    Cells are numbered by first appearance. Returns ``(first, cell_of)``:
    cell c has first row ``first[c]``, and row r lies in cell ``cell_of[r]``.
    """
    keys, _ = _row_keys(zip(bins.T, counts))
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    renumber = np.empty_like(order)
    renumber[order] = np.arange(order.size)
    return first[order], renumber[inverse.ravel()]


def partition(table: DiscretizedTable, attributes: Iterable[int]) -> Partition:
    """Group objects by exact equality of their projected bin vectors."""
    attrs = sorted(set(int(a) for a in attributes))
    if not attrs:
        raise ValueError("attribute subset must be non-empty")
    if attrs[0] < 0 or attrs[-1] >= table.n_attributes:
        raise ValueError("attribute index out of range")
    _, class_of = _group_rows(table.bins[:, attrs], [table.attribute_bin_counts[a] for a in attrs])
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

    first, cell_of = _group_rows(table.bins, table.attribute_bin_counts)
    sizes = np.bincount(cell_of)
    ones = np.bincount(cell_of[table.decisions == 1], minlength=sizes.size)
    zeros = sizes - ones
    decisions = np.where(ones > zeros, 1, np.where(zeros > ones, 0, prior_winner))
    confidences = np.where(decisions == 1, ones, zeros) / sizes
    return RuleSet(table.bins[first], decisions, sizes, confidences, prior_winner,
                   table.attribute_bin_counts)


def _predict(rules: RuleSet, bins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decisions and class-1 scores for each row of a bin matrix."""
    at = rules.match(bins)
    _check_bins(bins, rules.attribute_bin_counts, "object")
    # Position -1, no matching rule, picks the fallback appended last.
    decisions = np.append(rules.decisions, rules.default_decision)
    scores = np.where(rules.decisions == 1, rules.confidences, 1.0 - rules.confidences)
    return decisions[at], np.append(scores, 0.5)[at]


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
            {**asdict(rule), "conditions": {str(a): b for a, b in rule.conditions.items()}}
            for rule in rules.rules
        ],
        "default_decision": rules.default_decision,
        "attribute_bin_counts": list(rules.attribute_bin_counts),
    }


def _integer(value, field_name: str) -> int:
    """``value`` as an int; anything but an integral number raises ValueError naming the field."""
    if isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ValueError(f"{field_name} {value!r} is not an integer")


def ruleset_from_json(payload: dict) -> RuleSet:
    """Rebuild the rules of ``ruleset_to_json``; a malformed rule raises ValueError."""
    counts = tuple(_integer(c, "attribute_bin_counts entry") for c in payload["attribute_bin_counts"])
    entries = payload["rules"]
    conditions, decisions, supports = [], [], []
    for i, entry in enumerate(entries):
        bins = {int(a): _integer(b, f"rule {i}: attribute {a} bin")
                for a, b in entry["conditions"].items()}
        if sorted(bins) != list(range(len(counts))):
            raise ValueError(f"rule {i}: conditions must name attributes 0..{len(counts) - 1} once each")
        if bool(entry["certain"]) != (float(entry["confidence"]) == 1.0):
            raise ValueError(f"rule {i}: certain flag disagrees with confidence {entry['confidence']}")
        conditions.append([bins[a] for a in range(len(counts))])
        decisions.append(_integer(entry["decision"], f"rule {i}: decision"))
        supports.append(_integer(entry["support"], f"rule {i}: support"))
    return RuleSet(np.array(conditions, dtype=np.int64).reshape(len(entries), len(counts)),
                   decisions, supports, [entry["confidence"] for entry in entries],
                   _integer(payload["default_decision"], "default_decision"), counts)

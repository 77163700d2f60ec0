"""Rough-set machinery: indiscernibility partitions, set approximations,
rough membership, rule induction, and rule-based classification.

Objects are indiscernible when their discretized condition vectors agree on
every attribute considered; each equivalence class becomes one if-then rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .data import _ArrayFields, _frozen, _integer, _integers, _labels, _reals
from .discretize import DiscretizedTable, _bin_counts, _bin_matrix

__all__ = [
    "Approximation",
    "Partition",
    "Rule",
    "RuleSet",
    "approximate",
    "classify_table",
    "induce_rules",
    "membership",
    "partition",
    "ruleset_from_json",
    "ruleset_to_json",
]

KEY_LIMIT = 2**62  # cell keys are renumbered before their radix would pass this


@dataclass(frozen=True, eq=False)
class Partition(_ArrayFields):
    """Equivalence classes of the indiscernibility relation.

    Classes are ordered by the first object index they contain; ``class_of``
    maps every object index to its class index.
    """

    classes: tuple[frozenset[int], ...]
    class_of: np.ndarray

    def __post_init__(self):
        class_of = _integers(self.class_of, "class", "object", (None,), "class_of must have one entry per object")
        outside = (class_of < 0) | (class_of >= len(self.classes))  # as read, so 2**63 is not wrapped first
        if outside.any():
            at = int(outside.argmax())
            raise ValueError(f"object {at}: class {class_of[at]} is not in [0, {len(self.classes)})")
        object.__setattr__(self, "class_of", _frozen(class_of, np.int64))

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
class RuleSet(_ArrayFields):
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
    _keys: np.ndarray = field(init=False, repr=False, compare=False)
    _positions: np.ndarray = field(init=False, repr=False, compare=False)
    _renumbered: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        counts = _bin_counts(self.attribute_bin_counts)
        object.__setattr__(self, "attribute_bin_counts", counts)
        object.__setattr__(self, "conditions", _frozen(_bin_matrix(self.conditions, counts, "rule"), np.int64))
        object.__setattr__(self, "decisions", _labels(self.decisions, self.conditions.shape[0], "decisions", "rule"))
        shape, shape_error = self.conditions.shape[:1], "expected one condition row, support and confidence per rule"
        supports = _integers(self.supports, "support", "rule", shape, shape_error)
        confidences = _frozen(_reals(self.confidences, "confidence", "rule", shape, shape_error), np.float64)
        for name, values, allowed, ok in (
                ("support", supports, ">= 1", supports >= 1),
                ("support", supports, "< 2**63", supports <= 2**63 - 1),
                ("confidence", confidences, "in [0, 1]", (confidences >= 0) & (confidences <= 1))):
            if not ok.all():
                at = int(np.argmin(ok))
                raise ValueError(f"rule {at}: {name} {values[at]} is not {allowed}")
        object.__setattr__(self, "supports", _frozen(supports, np.int64))
        object.__setattr__(self, "confidences", confidences)
        object.__setattr__(self, "default_decision", _integer(self.default_decision, "default_decision"))
        if self.default_decision not in (0, 1):
            raise ValueError(f"default_decision must be 0 or 1, got {self.default_decision!r}")
        # Sorted distinct keys, the rule holding each (then -1, for no key),
        # and the partial keys renumbered with, which match ranks queries against.
        keys, renumbered = _row_keys(zip(self.conditions.T, self.attribute_bin_counts))
        keys, positions = _sort_rows(keys)
        if (keys[1:] == keys[:-1]).any():
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
        """Position of the rule matching each row of a bin matrix (checked by ``_bin_matrix``), or -1."""
        bins = _bin_matrix(bins, self.attribute_bin_counts, "object")
        keys, _ = _row_keys(zip(bins.T, self.attribute_bin_counts), self._renumbered)
        return self._positions[_find(self._keys, keys)]

    def lookup(self, key: tuple[int, ...]) -> Rule | None:
        at = int(self.match([key])[0])
        return None if at < 0 else self._rule(at)


def _row_keys(
    columns: Iterable[tuple[np.ndarray, int]], dictionaries: Sequence[np.ndarray] | None = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """One int64 mixed-radix key per row, from the row's bin columns taken one at a time.

    ``columns`` yields at least one ``(bins, count)`` pair, every bin in [0, count),
    and each one turns the keys into ``key * count + bins``. Before the radix
    would pass KEY_LIMIT the partial keys are renumbered by their position in
    sorted distinct partial keys: their own (``np.unique``) when ``dictionaries``
    is None, otherwise the next of those, -1 where absent (a negative key stays
    negative, so it never matches). Returns the keys and the distinct partial
    keys renumbered with. Two keys are equal exactly when their rows are,
    however wide the table; a count too large for even the renumbered keys
    to stay within KEY_LIMIT raises ValueError.
    """
    columns = iter(columns)
    bins, radix = next(columns)
    keys, renumbered = np.array(bins, dtype=np.int64), []
    for bins, count in columns:
        if radix * count > KEY_LIMIT:
            distinct = np.unique(keys) if dictionaries is None else dictionaries[len(renumbered)]
            keys = _find(distinct, keys)
            renumbered.append(distinct)
            radix = distinct.size
            if radix * count > KEY_LIMIT:
                raise ValueError(f"bin count {count} is too large to key {radix} distinct row prefixes")
        keys *= count
        keys += bins
        radix *= count
    return keys, renumbered


def _find(distinct: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Position of each key in the sorted distinct keys ``distinct``, or -1 where absent.

    The keys are searched once ``_sort_rows`` has sorted them, so that numpy
    narrows each binary search from the previous one, and the positions are
    scattered back to the keys' rows.
    """
    if not distinct.size:
        return np.full(keys.shape, -1, dtype=np.int64)
    sorted_keys, order = _sort_rows(keys)
    at = np.empty(keys.shape, dtype=np.int64)
    at[order] = np.searchsorted(distinct, sorted_keys)
    np.minimum(at, distinct.size - 1, out=at)
    return np.where(distinct[at] == keys, at, -1)


def _sort_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The int64 ``keys`` sorted ascending, and the row each sorted key came from; equal keys keep ascending rows.

    Each key is packed with its row as ``key << s | row``, ``s`` the bits of the
    largest row index, and the packed values get a value sort, which numpy does
    faster than an argsort. A key whose shift would leave int64, outside
    ``[-(2**63 >> s), 2**63 >> s)``, leaves no room for the row, so then every
    key is first replaced by its rank among the distinct keys.
    """
    shift = max(keys.size - 1, 0).bit_length()
    limit = 2**63 >> shift
    distinct = None
    if keys.size and not -limit <= int(keys.min()) <= int(keys.max()) < limit:
        distinct, keys = np.unique(keys, return_inverse=True)
    packed = keys << shift
    packed |= np.arange(keys.size)
    packed.sort()
    order = packed & ((1 << shift) - 1)
    packed >>= shift
    return (packed if distinct is None else distinct[packed]), order


def _group_rows(bins: np.ndarray, counts: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Group the rows of a bin matrix, with ``counts`` bins per attribute, by exact equality.

    Cells are numbered by first appearance. Returns ``(first, cell_of)``:
    cell c has first row ``first[c]``, and row r lies in cell ``cell_of[r]``.
    ``_sort_rows`` sorts the keys, each run of equal sorted keys is one cell,
    and the run's first row is the cell's, as equal keys come out in ascending
    row order; a second ``_sort_rows`` of those first rows renumbers the cells.
    """
    keys, _ = _row_keys(zip(bins.T, counts))
    sorted_keys, order = _sort_rows(keys)
    starts = np.empty(keys.size, dtype=bool)
    starts[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    first, by_first = _sort_rows(order[starts])
    renumber = np.empty_like(by_first)
    renumber[by_first] = np.arange(by_first.size)
    cell_of = np.empty_like(order)
    cell_of[order] = renumber[np.cumsum(starts) - 1]
    return first, cell_of


def partition(table: DiscretizedTable, attributes: Iterable[int]) -> Partition:
    """Group objects by exact equality of their projected bin vectors."""
    attrs = sorted(set(_integer(a, "attribute") for a in attributes))
    if not attrs:
        raise ValueError("attribute subset must be non-empty")
    if attrs[0] < 0 or attrs[-1] >= table.n_attributes:
        raise ValueError("attribute index out of range")
    _, class_of = _group_rows(table.bins[:, attrs], [table.attribute_bin_counts[a] for a in attrs])
    members = np.argsort(class_of, kind="stable")
    bounds = np.cumsum(np.bincount(class_of))
    classes = tuple(frozenset(m.tolist()) for m in np.split(members, bounds)[:-1])
    return Partition(classes, class_of)


def _decisions(part: Partition, decisions: Sequence[int], target: int) -> tuple[np.ndarray, int]:
    """The partition's decisions through the label door, and ``target`` as an int once checked to be 0 or 1."""
    decisions = _labels(decisions, part.n_objects, "decisions", "object")
    if target not in (0, 1):
        raise ValueError(f"target must be 0 or 1, got {target!r}")
    return decisions, int(target)


def approximate(part: Partition, decisions: Sequence[int], target: int) -> Approximation:
    """Lower/upper approximation of X = {objects with decision == target}.

    Lower: union of classes entirely inside X. Upper: union of classes
    intersecting X. Boundary: upper minus lower.
    """
    decisions, target = _decisions(part, decisions, target)
    hit = decisions == target
    sizes = np.bincount(part.class_of)
    hits = np.bincount(part.class_of[hit], minlength=sizes.size)
    lower = frozenset(np.flatnonzero((hits == sizes)[part.class_of]).tolist())
    upper = frozenset(np.flatnonzero(hits[part.class_of]).tolist())
    return Approximation(lower, upper, upper - lower, target)


def membership(part: Partition, decisions: Sequence[int], obj: int, target: int) -> float:
    """Rough membership: fraction of the object's class carrying the target label."""
    decisions, target = _decisions(part, decisions, target)
    obj = _integer(obj, "object")
    if not 0 <= obj < part.n_objects:
        raise ValueError(f"object {obj} is not in [0, {part.n_objects})")
    members = part.classes[int(part.class_of[obj])]
    hits = int((decisions[list(members)] == target).sum())
    return hits / len(members)


def _majority(zeros, ones, tie):
    """The class with the larger count, elementwise, or ``tie`` where the counts are equal."""
    return np.where(zeros == ones, tie, ones > zeros)


def induce_rules(table: DiscretizedTable) -> RuleSet:
    """One rule per equivalence class of the full-attribute partition.

    The rule takes the class's ``_majority`` label (ties broken toward the
    globally more frequent class, then toward label 1); its confidence is
    the majority fraction, so certain rules are exactly the lower
    approximation's classes.
    """
    if table.n_objects == 0:
        raise ValueError("cannot induce rules from an empty table")
    total_zeros, total_ones = np.bincount(table.decisions, minlength=2)
    if total_ones == 0 or total_zeros == 0:
        raise ValueError("training table must contain both decision classes")
    prior = int(_majority(total_zeros, total_ones, 1))

    first, cell_of = _group_rows(table.bins, table.attribute_bin_counts)
    sizes = np.bincount(cell_of)
    ones = np.bincount(cell_of, weights=table.decisions).astype(np.int64)  # exact below 2**53 objects
    decisions = _majority(sizes - ones, ones, prior)
    confidences = np.maximum(ones, sizes - ones) / sizes
    # Column-major, as RuleSet stores it, so that it takes them without a transposing copy.
    return RuleSet(table.bins.T.take(first, axis=1).T, decisions, sizes, confidences, prior,
                   table.attribute_bin_counts)


def classify_table(rules: RuleSet, table: DiscretizedTable) -> tuple[np.ndarray, np.ndarray]:
    """Classify every object of a discretized table; returns (decisions, scores).

    The score is the implied P(class 1). An object matching a rule gets its
    decision with score equal to its confidence (decision 1) or one minus it
    (decision 0); an unmatched object gets the default decision with a
    neutral score of 0.5.
    """
    at = rules.match(table.bins)
    # Position -1, no matching rule, picks the fallback appended last.
    decisions = np.append(rules.decisions, rules.default_decision)
    scores = np.where(rules.decisions == 1, rules.confidences, 1.0 - rules.confidences)
    return decisions[at], np.append(scores, 0.5)[at]


def ruleset_to_json(rules: RuleSet) -> dict:
    """Serialize rules as the transparency artifact: one entry per rule."""
    return {
        "rules": [
            {"conditions": {str(a): b for a, b in enumerate(bins)}, "decision": decision,
             "support": support, "confidence": confidence, "certain": confidence == 1.0}
            for bins, decision, support, confidence in zip(
                rules.conditions.tolist(), rules.decisions.tolist(),
                rules.supports.tolist(), rules.confidences.tolist())
        ],
        "default_decision": rules.default_decision,
        "attribute_bin_counts": list(rules.attribute_bin_counts),
    }


def ruleset_from_json(payload: dict) -> RuleSet:
    """Rebuild the rules of ``ruleset_to_json``; a malformed rule raises ValueError. Only the layout
    is checked here: every field goes to ``RuleSet`` as written, as it would from Python."""
    counts = _bin_counts(payload["attribute_bin_counts"])
    entries = payload["rules"]
    conditions = [{int(a): b for a, b in entry["conditions"].items()} for entry in entries]
    for i, (entry, bins) in enumerate(zip(entries, conditions)):
        if sorted(bins) != list(range(len(counts))) or len(bins) < len(entry["conditions"]):  # "00" is "0" again
            raise ValueError(f"rule {i}: conditions must name attributes 0..{len(counts) - 1} once each")
        if bool(entry["certain"]) != (entry["confidence"] == 1.0):
            raise ValueError(f"rule {i}: certain flag disagrees with confidence {entry['confidence']!r}")
    rows = [[bins[a] for a in range(len(counts))] for bins in conditions] or np.empty((0, len(counts)), dtype=np.int64)
    return RuleSet(rows, [entry["decision"] for entry in entries], [entry["support"] for entry in entries],
                   [entry["confidence"] for entry in entries], payload["default_decision"], counts)

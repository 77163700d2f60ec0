"""Indiscernibility partitions, approximations, rule induction, classification.

The oracle functions here re-derive every set from first principles with
plain pairwise comparisons, so the vectorized implementations are checked
against an independent construction rather than against themselves. The
dict_* references are per-row dict loops, checked against with hypothesis.
``unique_group_rows`` and ``searchsorted_find`` keep the earlier
formulations of the row grouping (``np.unique``'s stable sort) and of the key
lookup (a binary search per unsorted query) as references for the sorted ones.
"""

import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from roughcut import (
    DiscretizedTable,
    Partition,
    RuleSet,
    approximate,
    classify_table,
    induce_rules,
    membership,
    partition,
    ruleset_from_json,
    ruleset_to_json,
)
import roughcut.roughset as roughset
from roughcut.roughset import KEY_LIMIT, _group_rows, _row_keys


def brute_partition(bins, attrs):
    """Group objects by pairwise agreement on the projected attributes."""
    n = len(bins)
    classes = []
    seen = set()
    for i in range(n):
        if i in seen:
            continue
        group = frozenset(
            j for j in range(n) if all(bins[j][a] == bins[i][a] for a in attrs)
        )
        seen |= group
        classes.append(group)
    return classes


def brute_approximations(classes, decisions, target):
    members_of_x = {i for i, d in enumerate(decisions) if d == target}
    lower = set()
    upper = set()
    for cls in classes:
        if cls <= members_of_x:
            lower |= cls
        if cls & members_of_x:
            upper |= cls
    return frozenset(lower), frozenset(upper)


def brute_membership(classes, decisions, obj, target):
    for cls in classes:
        if obj in cls:
            return sum(1 for j in cls if decisions[j] == target) / len(cls)
    raise AssertionError("object not found in any class")


def disc(bins, decisions, n_bins=3):
    bins = np.asarray(bins, dtype=np.int64)
    return DiscretizedTable(bins, np.asarray(decisions, dtype=np.int64), (n_bins,) * bins.shape[1])


def random_instance(rng, max_objects=50):
    n = int(rng.integers(1, max_objects + 1))
    m = int(rng.integers(1, 5))
    bins = rng.integers(0, 3, size=(n, m))
    decisions = rng.integers(0, 2, size=n)
    return disc(bins, decisions)


def test_partition_exact_match_grouping():
    table = disc([[0, 1], [0, 1], [1, 0]], [1, 1, 0])
    part = partition(table, [0, 1])
    assert set(part.classes) == {frozenset({0, 1}), frozenset({2})}


def test_partition_projection_on_subset():
    table = disc([[0, 2], [1, 1], [0, 0]], [1, 0, 1])
    part = partition(table, [0])
    assert set(part.classes) == {frozenset({0, 2}), frozenset({1})}


def test_partition_class_of_is_consistent():
    rng = np.random.default_rng(301)
    table = random_instance(rng)
    part = partition(table, range(table.n_attributes))
    for i in range(table.n_objects):
        assert i in part.classes[part.class_of[i]]


def test_partition_matches_bruteforce():
    rng = np.random.default_rng(302)
    for _ in range(40):
        table = random_instance(rng)
        size = int(rng.integers(1, table.n_attributes + 1))
        attrs = sorted(rng.choice(table.n_attributes, size=size, replace=False).tolist())
        part = partition(table, attrs)
        expected = brute_partition(table.bins.tolist(), attrs)
        assert set(part.classes) == set(expected)


def test_partition_validation():
    table = disc([[0]], [1])
    with pytest.raises(ValueError):
        partition(table, [])
    with pytest.raises(ValueError):
        partition(table, [1])
    # unchecked, int(0.5) truncated it and the table was partitioned on attribute 0
    with pytest.raises(ValueError, match=r"^attribute 0\.5 is not an integer$"):
        partition(table, [0.5])
    assert partition(table, [0.0, np.int64(0)]).classes == partition(table, [0]).classes


def test_partition_reads_class_of_as_integers():
    # unchecked, 0.7 was truncated to class 0 and "1" parsed as class 1
    for class_of, message in (([0.7], r"^object 0: class 0\.7 is not an integer$"),
                              (["1"], r"^object 0: class '1' is not an integer$"),
                              ([0, "1"], r"^object 1: class '1' is not an integer$"),
                              # unchecked, membership raised IndexError and approximate numpy's bincount error
                              ([5], r"^object 0: class 5 is not in \[0, 1\)$"),
                              ([-1], r"^object 0: class -1 is not in \[0, 1\)$"),
                              ([0, 2**63], r"^object 1: class 9223372036854775808 is not in \[0, 1\)$"),
                              (0.7, "^class_of must have one entry per object$"),
                              ([[0]], "^class_of must have one entry per object$")):
        with pytest.raises(ValueError, match=message):
            Partition((frozenset({0}),), class_of)
    for class_of in ([0, 1], [0.0, 1.0], np.array([0, 1], dtype=np.uint8), np.array([0, 1], dtype=object)):
        stored = Partition((frozenset({0}), frozenset({1})), class_of).class_of
        assert stored.dtype == np.int64 and stored.tolist() == [0, 1]


def test_approximate_crisp_set():
    table = disc([[0], [0], [1]], [1, 1, 0])
    part = partition(table, [0])
    approx = approximate(part, table.decisions, 1)
    assert approx.lower == frozenset({0, 1})
    assert approx.upper == frozenset({0, 1})
    assert approx.boundary == frozenset()
    assert approx.is_crisp


def test_approximate_fully_rough_set():
    table = disc([[0], [0]], [1, 0])
    part = partition(table, [0])
    approx = approximate(part, table.decisions, 1)
    assert approx.lower == frozenset()
    assert approx.upper == frozenset({0, 1})
    assert approx.boundary == frozenset({0, 1})
    assert not approx.is_crisp


def test_approximate_matches_bruteforce():
    rng = np.random.default_rng(303)
    for _ in range(40):
        table = random_instance(rng)
        part = partition(table, range(table.n_attributes))
        classes = brute_partition(table.bins.tolist(), range(table.n_attributes))
        for target in (0, 1):
            approx = approximate(part, table.decisions, target)
            lower, upper = brute_approximations(classes, table.decisions.tolist(), target)
            assert approx.lower == lower
            assert approx.upper == upper
            assert approx.boundary == upper - lower


def test_membership_direct_quotient():
    table = disc([[0], [0], [0]], [1, 1, 0])
    part = partition(table, [0])
    assert membership(part, table.decisions, 0, 1) == pytest.approx(2 / 3)


def test_membership_and_approximate_check_their_arguments():
    table = disc([[0], [0], [1]], [1, 0, 1])
    part = partition(table, [0])
    for decisions in ([1, 0], [0, 1, 0, 1, 1, 1]):
        with pytest.raises(ValueError, match="^decisions must have one entry per object$"):
            approximate(part, decisions, 1)
        with pytest.raises(ValueError, match="^decisions must have one entry per object$"):
            membership(part, decisions, 1, 1)
    # unchecked, -1 reads the last object and 3 raises IndexError
    for obj in (-1, 3):
        with pytest.raises(ValueError, match=f"object {obj} is not in"):
            membership(part, table.decisions, obj, 1)
    with pytest.raises(ValueError, match="object 1.5 is not an integer"):
        membership(part, table.decisions, 1.5, 1)
    assert membership(part, table.decisions, 2, 1) == 1.0


@pytest.mark.parametrize("target", [2, -1, 7, 0.5])
def test_membership_and_approximate_reject_a_target_outside_zero_and_one(target):
    # unchecked, no object carries such a label: three empty sets and membership 0.0
    table = disc([[0], [0], [1]], [1, 0, 1])
    part = partition(table, [0])
    message = f"^target must be 0 or 1, got {target!r}$"
    with pytest.raises(ValueError, match=message):
        approximate(part, table.decisions, target)
    with pytest.raises(ValueError, match=message):
        membership(part, table.decisions, 0, target)
    # the two classes, and the same values given as other numbers
    for good in (0, 1, True, 1.0, np.int64(0)):
        assert approximate(part, table.decisions, good) == approximate(part, table.decisions, int(good))
        # stored as a Python int, as RuleSet.default_decision is
        assert type(approximate(part, table.decisions, good).target_class) is int
        assert membership(part, table.decisions, 0, good) == membership(part, table.decisions, 0, int(good))


def test_membership_extremes_match_approximations():
    rng = np.random.default_rng(304)
    table = random_instance(rng)
    part = partition(table, range(table.n_attributes))
    approx = approximate(part, table.decisions, 1)
    for obj in range(table.n_objects):
        mu = membership(part, table.decisions, obj, 1)
        assert (mu == 1.0) == (obj in approx.lower)
        assert (mu == 0.0) == (obj not in approx.upper)


def test_membership_matches_bruteforce():
    rng = np.random.default_rng(305)
    for _ in range(20):
        table = random_instance(rng, max_objects=30)
        part = partition(table, range(table.n_attributes))
        classes = brute_partition(table.bins.tolist(), range(table.n_attributes))
        for obj in range(table.n_objects):
            for target in (0, 1):
                mu = membership(part, table.decisions, obj, target)
                assert mu == pytest.approx(
                    brute_membership(classes, table.decisions.tolist(), obj, target)
                )


def test_induce_one_rule_per_distinct_vector():
    table = disc([[0, 0], [0, 1], [1, 0], [1, 1]], [0, 1, 1, 0])
    rules = induce_rules(table)
    assert len(rules.rules) == 4


def test_induce_pure_class_is_certain():
    bins = [[1, 1]] * 5 + [[0, 0]]
    table = disc(bins, [1] * 5 + [0])
    rules = induce_rules(table)
    rule = rules.lookup((1, 1))
    assert rule.decision == 1
    assert rule.support == 5
    assert rule.confidence == 1.0
    assert rule.certain


def test_induce_mixed_class_confidence_is_membership():
    bins = [[2]] * 5 + [[0]]
    table = disc(bins, [1, 1, 1, 0, 0, 0])
    rules = induce_rules(table)
    rule = rules.lookup((2,))
    assert rule.decision == 1
    assert rule.confidence == pytest.approx(0.6)
    assert not rule.certain
    # the rule's confidence is exactly the rough membership of its members
    part = partition(table, [0])
    assert membership(part, table.decisions, 0, 1) == pytest.approx(rule.confidence)


def test_induce_certain_rules_are_lower_approximation_classes():
    rng = np.random.default_rng(306)
    for _ in range(20):
        table = random_instance(rng)
        if table.decisions.sum() in (0, table.n_objects):
            continue
        rules = induce_rules(table)
        part = partition(table, range(table.n_attributes))
        for rule in rules.rules:
            key = tuple(rule.conditions[a] for a in range(table.n_attributes))
            members = [
                i for i in range(table.n_objects)
                if tuple(table.bins[i].tolist()) == key
            ]
            approx = approximate(part, table.decisions, rule.decision)
            assert rule.certain == all(i in approx.lower for i in members)
            assert rule.support == len(members)


def test_induce_tie_breaks_toward_global_majority():
    # the [1] class is a 1-1 tie; the global majority decides it
    table = disc([[1], [1], [0], [0], [0]], [1, 0, 0, 0, 0])
    rules = induce_rules(table)
    assert rules.lookup((1,)).decision == 0
    assert rules.default_decision == 0

    table = disc([[1], [1], [0], [0], [0]], [1, 0, 1, 1, 1])
    rules = induce_rules(table)
    assert rules.lookup((1,)).decision == 1

    # a global tie favors the faulty class
    table = disc([[1], [1], [0], [0]], [1, 0, 1, 0])
    rules = induce_rules(table)
    assert rules.lookup((1,)).decision == 1
    assert rules.default_decision == 1


def test_induce_rejects_degenerate_tables():
    empty = DiscretizedTable(np.zeros((0, 1), dtype=np.int64), np.zeros(0, dtype=np.int64), (2,))
    with pytest.raises(ValueError, match="empty"):
        induce_rules(empty)
    single = disc([[0], [1]], [1, 1])
    with pytest.raises(ValueError, match="both decision classes"):
        induce_rules(single)


def test_classify_certain_match():
    table = disc([[1, 1]] * 3 + [[0, 0]], [1, 1, 1, 0])
    rules = induce_rules(table)
    decisions, scores = classify_table(rules, disc([(1, 1)], [0]))
    assert (decisions.tolist(), scores.tolist()) == ([1], [1.0])


def test_classify_fallback_is_neutral():
    table = disc([[0], [0], [1]], [0, 0, 1])
    rules = induce_rules(table)
    assert rules.default_decision == 0
    decisions, scores = classify_table(rules, disc([(2,)], [0]))
    assert (decisions.tolist(), scores.tolist()) == ([0], [0.5])


def test_classify_noncertain_score_is_one_minus_confidence():
    bins = [[1]] * 4 + [[0]]
    table = disc(bins, [0, 0, 0, 1, 1])
    rules = induce_rules(table)
    rule = rules.lookup((1,))
    assert rule.decision == 0
    assert rule.confidence == pytest.approx(0.75)
    (decision,), (score,) = classify_table(rules, disc([(1,)], [0]))
    assert decision == 0
    assert score == pytest.approx(0.25)


def test_classify_validates_input_vector():
    table = disc([[0], [1]], [0, 1])
    rules = induce_rules(table)
    with pytest.raises(ValueError, match="expected"):
        classify_table(rules, disc([(0, 1)], [0]))
    # the row length is checked first: a 2-bin row read against 1 count would index past it
    with pytest.raises(ValueError, match=r"expected 1 bins per object, got shape \(1, 2\)"):
        classify_table(rules, disc([(0, 5)], [0], n_bins=6))
    with pytest.raises(ValueError, match="out of range"):
        classify_table(rules, disc([(3,)], [0], n_bins=4))


def test_classify_table_rejects_out_of_range_bins():
    table = disc([[0], [1]], [0, 1])
    rules = induce_rules(table)
    bad = DiscretizedTable(np.array([[4]]), np.array([0]), (5,))
    with pytest.raises(ValueError, match="out of range"):
        classify_table(rules, bad)


def test_out_of_range_bins_do_not_alias_a_rule():
    # with counts (3, 3) the mixed-radix keys of (0, 5), (2, -1) and (1, 2) are all 5
    rules = RuleSet([[1, 2]], [1], [4], [1.0], 0, (3, 3))
    assert rules.lookup((1, 2)).support == 4
    assert rules.match([[1, 2], [1, 0]]).tolist() == [0, -1]
    with pytest.raises(ValueError, match=r"^object 0: bin index out of range for attribute 1 \(3 bins\)$"):
        rules.lookup((0, 5))
    with pytest.raises(ValueError, match=r"^object 0: bin index out of range for attribute 1 \(3 bins\)$"):
        rules.match([[0, 5], [1, 2], [2, -1]])
    with pytest.raises(ValueError, match=r"^object 1: bin index out of range for attribute 1 \(3 bins\)$"):
        rules.match([[1, 2], [2, -1]])
    with pytest.raises(ValueError, match="object 0: bin index out of range for attribute 1"):
        classify_table(rules, DiscretizedTable([[0, 5]], [0], (3, 6)))
    with pytest.raises(ValueError, match="out of range"):
        classify_table(rules, disc([(0, 5)], [0], n_bins=6))


def test_ruleset_rejects_duplicate_conditions():
    # rule {0: 1} -> 1 (support 2) and its duplicate {0: 1} -> 0 (support 1), both certain
    with pytest.raises(ValueError, match="duplicate"):
        RuleSet([[1], [1]], [1, 0], [2, 1], [1.0, 1.0], 1, (3,))


def test_ruleset_rejects_mismatched_arrays():
    with pytest.raises(ValueError, match="^decisions must have one entry per rule$"):
        RuleSet([[1], [2]], [1], [2, 1], [1.0, 1.0], 1, (3,))
    with pytest.raises(ValueError, match="^expected one condition row, support and confidence per rule$"):
        RuleSet([[1], [2]], [1, 0], [2], [1.0, 1.0], 1, (3,))
    with pytest.raises(ValueError, match=r"^expected 1 bins per rule, got shape \(1, 2\)$"):
        RuleSet([[1, 0]], [1], [2], [1.0], 1, (3,))


def test_ruleset_rejects_out_of_range_fields():
    def rules(decisions=(1, 0), supports=(2, 1), confidences=(1.0, 0.5), default=1):
        return RuleSet([[0], [1]], decisions, supports, confidences, default, (3,))

    assert rules().n_certain == 1
    cases = [
        ({"decisions": (1, 2)}, "rule 1: decisions entry 2 is not 0 or 1"),
        ({"supports": (0, 1)}, "rule 0: support 0"),
        ({"confidences": (1.0, float("nan"))}, "rule 1: confidence nan"),
        ({"confidences": (1.01, 0.5)}, "rule 0: confidence 1.01"),
        # unchecked, "0.5" was parsed and stored as 0.5
        ({"confidences": ("0.5", 1.0)}, r"^rule 0: confidence '0\.5' is not a number$"),
        ({"confidences": (1.0, None)}, r"^rule 1: confidence None is not a number$"),
        ({"default": 7}, "default_decision must be 0 or 1, got 7"),
        # unchecked, 2.7 was stored as 2, "3" as 3, a support past int64 raised OverflowError
        # and default_decision 0.5 was reported as outside {0, 1}
        ({"supports": (1, 2.7)}, r"^rule 1: support 2\.7 is not an integer$"),
        ({"supports": ("3", 1)}, r"^rule 0: support '3' is not an integer$"),
        ({"supports": (1, "3")}, r"^rule 1: support '3' is not an integer$"),
        ({"supports": np.array([1.0, np.nan])}, r"^rule 1: support nan is not an integer$"),
        ({"supports": (1, None)}, r"^rule 1: support None is not an integer$"),
        ({"supports": (1, -3.0)}, r"^rule 1: support -3 is not >= 1$"),
        ({"supports": (1, 2**63)}, r"^rule 1: support 9223372036854775808 is not < 2\*\*63$"),
        ({"supports": (2**64, 1)}, r"^rule 0: support 18446744073709551616 is not < 2\*\*63$"),
        ({"supports": np.array([1, 2**63], dtype=np.uint64)},
         r"^rule 1: support 9223372036854775808 is not < 2\*\*63$"),
        ({"supports": np.array([1, -3], dtype=np.int8)}, r"^rule 1: support -3 is not >= 1$"),
        ({"default": 0.5}, r"^default_decision 0\.5 is not an integer$"),
        ({"default": "1"}, r"^default_decision '1' is not an integer$"),
        ({"default": 2.0}, r"^default_decision must be 0 or 1, got 2$"),
    ]
    for changes, message in cases:
        with pytest.raises(ValueError, match=message):
            rules(**changes)


def test_ruleset_stores_integer_bin_counts_as_a_tuple_of_ints():
    with pytest.raises(ValueError, match="attribute_bin_counts entry 2.7 is not an integer"):
        RuleSet([[0]], [1], [1], [1.0], 0, (2.7,))
    for counts in ([3, 2], np.array([3, 2]), (3.0, 2)):
        rules = RuleSet([[0, 1]], [1], [1], [1.0], 0, counts)
        assert rules.attribute_bin_counts == (3, 2)
        assert [type(count) for count in rules.attribute_bin_counts] == [int, int]


def test_ruleset_stores_integral_supports_as_int64():
    def rules(supports):
        return RuleSet([[0], [1]], [1, 0], supports, [1.0, 0.5], 1, (3,))

    for supports in ([2, 1], [2.0, 1.0], (np.int64(2), True), np.array([2, 1], dtype=np.uint8),
                     np.array([2, 1], dtype=np.uint64), np.array([2, 1], dtype=object)):
        stored = rules(supports).supports
        assert stored.dtype == np.int64 and stored.tolist() == [2, 1]
    assert rules([2**63 - 1, 1]).supports.tolist() == [2**63 - 1, 1]


def test_ruleset_stores_default_decision_as_a_python_int():
    def rules(default):
        return RuleSet([[0]], [0], [1], [1.0], default, (2,))

    # unchecked, 1.0 made classify_table return float64 decisions and np.int64(1) broke json.dumps
    for default in (1, 1.0, np.int64(1), np.float64(1.0), True):
        stored = rules(default)
        assert type(stored.default_decision) is int and stored.default_decision == 1
        decisions, _ = classify_table(stored, disc([[1]], [1], n_bins=2))
        assert decisions.dtype == np.int64 and decisions.tolist() == [1]
        assert json.loads(json.dumps(ruleset_to_json(stored)))["default_decision"] == 1


def test_ruleset_from_json_rejects_malformed_rules():
    def payload(**changes):
        second = {"conditions": {"0": 2, "1": 0}, "decision": 0, "support": 3,
                  "confidence": 1.0, "certain": True}
        second.update(changes)
        first = {"conditions": {"0": 0, "1": 1}, "decision": 1, "support": 4,
                 "confidence": 0.75, "certain": False}
        return {"rules": [first, second], "default_decision": 1, "attribute_bin_counts": [3, 2]}

    assert ruleset_from_json(payload()).lookup((2, 0)).support == 3
    cases = [
        ({"conditions": {"0": 2}}, "rule 1: conditions"),
        ({"conditions": {"0": 2, "1": 0, "2": 0}}, "rule 1: conditions"),
        # unchecked, the two spellings of attribute 0 collapsed and the last one was kept
        ({"conditions": {"0": 2, "00": 1, "1": 0}}, "rule 1: conditions"),
        ({"conditions": {"0": 3, "1": 0}}, "rule 1: bin index out of range for attribute 0"),
        ({"conditions": {"0": 2, "1": -1}}, "rule 1: bin index out of range for attribute 1"),
        ({"certain": False}, "rule 1: certain"),
        ({"confidence": 0.5}, "rule 1: certain"),
        ({"decision": 2}, "rule 1: decisions entry 2 is not 0 or 1"),
        ({"decision": -1}, "rule 1: decisions entry -1 is not 0 or 1"),
        ({"support": -3}, "rule 1: support -3 is not >= 1"),
        ({"support": 0}, "rule 1: support 0 is not >= 1"),
        ({"confidence": 1.5, "certain": False}, r"rule 1: confidence 1.5 is not in \[0, 1\]"),
        ({"confidence": -0.25, "certain": False}, r"rule 1: confidence -0.25 is not in \[0, 1\]"),
        ({"decision": 1.5}, "rule 1: decisions entry 1.5 is not 0 or 1"),
        ({"decision": "1"}, "rule 1: decisions entry '1' is not 0 or 1"),
        ({"support": 2.7}, "rule 1: support 2.7 is not an integer"),
        ({"support": float("nan")}, "rule 1: support nan is not an integer"),
        ({"conditions": {"0": 0.9, "1": 0}}, "rule 1: bin 0.9 for attribute 0 is not an integer"),
        ({"conditions": {"0": 2, "1": "0"}}, "rule 1: bin '0' for attribute 1 is not an integer"),
        # a ragged bin row: unchecked, numpy's inhomogeneous-shape text was raised
        ({"conditions": {"0": 2, "1": [1]}}, r"rule 1: bin \[1\] for attribute 1 is not an integer"),
        # a confidence is not parsed from text, nor a None passed to float()
        ({"confidence": "1.0"}, "rule 1: certain flag disagrees with confidence '1.0'"),
        ({"confidence": "0.5", "certain": False}, "rule 1: confidence '0.5' is not a number"),
        ({"confidence": None, "certain": False}, "rule 1: confidence None is not a number"),
        # unchecked, each raised OverflowError from a cast to int64 before the range checks
        ({"support": 2**63}, r"rule 1: support 9223372036854775808 is not < 2\*\*63"),
        ({"support": 2**64}, r"rule 1: support 18446744073709551616 is not < 2\*\*63"),
        ({"conditions": {"0": 2, "1": 2**63}}, r"rule 1: bin index out of range for attribute 1 \(2 bins\)"),
        ({"conditions": {"0": 2**64, "1": 0}}, r"rule 1: bin index out of range for attribute 0 \(3 bins\)"),
    ]
    for changes, message in cases:
        with pytest.raises(ValueError, match=message):
            ruleset_from_json(payload(**changes))
    for default in (7, -1, 2):
        with pytest.raises(ValueError, match=f"default_decision must be 0 or 1, got {default}"):
            ruleset_from_json({**payload(), "default_decision": default})
    with pytest.raises(ValueError, match="default_decision 0.5 is not an integer"):
        ruleset_from_json({**payload(), "default_decision": 0.5})
    with pytest.raises(ValueError, match="attribute_bin_counts entry 2.5 is not an integer"):
        ruleset_from_json({**payload(), "attribute_bin_counts": [3, 2.5]})
    for counts, message in (([0, 2], r"entry 0: 0 is not in \[1, 2\*\*63\)"),
                            ([3, -1], r"entry 1: -1 is not in \[1, 2\*\*63\)"),
                            ([2**63, 2], r"entry 0: 9223372036854775808 is not in \[1, 2\*\*63\)")):
        with pytest.raises(ValueError, match="attribute_bin_counts " + message):
            ruleset_from_json({**payload(), "attribute_bin_counts": counts})
        with pytest.raises(ValueError, match="attribute_bin_counts " + message):
            ruleset_from_json({"rules": [], "default_decision": 0, "attribute_bin_counts": counts})
    widest = ruleset_from_json({"rules": [], "default_decision": 0, "attribute_bin_counts": [2**63 - 1, 1]})
    assert widest.attribute_bin_counts == (2**63 - 1, 1)
    # integral floats are the integers they spell
    assert ruleset_from_json(payload(decision=0.0, support=3.0)).lookup((2, 0)).support == 3
    # all three at once: the first bad rule field is reported
    with pytest.raises(ValueError, match="rule 1: decisions entry 2 is not 0 or 1"):
        ruleset_from_json({**payload(decision=2, support=-3), "default_decision": 7})


def test_rules_json_with_a_text_decision_names_its_rule(tmp_path):
    # the decisions [0, "1"] are read as given, so rule 1 is named, not rule 0 as text "0"
    rules = [{"conditions": {"0": 0}, "decision": 0, "support": 2, "confidence": 1.0, "certain": True},
             {"conditions": {"0": 1}, "decision": "1", "support": 1, "confidence": 1.0, "certain": True}]
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"rules": rules, "default_decision": 0, "attribute_bin_counts": [2]}))
    with pytest.raises(ValueError, match="^rule 1: decisions entry '1' is not 0 or 1$"):
        ruleset_from_json(json.loads(path.read_text()))


def test_ruleset_json_roundtrip():
    rng = np.random.default_rng(308)
    table = random_instance(rng)
    while table.decisions.sum() in (0, table.n_objects):
        table = random_instance(rng)
    rules = induce_rules(table)
    rebuilt = ruleset_from_json(ruleset_to_json(rules))
    assert rebuilt == rules
    assert rebuilt.rules == rules.rules
    assert rebuilt.default_decision == rules.default_decision
    assert rebuilt.attribute_bin_counts == rules.attribute_bin_counts
    probe = tuple(table.bins[0].tolist())
    assert rebuilt.lookup(probe) == rules.lookup(probe)


def dict_partition(bins):
    """Loop reference: one class per distinct row, in order of first appearance."""
    groups = {}
    for i, row in enumerate(map(tuple, bins.tolist())):
        groups.setdefault(row, []).append(i)
    return [frozenset(members) for members in groups.values()]


def dict_induce(bins, decisions):
    """Loop reference: (conditions, decision, support, confidence, certain) per rule, plus the default."""
    total_ones = int(decisions.sum())
    prior_winner = 1 if total_ones >= len(decisions) - total_ones else 0
    groups = {}
    for row, label in zip(map(tuple, bins.tolist()), decisions.tolist()):
        entry = groups.setdefault(row, [0, 0])
        entry[0] += 1
        entry[1] += label
    rules = []
    for key, (size, ones) in groups.items():
        zeros = size - ones
        decision = 1 if ones > zeros else 0 if zeros > ones else prior_winner
        confidence = (ones if decision == 1 else zeros) / size
        rules.append((dict(enumerate(key)), decision, size, confidence, confidence == 1.0))
    return rules, prior_winner


def dict_classify(payload, bins):
    """Loop reference: decisions and scores of a rules.json payload for each row."""
    n_attrs = len(payload["attribute_bin_counts"])
    index = {
        tuple(rule["conditions"][str(a)] for a in range(n_attrs)): rule
        for rule in payload["rules"]
    }
    decisions, scores = [], []
    for key in map(tuple, bins.tolist()):
        rule = index.get(key)
        if rule is None:
            decisions.append(payload["default_decision"])
            scores.append(0.5)
        else:
            decisions.append(rule["decision"])
            confidence = rule["confidence"]
            scores.append(confidence if rule["decision"] == 1 else 1.0 - confidence)
    return decisions, scores


def wide_table():
    """40 attributes x 3 bins: a mixed-radix int64 key (3**40 > 2**63) would overflow."""
    rng = np.random.default_rng(40)
    distinct = rng.integers(0, 3, size=(8, 40))
    distinct[0] = 2  # as a mixed-radix key: 3**40 - 1
    bins = distinct[np.arange(30) % 8]
    decisions = rng.integers(0, 2, size=30)
    return DiscretizedTable(bins, decisions, (3,) * 40)


WIDE = wide_table()
WIDE_QUERIES = np.vstack([WIDE.bins, np.ones((1, 40), dtype=np.int64)])
assert 3**40 > KEY_LIMIT > 3**39  # keys are renumbered once, before the last attribute

# Wide rows that share the 39-attribute prefix renumbered before the last
# attribute, or share everything but that prefix.
ZEROS = [0] * 40
LAST_DIFFERS = [0] * 39 + [1]
PREFIX_DIFFERS = [1] + [0] * 39


def wide_payload():
    """Certain class-1 rules at ZEROS and at (2, ..., 2, 1) with a class-0 default."""
    rules = [{"conditions": {str(a): b for a, b in enumerate(key)}, "decision": 1,
              "support": 2, "confidence": 1.0, "certain": True}
             for key in (ZEROS, [2] * 39 + [1])]
    return {"rules": rules, "default_decision": 0, "attribute_bin_counts": [3] * 40}


@st.composite
def bin_tables(draw, min_rows=0):
    # Few attributes and bins, so that cells often hold several objects.
    n_attrs = draw(st.integers(1, 3))
    n_bins = draw(st.integers(1, 3))
    n = draw(st.integers(min_rows, 40))
    bins = draw(hnp.arrays(np.int64, (n, n_attrs), elements=st.integers(0, n_bins - 1)))
    decisions = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    return DiscretizedTable(bins, decisions, (n_bins,) * n_attrs)


@st.composite
def rule_payloads_with_queries(draw):
    """A rules.json payload with distinct conditions, and bin rows to classify."""
    n_attrs = draw(st.integers(1, 4))
    n_bins = draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(0, n_bins - 1)] * n_attrs)
    keys = draw(st.lists(row, unique=True, max_size=12))
    rules = []
    for key in keys:
        confidence = draw(st.floats(0.5, 1.0))
        rules.append({
            "conditions": {str(a): b for a, b in enumerate(key)},
            "decision": draw(st.integers(0, 1)),
            "support": draw(st.integers(1, 20)),
            "confidence": confidence,
            "certain": confidence == 1.0,
        })
    payload = {
        "rules": rules,
        "default_decision": draw(st.integers(0, 1)),
        "attribute_bin_counts": [n_bins] * n_attrs,
    }
    queries = draw(hnp.arrays(np.int64, (draw(st.integers(0, 30)), n_attrs),
                              elements=st.integers(0, n_bins - 1)))
    return payload, queries


PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


@PROPERTY_SETTINGS
@given(table=bin_tables())
@example(table=WIDE)
def test_partition_matches_dict_reference(table):
    part = partition(table, range(table.n_attributes))
    expected = dict_partition(table.bins)
    assert list(part.classes) == expected
    assert part.class_of.tolist() == [
        next(c for c, members in enumerate(expected) if i in members)
        for i in range(table.n_objects)
    ]


@PROPERTY_SETTINGS
@given(table=bin_tables(min_rows=2))
@example(table=WIDE)
@example(table=DiscretizedTable([ZEROS, LAST_DIFFERS, PREFIX_DIFFERS, ZEROS], [0, 1, 1, 1], (3,) * 40))
def test_induce_rules_matches_dict_reference(table):
    assume(0 < table.decisions.sum() < table.n_objects)
    rules = induce_rules(table)
    expected, default = dict_induce(table.bins, table.decisions)
    observed = [(r.conditions, r.decision, r.support, r.confidence, r.certain) for r in rules.rules]
    assert observed == expected
    assert rules.default_decision == default


@PROPERTY_SETTINGS
@given(case=rule_payloads_with_queries())
@example(case=(ruleset_to_json(induce_rules(WIDE)), WIDE_QUERIES))
@example(case=({"rules": [], "default_decision": 1, "attribute_bin_counts": [3, 2]},
               np.array([[0, 1], [2, 0]])))
@example(case=(ruleset_to_json(induce_rules(WIDE)), np.zeros((0, 40), dtype=np.int64)))
@example(case=(wide_payload(), np.array([PREFIX_DIFFERS])))  # prefix absent from the rules
@example(case=(wide_payload(), np.array([LAST_DIFFERS])))  # prefix present, last bin not
@example(case=(wide_payload(), np.array([LAST_DIFFERS, ZEROS, PREFIX_DIFFERS, [2] * 39 + [1]])))
def test_classify_table_matches_dict_reference(case):
    payload, queries = case
    rules = ruleset_from_json(payload)
    table = DiscretizedTable(queries, np.zeros(len(queries)), tuple(payload["attribute_bin_counts"]))
    expected_decisions, expected_scores = dict_classify(payload, queries)
    decisions, scores = classify_table(rules, table)
    assert decisions.dtype == np.int64 and scores.dtype == np.float64
    assert decisions.tolist() == expected_decisions
    assert scores.tolist() == expected_scores


def test_a_bin_count_too_large_to_key_is_an_error():
    # After renumbering, five distinct first bins times 2**62 still pass KEY_LIMIT;
    # unchecked, the int64 keys of rows 0 and 4 wrapped to the same value.
    rows, counts = [[b, 5] for b in range(5)], (5, 2**62)
    message = f"bin count {2**62} is too large"
    with pytest.raises(ValueError, match=message):
        partition(DiscretizedTable(rows, [0, 1, 0, 1, 0], counts), [0, 1])
    with pytest.raises(ValueError, match=message):
        RuleSet(rows, [0, 1, 0, 1, 0], [1] * 5, [1.0] * 5, 0, counts)


def unique_group_rows(bins, counts):
    """Reference: grouping through np.unique's stable sort, renumbered by first appearance."""
    keys, _ = _row_keys(zip(bins.T, counts))
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    renumber = np.empty_like(order)
    renumber[order] = np.arange(order.size)
    return first[order], renumber[inverse.ravel()]


def searchsorted_find(distinct, keys):
    """Reference: each unsorted key binary-searched in ``distinct`` where it stands."""
    if not distinct.size:
        return np.full(keys.shape, -1, dtype=np.int64)
    at = np.minimum(np.searchsorted(distinct, keys), distinct.size - 1)
    return np.where(distinct[at] == keys, at, -1)


# 2**40 * 2**40 passes KEY_LIMIT, so two wide attributes force a renumbering.
KEYED_COUNTS = st.sampled_from([1, 2, 3, 2**40])


@st.composite
def repeated_rows(draw):
    """A bin matrix of 1-40 rows, each a copy of one of 1-6 drawn rows, and its bin counts."""
    counts = tuple(draw(st.lists(KEYED_COUNTS, min_size=1, max_size=4)))
    row = st.tuples(*[st.integers(0, c - 1) for c in counts])
    pool = draw(st.lists(row, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
    return np.array([pool[i] for i in picks], dtype=np.int64).reshape(len(picks), len(counts)), counts


@PROPERTY_SETTINGS
@given(case=repeated_rows())
@example(case=(np.array([[0, 0]]), (3, 3)))
@example(case=(WIDE.bins, WIDE.attribute_bin_counts))
@example(case=(np.array([[5, 1], [2, 0], [5, 1], [2, 0], [7, 1]]), (2**40, 2)))
def test_group_rows_matches_the_unique_reference(case):
    bins, counts = case
    first, cell_of = _group_rows(bins, counts)
    expected_first, expected_cell_of = unique_group_rows(bins, counts)
    assert first.tolist() == expected_first.tolist()
    assert cell_of.tolist() == expected_cell_of.tolist()


@PROPERTY_SETTINGS
@given(case=repeated_rows(), data=st.data())
@example(case=(WIDE.bins, WIDE.attribute_bin_counts), data=None)
def test_rule_keys_and_match_match_the_searchsorted_reference(case, data):
    bins, counts = case
    distinct = np.array(list(dict.fromkeys(map(tuple, bins.tolist()))), dtype=np.int64)
    distinct = distinct.reshape(-1, len(counts))
    if data is not None:
        distinct = distinct[data.draw(st.permutations(range(len(distinct))))]
    n = len(distinct)
    rules = RuleSet(distinct, np.arange(n) % 2, np.ones(n), np.ones(n), 0, counts)

    keys, _ = _row_keys(zip(distinct.T, counts))
    expected_keys, expected_positions = np.unique(keys, return_index=True)
    assert rules._keys.tolist() == expected_keys.tolist()
    assert rules._positions.tolist() == [*expected_positions.tolist(), -1]

    # Rule rows and rows that are no rule, repeated and in drawn order.
    absent = (distinct + 1) % np.asarray(counts)
    candidates = np.vstack([distinct, absent, bins])
    if data is None:
        queries = candidates[np.arange(2 * len(candidates)) % len(candidates)]
    else:
        picks = data.draw(st.lists(st.integers(0, len(candidates) - 1), max_size=60))
        queries = candidates[np.asarray(picks, dtype=np.int64)].reshape(len(picks), len(counts))
    with mock.patch.object(roughset, "_find", searchsorted_find):
        expected = rules.match(queries)
    assert rules.match(queries).tolist() == expected.tolist()
    on_rule = [tuple(q) in set(map(tuple, distinct.tolist())) for q in queries.tolist()]
    assert (expected >= 0).tolist() == on_rule

    # A row with a bin just outside [0, count), or holding an int64 extreme
    # whose key would wrap, raises instead of matching, and is named.
    last = len(counts) - 1
    for attr, bad in ((last, counts[-1]), (0, -1), (0, np.iinfo(np.int64).max), (last, np.iinfo(np.int64).min)):
        row = distinct[-1].copy()
        row[attr] = bad
        at = len(queries) // 2
        message = rf"^object {at}: bin index out of range for attribute {attr} \({counts[attr]} bins\)$"
        with pytest.raises(ValueError, match=message):
            rules.match(np.insert(queries, at, row, axis=0))

    with pytest.raises(ValueError, match="duplicate rule conditions"):
        RuleSet(np.vstack([distinct, distinct[-1:]]), np.zeros(n + 1), np.ones(n + 1),
                np.ones(n + 1), 0, counts)


def raised(build):
    """The message of the ValueError ``build()`` raises, or None if it raises none."""
    try:
        build()
    except ValueError as error:
        return str(error)
    return None


@st.composite
def flawed_bin_matrices(draw):
    """Distinct bin rows with their counts, and the flaw drawn into them.

    The flaw is one bin out of range, one bin that is not an integer (the
    matrix is then float), one bin given as text (the matrix is then a plain
    list of lists mixing ints and strings), one bad count, or none.
    """
    counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    rows = draw(st.lists(st.tuples(*[st.integers(0, c - 1) for c in counts]), min_size=1, max_size=8, unique=True))
    bins = np.array(rows, dtype=np.int64).reshape(len(rows), len(counts))
    flaw = draw(st.sampled_from(["none", "bin", "fraction", "text", "count"]))
    attr = draw(st.integers(0, len(counts) - 1))
    if flaw == "bin":
        bad = st.sampled_from([-1, counts[attr], counts[attr] + 7, -2**63, 2**63 - 1])
        bins[draw(st.integers(0, len(rows) - 1)), attr] = draw(bad)
    elif flaw == "fraction":
        bins = bins.astype(np.float64)
        bins[draw(st.integers(0, len(rows) - 1)), attr] = draw(st.sampled_from([0.5, 1.9, np.nan, np.inf]))
    elif flaw == "text":
        bins = bins.tolist()
        bins[draw(st.integers(0, len(rows) - 1))][attr] = draw(st.sampled_from(["0", "1", "x", ""]))
    elif flaw == "count":
        counts[attr] = draw(st.sampled_from([0, -1, 2**63, 2**64, 2.7, float("nan")]))
    return bins, tuple(counts), flaw


@PROPERTY_SETTINGS
@given(case=flawed_bin_matrices())
@example(case=(np.zeros((3, 0), dtype=np.int64), (), "count"))
@example(case=(np.array([[0, 1], [2, 0]]), (3, 2**64), "count"))
@example(case=(np.array([[0.0, 1.0], [1.9, 0.0]]), (3, 2), "fraction"))
@example(case=([[0, 1], [2, "0"]], (3, 2), "text"))
def test_tables_and_rule_sets_reject_a_bin_matrix_alike(case):
    bins, counts, flaw = case
    n = len(bins)
    table_error = raised(lambda: DiscretizedTable(bins, np.arange(n) % 2, counts))
    rule_error = raised(lambda: RuleSet(bins, np.arange(n) % 2, np.ones(n), np.ones(n), 0, counts))
    assert (table_error is None) == (flaw == "none")
    assert (rule_error is None) == (flaw == "none")
    if flaw != "none":
        assert table_error.replace("object", "rule") == rule_error
    if flaw == "fraction":
        assert table_error.endswith("is not an integer")
    if flaw == "text":
        row, attr = next((r, a) for r, line in enumerate(bins) for a, b in enumerate(line) if isinstance(b, str))
        assert table_error == f"object {row}: bin {bins[row][attr]!r} for attribute {attr} is not an integer"
    if flaw == "count":
        return
    # match and classify_table read their query bins by the same rule.
    rules = RuleSet(np.zeros((1, len(counts))), [0], [1], [1.0], 0, counts)
    assert raised(lambda: rules.match(bins)) == table_error
    if flaw not in ("fraction", "text") and 0 <= bins.min() and bins.max() < 2**62:
        # a table with wider counts holds the bins, which the rules' counts reject
        wide = tuple(max(c, int(b) + 1) for c, b in zip(counts, bins.max(axis=0)))
        table = DiscretizedTable(bins, np.arange(n) % 2, wide)
        assert raised(lambda: classify_table(rules, table)) == table_error


BIN_DTYPES = (np.uint8, np.uint16, np.uint64, np.int8, np.int64, np.bool_, np.float64)


def laid_out(bins, dtype, layout):
    """The int64 matrix ``bins`` cast to ``dtype``: C-ordered, F-ordered or a strided
    slice of a larger array. None when ``dtype`` cannot hold every bin."""
    cast = bins.astype(dtype)
    if not np.array_equal(cast.astype(np.int64), bins):
        return None
    if layout == "F":
        return np.asfortranarray(cast)
    if layout == "slice":
        spread = np.zeros((2 * len(bins) + 1, 3 * bins.shape[1]), dtype=dtype)
        spread[1::2, ::3] = cast
        return spread[1::2, ::3]
    return np.ascontiguousarray(cast)


def bin_paths(bins, decisions, counts, rules):
    """What each checked path makes of a bin matrix: its arrays, with dtype and shape, or its ValueError."""
    def arrays(*results):
        return [(a.dtype.str, a.shape, a.tolist()) for a in results]

    def rule_set():
        return RuleSet(bins, decisions, np.ones(len(bins)), np.ones(len(bins)), 0, counts)

    got = {"match": raised(lambda: rules.match(bins)) or arrays(rules.match(bins)),
           "rule set": raised(rule_set) or arrays(rule_set().conditions, rule_set().match(bins))}
    table_error = raised(lambda: DiscretizedTable(bins, decisions, counts))
    if table_error:
        return {**got, "table": table_error}
    table = DiscretizedTable(bins, decisions, counts)
    induced = raised(lambda: induce_rules(table)) or arrays(*(
        getattr(induce_rules(table), name) for name in ("conditions", "decisions", "supports", "confidences")))
    return {**got, "table": arrays(table.bins, table.decisions), "induced": induced,
            "classified": arrays(*classify_table(rules, table)),
            "stored": (table.bins.flags.f_contiguous, table.bins.flags.writeable)}


@st.composite
def bin_matrices_in_range_or_not(draw):
    """A bin matrix of 0-12 rows, its counts and decisions, and a rule set over the same counts.

    Bins are mostly in range, some at -1, at the count or past 255; counts
    straddle what bool, uint8 and uint16 can hold.
    """
    counts = tuple(draw(st.lists(st.sampled_from([1, 2, 3, 256, 257, 70000]), min_size=1, max_size=4)))
    bin_of = [st.integers(0, c - 1) | st.sampled_from([-1, c, 255, 256]) for c in counts]
    rows = draw(st.lists(st.tuples(*bin_of), max_size=12))
    bins = np.array(rows, dtype=np.int64).reshape(len(rows), len(counts))
    decisions = np.array(draw(st.lists(st.sampled_from([0, 1]), min_size=len(rows), max_size=len(rows))),
                         dtype=np.int64)
    # rules from the bins clipped into range, with a row of each class so both occur
    clipped = np.clip(np.vstack([bins, np.zeros((2, len(counts)), dtype=np.int64)]), 0, np.array(counts) - 1)
    rules = induce_rules(DiscretizedTable(clipped, [*decisions, 0, 1], counts))
    return bins, decisions, counts, rules


@PROPERTY_SETTINGS
@given(case=bin_matrices_in_range_or_not())
@example(case=(np.array([[255, 256], [0, 1]]), np.array([0, 1]), (256, 257),
               induce_rules(DiscretizedTable([[255, 256], [0, 1]], [0, 1], (256, 257)))))
def test_bin_paths_are_the_same_for_every_layout_and_dtype(case):
    bins, decisions, counts, rules = case
    expected = bin_paths(bins, decisions, counts, rules)
    if "stored" in expected:
        assert expected["stored"] == (True, False)  # int64, column-major, read-only
    for dtype, layout in itertools.product(BIN_DTYPES, ("C", "F", "slice")):
        variant = laid_out(bins, dtype, layout)
        if variant is not None:
            assert variant.dtype == dtype
            assert bin_paths(variant, decisions, counts, rules) == expected, (dtype, layout)

"""Every table type stores its own read-only copy of the arrays it is given,
and compares by value.

Each case builds one type from a writable array of a field's own dtype.
Mutating that array afterwards must leave the stored field as it was and
the array writable, and writing to the stored field must raise. Two values
of one type are equal when each compared field is, entry by entry, and no
value of these types is hashable.
"""

import dataclasses

import numpy as np
import pytest

from roughcut import DecisionTable, DiscretizedTable, Partition, PheromoneModel, RuleSet

RULE_FIELDS = {"conditions": np.array([[0, 1], [2, 0]]), "decisions": np.array([1, 0]),
               "supports": np.array([4, 3]), "confidences": np.array([0.75, 1.0])}


def rule_set(**field):
    return RuleSet(**{**RULE_FIELDS, **field}, default_decision=1, attribute_bin_counts=(3, 2))


CASES = {
    "DecisionTable.values": (
        lambda a: DecisionTable(("a", "b"), a, [0, 1]), "values", np.array([[1.5, 2.0], [3.0, 4.0]])),
    "DecisionTable.decisions": (
        lambda a: DecisionTable(("a",), [[1.0], [2.0]], a), "decisions", np.array([0, 1])),
    "DiscretizedTable.bins": (
        lambda a: DiscretizedTable(a, [0, 1], (3, 2)), "bins", np.array([[0, 1], [2, 0]])),
    "DiscretizedTable.decisions": (
        lambda a: DiscretizedTable([[0], [1]], a, (2,)), "decisions", np.array([0, 1])),
    **{f"RuleSet.{name}": (lambda a, name=name: rule_set(**{name: a}), name, value)
       for name, value in RULE_FIELDS.items()},
    "Partition.class_of": (
        lambda a: Partition((frozenset({0, 2}), frozenset({1})), a), "class_of", np.array([0, 1, 0])),
    "PheromoneModel.tau": (PheromoneModel, "tau", np.linspace(0.5, 2.0, 2 * 99).reshape(2, 99)),
}


@pytest.mark.parametrize("case", CASES)
def test_constructor_stores_a_read_only_copy(case):
    build, field, given = CASES[case]
    given = given.copy()
    stored = getattr(build(given), field)
    assert stored.dtype == given.dtype
    expected = given.copy()
    assert given.flags.writeable
    given += 1
    assert np.array_equal(stored, expected)
    with pytest.raises(ValueError):
        stored[...] = expected


# Each type's fields, then one other valid value for every field it compares.
EQUALITY_CASES = {
    "DecisionTable": (
        DecisionTable, {"attribute_names": ("a", "b"), "values": [[1.5, 2.0], [3.0, 4.0]], "decisions": [0, 1]},
        {"attribute_names": ("a", "c"), "values": [[1.5, 2.0], [3.0, 4.5]], "decisions": [1, 1]}),
    "DiscretizedTable": (
        DiscretizedTable, {"bins": [[0, 1], [2, 0]], "decisions": [0, 1], "attribute_bin_counts": (3, 2)},
        {"bins": [[0, 1], [1, 0]], "decisions": [0, 0], "attribute_bin_counts": (4, 2)}),
    "RuleSet": (
        RuleSet, {**RULE_FIELDS, "default_decision": 1, "attribute_bin_counts": (3, 2)},
        {"conditions": [[0, 1], [1, 0]], "decisions": [1, 1], "supports": [4, 2], "confidences": [0.75, 0.5],
         "default_decision": 0, "attribute_bin_counts": (3, 3)}),
    "Partition": (
        Partition, {"classes": (frozenset({0, 2}), frozenset({1})), "class_of": [0, 1, 0]},
        {"classes": (frozenset({0}), frozenset({1, 2})), "class_of": [0, 1, 1]}),
    "PheromoneModel": (
        PheromoneModel, {"tau": np.ones((2, 99))}, {"tau": np.ones((2, 99)) + np.eye(2, 99)}),
}


@pytest.mark.parametrize("case", EQUALITY_CASES)
def test_equal_by_value_and_unhashable(case):
    build, given, changes = EQUALITY_CASES[case]
    value = build(**given)
    assert value == build(**given) and not value != build(**given)
    assert set(changes) == {f.name for f in dataclasses.fields(value) if f.compare}
    for name, changed in changes.items():
        other = build(**{**given, name: changed})
        assert value != other and not value == other, name
    # any other type, the other four types among them, compares unequal
    for other in [None, 1, given] + [make(**fields) for make, fields, _ in EQUALITY_CASES.values()]:
        if type(other) is not type(value):
            assert value != other and value.__eq__(other) is NotImplemented
    with pytest.raises(TypeError, match=f"^unhashable type: '{case}'$"):
        hash(value)


def test_decision_table_equality_ignores_n_dropped():
    table = DecisionTable(("a",), [[1.0], [2.0]], [0, 1])
    assert table == DecisionTable(("a",), [[1.0], [2.0]], [0, 1], n_dropped=3)

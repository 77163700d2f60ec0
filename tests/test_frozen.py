"""Every table type stores its own read-only copy of the arrays it is given.

Each case builds one type from a writable array of a field's own dtype.
Mutating that array afterwards must leave the stored field as it was and
the array writable, and writing to the stored field must raise.
"""

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

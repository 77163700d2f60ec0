"""Equal frequency binning, bin application, and the percentile grid."""

import json
import math
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from roughcut import (
    AcoParams,
    AntSolution,
    CutSet,
    DecisionTable,
    DiscretizedTable,
    PheromoneModel,
    RuleSet,
    apply_cuts,
    approximate,
    confusion,
    cuts_from_json,
    cuts_to_json,
    efb_cuts,
    initial_model,
    membership,
    partition,
    percentile_to_cut,
    percentile_value_grid,
    roc,
    update_pheromones,
)
from roughcut.aco import N_POSITIONS


def interior_cuts(raw, lo, hi):
    """The cut-keep rule as a loop: a raw cut becomes a cut when it lies
    strictly inside (lo, hi) and above the last cut kept."""
    kept = []
    for c in raw:
        if lo < c < hi and (not kept or c > kept[-1]):
            kept.append(c)
    return tuple(kept)


def make_table(columns):
    values = np.column_stack([np.asarray(c, dtype=np.float64) for c in columns])
    names = tuple(f"a{i}" for i in range(values.shape[1]))
    decisions = np.zeros(values.shape[0], dtype=np.int64)
    decisions[: len(decisions) // 2] = 1
    return DecisionTable(names, values, decisions)


def test_efb_hand_sortable_instance():
    table = make_table([[4.0, 1.0, 6.0, 3.0, 2.0, 5.0]])
    cuts = efb_cuts(table, 2)
    assert cuts.cuts_per_attribute == ((2.5, 4.5),)
    binned = apply_cuts(table, cuts)
    counts = np.bincount(binned.bins[:, 0], minlength=3)
    assert tuple(counts) == (2, 2, 2)


def test_efb_balance_on_random_tables():
    rng = np.random.default_rng(201)
    for _ in range(30):
        n = int(rng.integers(5, 81))
        m = int(rng.integers(1, 4))
        table = make_table([rng.normal(size=n) for _ in range(m)])
        binned = apply_cuts(table, efb_cuts(table, 2))
        for a in range(m):
            counts = np.bincount(binned.bins[:, a], minlength=3)
            assert counts.max() - counts.min() <= 1, (n, a, counts)


def test_efb_constant_attribute():
    table = make_table([[5.0, 5.0, 5.0, 5.0], [1.0, 2.0, 3.0, 4.0]])
    cuts = efb_cuts(table, 2)
    assert cuts.cuts_per_attribute[0] == ()
    binned = apply_cuts(table, cuts)
    assert (binned.bins[:, 0] == 0).all()
    assert binned.attribute_bin_counts == (1, 3)


def test_efb_collapses_duplicate_boundaries():
    # Both quantile boundaries fall inside the run of ones, so the two raw
    # midpoints coincide and only one cut survives.
    table = make_table([[0.0, 1.0, 1.0, 1.0, 1.0, 2.0]])
    cuts = efb_cuts(table, 2)
    assert cuts.cuts_per_attribute == ((1.0,),)


def test_efb_rejects_degenerate_inputs():
    table = make_table([[1.0, 2.0]])
    with pytest.raises(ValueError):
        efb_cuts(table, 0)
    single = make_table([[1.0]])
    with pytest.raises(ValueError):
        efb_cuts(single, 2)


def test_efb_reads_num_cuts_as_an_integer():
    table = make_table([np.arange(12.0)])
    with pytest.raises(ValueError, match="num_cuts 2.5 is not an integer"):
        efb_cuts(table, 2.5)
    assert efb_cuts(table, 2.0) == efb_cuts(table, 2) == CutSet(((3.5, 7.5),))
    # num_cuts past n - 1 is clamped to it; unclamped, 10**30 boundaries cannot be allocated
    every_gap = CutSet((tuple(np.arange(11) + 0.5),))
    for num_cuts in (11, 12, 36, 10**30, np.int64(2**62)):
        assert efb_cuts(table, num_cuts) == every_gap


def test_apply_cuts_ordering_and_boundary():
    cuts = CutSet(((2.5, 4.5),))
    table = make_table([[3.0, 2.5, 2.4999, 4.5, 9.0, 0.1]])
    binned = apply_cuts(table, cuts)
    # a value equal to a cut lands in the upper bin
    assert binned.bins[:, 0].tolist() == [1, 1, 0, 2, 2, 0]


def test_apply_cuts_checks_attribute_count():
    cuts = CutSet(((1.0,), (2.0,)))
    table = make_table([[0.0, 1.0]])
    with pytest.raises(ValueError, match="attributes"):
        apply_cuts(table, cuts)


def test_percentile_nearest_rank():
    table = make_table([[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]])
    assert percentile_to_cut(table, 0, 50) == 50.0
    assert percentile_to_cut(table, 0, 1) == 10.0
    assert percentile_to_cut(table, 0, 10) == 10.0
    assert percentile_to_cut(table, 0, 99) <= table.values[:, 0].max()


def test_percentile_constant_attribute():
    table = make_table([[7.0, 7.0, 7.0]])
    for p in (1, 50, 99):
        assert percentile_to_cut(table, 0, p) == 7.0


def test_percentile_bounds():
    table = make_table([[1.0, 2.0]])
    for p in (0, 100, -3):
        with pytest.raises(ValueError):
            percentile_to_cut(table, 0, p)
    # unchecked, -1 reads the last attribute and n_attributes raises IndexError
    for attribute in (-1, 1):
        with pytest.raises(ValueError, match=f"attribute {attribute} is not in"):
            percentile_to_cut(table, attribute, 50)
    with pytest.raises(ValueError, match="attribute 0.5 is not an integer"):
        percentile_to_cut(table, 0.5, 50)
    # unchecked, 1.5 raised numpy's IndexError and "50" a TypeError
    for p in (1.5, "50"):
        with pytest.raises(ValueError, match=f"^percentile {p!r} is not an integer$"):
            percentile_to_cut(table, 0, p)
    assert percentile_to_cut(table, 0, 50.0) == percentile_to_cut(table, 0, 50) == 1.0


def test_percentile_grid_matches_pointwise():
    rng = np.random.default_rng(202)
    table = make_table([rng.normal(size=37) for _ in range(2)])
    grid = percentile_value_grid(table)
    assert grid.shape == (2, 99)
    for a in range(2):
        assert (np.diff(grid[a]) >= 0).all()
        for p in (1, 17, 50, 83, 99):
            assert grid[a, p - 1] == percentile_to_cut(table, a, p)


def test_cutset_validation_and_bin_counts():
    with pytest.raises(ValueError, match="ascending"):
        CutSet(((2.0, 2.0),))
    with pytest.raises(ValueError, match="ascending"):
        CutSet(((3.0, 1.0),))
    # NaN compares false both ways, so it is neither ascending nor a cut.
    for bad in ((1.0, float("nan"), 0.5), (float("nan"),), (1.0, float("nan"))):
        with pytest.raises(ValueError, match="ascending"):
            CutSet(((0.0,), bad))
    with pytest.raises(ValueError, match="ascending"):
        cuts_from_json(json.loads('{"a": [NaN]}'), ("a",))
    # an infinite cut lies inside no attribute's (min, max)
    for bad in ((1.0, math.inf), (-math.inf,), (-math.inf, 0.0, math.inf)):
        with pytest.raises(ValueError, match="^attribute 0: cuts must be finite$"):
            CutSet((bad,))
    for payload in ('{"a": [Infinity]}', '{"a": [0.0, Infinity]}', '{"a": [-Infinity, 1.0]}'):
        with pytest.raises(ValueError, match="^attribute 0: cuts must be finite$"):
            cuts_from_json(json.loads(payload), ("a",))
    # a string is iterable: unchecked, "12" reads as the cuts (1.0, 2.0)
    for bad in ("12", b"12"):
        with pytest.raises(ValueError, match="sequence of numbers"):
            CutSet(((0.0,), bad))
    with pytest.raises(ValueError, match="attribute 0: cuts must be a sequence of numbers, not str"):
        cuts_from_json({"a": "12"}, ("a",))
    # unchecked, each of these raised TypeError
    for payload in ('{"a": 5}', '{"a": [null]}', '{"a": [[1.0]]}', '{"a": [1' + '0' * 400 + ']}'):
        with pytest.raises(ValueError, match="^attribute 0: cuts must be a sequence of numbers"):
            cuts_from_json(json.loads(payload), ("a",))
    cuts = CutSet(((1.0, 2.0), (5.0,), ()))
    assert cuts.n_attributes == 3
    assert cuts.bin_counts() == (3, 2, 1)


def test_cuts_json_roundtrip():
    cuts = CutSet(((1.5, 2.25), (), (7.0,)))
    names = ("x", "y", "z")
    payload = cuts_to_json(cuts, names)
    assert payload == {"x": [1.5, 2.25], "y": [], "z": [7.0]}
    assert cuts_from_json(payload, names) == cuts
    with pytest.raises(ValueError, match="missing"):
        cuts_from_json({"x": []}, names)


def test_discretized_table_validation():
    with pytest.raises(ValueError, match="out of range"):
        DiscretizedTable(np.array([[0], [3]]), np.array([0, 1]), (3,))
    with pytest.raises(ValueError):
        DiscretizedTable(np.array([[0], [1]]), np.array([0]), (2,))


def test_discretized_table_rejects_decisions_outside_zero_and_one():
    for decisions in ([0, 2], [0, -1]):
        with pytest.raises(ValueError, match=f"^object 1: decisions entry {decisions[1]} is not 0 or 1$"):
            DiscretizedTable([[0], [1]], decisions, (2,))


def test_every_label_check_rejects_and_accepts_the_same_labels():
    # Every reader of a 0/1 vector checks it through data._labels, as given,
    # so 0.5 is not truncated to 0 first, and with one message format.
    part = partition(DiscretizedTable([[0], [0]], [0, 1], (1,)), [0])
    readers = {
        "decisions": [
            lambda labels: DecisionTable(("a",), np.zeros((2, 1)), labels),
            lambda labels: DiscretizedTable([[0], [0]], labels, (1,)),
            lambda labels: approximate(part, labels, 1),
            lambda labels: membership(part, labels, 0, 1),
        ],
        "actuals": [
            lambda labels: confusion(np.array([0, 1]), labels),
            lambda labels: roc([0.9, 0.1], labels),
        ],
        "predictions": [lambda labels: confusion(labels, np.array([0, 1]))],
    }
    # a plain list that mixes numbers and text is read as given, not turned into text first
    for labels in (np.array([0, 2]), np.array([0, -1]), np.array([0, 0.5]), np.array([0, np.nan]),
                   np.array([0, "1"], dtype=object), np.array([0, None], dtype=object), [0, "1"], [0, None]):
        label = np.asarray(labels, dtype=object)[1]
        for name, builds in readers.items():
            for build in builds:
                with pytest.raises(ValueError, match=re.escape(f"object 1: {name} entry {label!r} is not 0 or 1")):
                    build(labels)
        with pytest.raises(ValueError, match=re.escape(f"rule 1: decisions entry {label!r} is not 0 or 1")):
            RuleSet([[0], [1]], labels, [1, 1], [1.0, 1.0], 0, (2,))
    for labels in ([0], [0, 1, 1], [[0, 1]]):
        for name in ("decisions", "actuals"):
            for build in readers[name]:
                with pytest.raises(ValueError, match=f"^{name} must have one entry per object$"):
                    build(labels)
        with pytest.raises(ValueError, match="^decisions must have one entry per rule$"):
            RuleSet([[0], [1]], labels, [1, 1], [1.0, 1.0], 0, (2,))
    # confusion counts the objects by its predictions, so only their shape is theirs to get wrong
    for predictions, name in (([[0, 1]], "predictions"), (0, "predictions"), ([0], "actuals")):
        with pytest.raises(ValueError, match=f"^{name} must have one entry per object$"):
            confusion(predictions, [0, 1])
    for dtype in (np.int64, np.float64, bool, object):
        labels = np.array([0, 1], dtype=dtype)
        assert DecisionTable(("a",), np.zeros((2, 1)), labels).decisions.tolist() == [0, 1]
        assert DiscretizedTable([[0], [0]], labels, (1,)).decisions.tolist() == [0, 1]
        assert RuleSet([[0], [1]], labels, [1, 1], [1.0, 1.0], 0, (2,)).decisions.tolist() == [0, 1]
        assert confusion(labels, labels) == confusion([0, 1], [0, 1])
        assert roc([0.9, 0.1], labels) == roc([0.9, 0.1], [0, 1])
        assert approximate(part, labels, 1) == approximate(part, [0, 1], 1)
        assert membership(part, labels, 1, 1) == 0.5


def read_reals(entries):
    """What each reader of a float vector makes of ``entries``, a plain list or a 1-D array:
    the floats it stores (for roc, the curve; for update_pheromones, the new tau) or its message."""
    n, listed = len(entries), isinstance(entries, list)
    column = [[entry] for entry in entries] if listed else entries[:, None]
    padding = [1.0] * (N_POSITIONS - n)
    tau = [list(entries) + padding] if listed else np.concatenate([entries, np.array(padding, entries.dtype)])[None]
    cuts = CutSet(((0.5,),))
    readers = {
        "value": lambda: DecisionTable(("a",), column, [0] * n).values[:, 0].tolist(),
        "tau": lambda: PheromoneModel(tau).tau[0, :n].tolist(),
        "score": lambda: roc(entries, [i % 2 for i in range(n)]),
        "confidence": lambda: RuleSet([[i] for i in range(n)], [0] * n, [1] * n, entries, 0, (n,)).confidences.tolist(),
        "cut": lambda: list(CutSet((entries,)).cuts_per_attribute[0]),
        "cost": lambda: update_pheromones(initial_model(1), [AntSolution(((50,),), cuts, cost) for cost in entries],
                                          AcoParams()).tau.tolist(),
    }
    read = {}
    for name, reader in readers.items():
        try:
            read[name] = reader()
        except ValueError as error:
            read[name] = str(error)
    return read


@st.composite
def real_vectors(draw):
    """Distinct ascending numbers in (0, 1] in a numeric array, an object array or a plain list,
    and, unless the form is numeric, one entry replaced by a flaw: text, None, a complex or an
    integer too large for a float. Returns the entries and the flaw's position (None if unflawed)."""
    entries = [k / 1000 for k in sorted(draw(st.sets(st.integers(1, 1000), min_size=2, max_size=8)))]
    form = draw(st.sampled_from(["float64", "float32", "object", "list", "mixed"]))
    if form == "mixed":  # numbers that are not floats: ints, Fractions and numpy scalars
        entries = [draw(st.sampled_from([e, Fraction(round(e * 1000), 1000), np.float32(e)])) for e in entries]
        entries = [1 if e == 1 else e for e in entries]
    at = None
    if form in ("object", "list", "mixed") and draw(st.booleans()):
        at = draw(st.integers(0, len(entries) - 1))
        entries[at] = draw(st.sampled_from(["1.5", None, "", 1 + 0j, 10**400]))
    if form in ("float64", "float32", "object"):
        entries = np.array(entries, dtype=form)
    return entries, at


@settings(max_examples=150, deadline=None)
@given(case=real_vectors())
@example(case=(["0.9", "0.1"], 0))
@example(case=([0.5, 10**400], 1))
@example(case=(np.array([0.25, None], dtype=object), 1))
def test_every_real_reader_rejects_and_accepts_the_same_entries(case):
    # Every reader of a float vector reads it through data._reals, as given: text is
    # not parsed, and a flawed entry is named by position with one message form.
    entries, at = case
    read = read_reals(entries)
    if at is None:
        floats = np.asarray(entries, dtype=np.float64)
        assert read == read_reals(floats)
        assert read["value"] == read["confidence"] == read["cut"] == read["tau"] == floats.tolist()
        return
    flaw = entries[at]
    rows = {"value": "object", "tau": "attribute 0", "score": "object", "confidence": "rule", "cut": "entry",
            "cost": "solution"}
    for name, row in rows.items():
        index = "" if name == "tau" else f" {at}"
        column = {"value": " for attribute 0", "tau": f" at position {at}"}.get(name, "")
        message = f"{row}{index}: {name} {flaw!r}{column} is not a number"
        if name == "cut":
            message = f"attribute 0: cuts must be a sequence of numbers; {message}"
        if name == "cost" and flaw is None:
            message = "all solutions must be evaluated before the pheromone update"
        assert read[name] == message


def test_discretized_table_names_the_first_out_of_range_bin():
    with pytest.raises(ValueError, match=r"^object 1: bin index out of range for attribute 0 \(3 bins\)$"):
        DiscretizedTable([[0], [3]], [0, 1], (3,))
    with pytest.raises(ValueError, match=r"^object 1: bin index out of range for attribute 1 \(2 bins\)$"):
        DiscretizedTable([[0, 1], [2, -1], [5, 0]], [0, 1, 0], (3, 2))


def test_bin_matrices_are_read_as_integers_without_a_numpy_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bins in ([[1.0, 0.0]], [[True, False]], np.array([[1, 0]], dtype=object),
                     np.array([[1, 0]], dtype=np.uint8)):
            stored = DiscretizedTable(bins, [0], (2, 2)).bins
            assert stored.dtype == np.int64 and stored.tolist() == [[1, 0]]
        # the first bin that is not an integer is named, by row and then attribute
        with pytest.raises(ValueError, match=r"^object 1: bin 0\.5 for attribute 0 is not an integer$"):
            DiscretizedTable([[0, 1], [0.5, 1], [1, np.nan]], [0, 1, 0], (2, 2))
        with pytest.raises(ValueError, match=r"^object 0: bin None for attribute 1 is not an integer$"):
            DiscretizedTable([[0, None]], [0], (2, 2))
        with pytest.raises(ValueError, match=r"^object 0: bin '1' for attribute 0 is not an integer$"):
            DiscretizedTable([["1", "0"]], [0], (2, 2))
        # a plain list mixing numbers and text: the text entry is named, not the number before it
        with pytest.raises(ValueError, match=r"^object 0: bin '1' for attribute 1 is not an integer$"):
            DiscretizedTable([[0, "1"]], [0], (2, 2))
        with pytest.raises(ValueError, match=r"^object 2: decisions entry '1' is not 0 or 1$"):
            DecisionTable(("a",), [[1.0], [2.0], [3.0]], [0, 1, "1"])
        # integral, but beyond int64: out of range, not a wrapped or saturated cast
        for bad in (1e30, -1e30, 2.0**63, 2**64, -2**64):
            with pytest.raises(ValueError, match=r"^object 0: bin index out of range for attribute 1 \(2 bins\)$"):
                DiscretizedTable([[0, bad]], [0], (2, 2))


@pytest.mark.parametrize("counts, message", [
    ((0,), r"attribute_bin_counts entry 0: 0 is not in \[1, 2\*\*63\)"),
    ((-1,), r"attribute_bin_counts entry 0: -1 is not in \[1, 2\*\*63\)"),
    ((2, 2**63), r"attribute_bin_counts entry 1: 9223372036854775808 is not in \[1, 2\*\*63\)"),
    ((2**64,), r"attribute_bin_counts entry 0: 18446744073709551616 is not in \[1, 2\*\*63\)"),
    ((2.7,), "attribute_bin_counts entry 2.7 is not an integer"),
    ((), "bin matrix must have at least one attribute"),
], ids=["zero", "negative", "2**63", "2**64", "fraction", "no attributes"])
def test_discretized_table_rejects_the_bin_counts_a_rule_set_rejects(counts, message):
    # Every bin is 0, in range for any valid count; the rule set's three
    # equal rows would be duplicates, so its counts must be checked first.
    bins = np.zeros((3, len(counts)), dtype=np.int64)
    with pytest.raises(ValueError, match=message) as rule_error:
        RuleSet(bins, [0, 1, 0], [1, 1, 1], [1.0, 1.0, 1.0], 0, counts)
    with pytest.raises(ValueError, match=message) as table_error:
        DiscretizedTable(bins, [0, 1, 0], counts)
    assert str(table_error.value) == str(rule_error.value)


@given(
    column=hnp.arrays(np.float64, st.integers(1, 60),
                      elements=st.integers(-3, 3).map(float) | st.floats(-1e6, 1e6)),
    picks=st.lists(st.integers(1, 99), min_size=1, max_size=6, unique=True).map(sorted),
)
def test_value_equal_to_a_cut_falls_in_the_upper_bin(column, picks):
    grid = percentile_value_grid(make_table([column]))[0]
    cuts = interior_cuts([grid[p - 1] for p in picks], column.min(), column.max())
    below = [np.nextafter(c, -np.inf) for c in cuts]
    probes = np.concatenate([column, cuts, below])
    bins = apply_cuts(make_table([probes]), CutSet((cuts,))).bins[:, 0]
    n = column.size
    assert bins[n:n + len(cuts)].tolist() == list(range(1, len(cuts) + 1))
    assert bins[n + len(cuts):].tolist() == list(range(len(cuts)))

    # The ACO's form: with rank = number of grid values <= v, the bin is the
    # number of kept picks p (those interior_cuts keeps) with rank >= p.
    kept = []
    for p in picks:
        if column.min() < grid[p - 1] < column.max() and (not kept or grid[p - 1] > grid[kept[-1] - 1]):
            kept.append(p)
    ranks = np.searchsorted(grid, probes, side="right")
    assert [grid[p - 1] for p in kept] == list(cuts)
    assert ((ranks[:, None] >= np.array(kept, dtype=np.int64)).sum(axis=1) == bins).all()


# Signed zeros, the smallest subnormal, the smallest normal and the largest
# magnitudes: the values where a comparison could round or lose a sign.
EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308)
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_VALUES)


@st.composite
def ragged_cut_tables(draw):
    """A table of 1-5 attributes and a CutSet with 0-8 cuts each, drawn independently.

    Each column mixes its cuts, the float just below each cut, edge values
    and arbitrary finite floats, so every cut boundary is probed from both sides.
    """
    n_attrs = draw(st.integers(1, 5))
    cuts = tuple(tuple(sorted(draw(st.sets(FINITE, max_size=8)))) for _ in range(n_attrs))
    n = draw(st.integers(1, 30))
    columns = []
    for attr_cuts in cuts:
        below = [float(np.nextafter(c, -np.inf)) for c in attr_cuts if c > -sys.float_info.max]
        pool = [*attr_cuts, *below, *EDGE_VALUES]
        value = st.sampled_from(pool) | FINITE
        columns.append(draw(st.lists(value, min_size=n, max_size=n)))
    return make_table(columns), CutSet(cuts)


@settings(max_examples=300, deadline=None)
@given(case=ragged_cut_tables())
@example(case=(make_table([[-0.0, 0.0, 5e-324, 1.0], [3.0, 1e308, -1e308, 2.0]]),
               CutSet(((), (-1.0, 0.0, 2.0, 1e308)))))
@example(case=(make_table([[1.0, 2.0, 3.0], [0.0, 2.0, 5.0]]), CutSet(((1.5, 2.5), (1.0,)))))
def test_apply_cuts_matches_searchsorted_per_attribute(case):
    table, cuts = case
    binned = apply_cuts(table, cuts)
    assert binned.bins.dtype == np.int64
    assert binned.bins.tolist() == searchsorted_bins(table, cuts).tolist()
    assert binned.attribute_bin_counts == cuts.bin_counts()


def searchsorted_bins(table, cuts):
    """The bins as one binary search per attribute: the number of its cuts <= each value."""
    return np.column_stack([
        np.searchsorted(np.asarray(attr_cuts, dtype=np.float64), table.values[:, a], side="right")
        for a, attr_cuts in enumerate(cuts.cuts_per_attribute)
    ])


def test_apply_cuts_bins_past_255_cuts_like_searchsorted():
    # 255 cuts make bins 0..255, 256 cuts make bins 0..256: the last bin one
    # byte holds, and the first it does not, beside a 0-cut and a 1-cut attribute
    rng = np.random.default_rng(214)
    cuts = CutSet((tuple(np.arange(255.0)), (), tuple(np.linspace(-1.0, 1.0, 256)), (0.5,)))
    columns = []
    for attr_cuts in cuts.cuts_per_attribute:
        below = np.nextafter(np.asarray(attr_cuts, dtype=np.float64), -np.inf)
        pool = np.concatenate([attr_cuts, below, EDGE_VALUES])
        columns.append(rng.permutation(np.resize(pool, 2 * 256 + len(EDGE_VALUES))))
    table = make_table(columns)
    binned = apply_cuts(table, cuts)
    assert binned.bins.dtype == np.int64
    assert binned.bins.tolist() == searchsorted_bins(table, cuts).tolist()
    assert binned.bins.max(axis=0).tolist() == [255, 0, 256, 1]
    assert binned.attribute_bin_counts == (256, 1, 257, 2)


def efb_oracle(table, num_cuts):
    """efb_cuts one attribute and one boundary at a time: the sorted column,
    boundary index Python round(n * q / (num_cuts + 1)) clamped to [1, n - 1],
    the midpoint of the two values straddling it, and the loop keep rule."""
    n = table.n_objects
    per_attribute = []
    for column in table.values.T:
        col = np.sort(column).tolist()
        raw = []
        for q in range(1, num_cuts + 1):
            b = min(max(round(n * q / (num_cuts + 1)), 1), n - 1)
            raw.append((col[b - 1] + col[b]) / 2.0)
        per_attribute.append(interior_cuts(raw, col[0], col[-1]))
    return per_attribute


@st.composite
def efb_tables(draw):
    """A table of 2-40 objects and 1-4 attributes, and a num_cuts in [1, 99].

    A column is constant, drawn from four tied values, or finite floats mixed
    with the edge values; the midpoint of 1e308 and the largest float
    overflows to inf.
    """
    n = draw(st.one_of(st.just(2), st.integers(2, 40)))
    value = st.sampled_from(EDGE_VALUES + (sys.float_info.max, -sys.float_info.max)) | FINITE
    column = st.one_of(
        value.map(lambda v: [v] * n),
        st.lists(st.sampled_from((-1.0, 0.0, 1.0, 2.0)), min_size=n, max_size=n),
        st.lists(value, min_size=n, max_size=n),
    )
    return make_table(draw(st.lists(column, min_size=1, max_size=4))), draw(st.integers(1, 99))


@settings(max_examples=300, deadline=None)
@given(case=efb_tables())
@example(case=(make_table([[-sys.float_info.max, -1e308, 1e308, sys.float_info.max]]), 3))
@example(case=(make_table([[5.0, 5.0], [1.0, 2.0]]), 99))
@example(case=(make_table([[1.0, 2.0, 3.0, 4.0, 5.0]]), 1))  # boundary 2.5 rounds half to even
@example(case=(make_table([[0.0, -0.0, -0.0, 0.0, 1.0, 1.0, 1.0]]), 6))
def test_efb_cuts_match_the_per_boundary_loop(case):
    table, num_cuts = case
    with np.errstate(over="ignore"):
        cuts = efb_cuts(table, num_cuts).cuts_per_attribute
    expected = efb_oracle(table, num_cuts)
    # float.hex tells -0.0 from 0.0, which == does not
    assert [[c.hex() for c in attr] for attr in cuts] == [[c.hex() for c in attr] for attr in expected]


def nearest_rank_grid(table):
    """percentile_value_grid one attribute and one percentile at a time: the
    math.ceil(p * n / 100)-th value of the sorted column (the first when
    that is 0), for p = 1..99."""
    n = table.n_objects
    grid = []
    for column in table.values.T:
        col = np.sort(column).tolist()
        grid.append([col[max(math.ceil(p * n / 100), 1) - 1] for p in range(1, 100)])
    return grid


@st.composite
def grid_tables(draw):
    """A table of 1-300 objects and 1-3 attributes.

    A column is constant, drawn from tied values (signed zeros among them),
    or finite floats mixed with the edge values.
    """
    n = draw(st.integers(1, 300))
    column = st.one_of(
        FINITE.map(lambda v: [v] * n),
        st.lists(st.sampled_from((-1.0, -0.0, 0.0, 1.0)), min_size=n, max_size=n),
        st.lists(FINITE, min_size=n, max_size=n),
    )
    return make_table(draw(st.lists(column, min_size=1, max_size=3)))


@settings(max_examples=200, deadline=None)
@given(table=grid_tables())
@example(table=make_table([[3.0]]))
@example(table=make_table([[-0.0, 0.0, 0.0, -0.0, 1.0] * 20, np.arange(100.0)]))  # p * n / 100 integral
@example(table=make_table([np.arange(300.0)[::-1], [1e308, -1e308, 5e-324] * 100]))
def test_percentile_grid_matches_the_nearest_rank_loop(table):
    grid = percentile_value_grid(table)
    assert grid.shape == (table.n_attributes, 99)
    # float.hex tells -0.0 from 0.0, which == does not
    assert [[v.hex() for v in row] for row in grid.tolist()] == \
        [[v.hex() for v in row] for row in nearest_rank_grid(table)]

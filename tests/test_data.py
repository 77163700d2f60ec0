"""Decision table construction, CSV round-trips, and train/test splitting.

The reference_* functions are the plain per-row CSV writer and loader that
write_csv and load_csv replaced; hypothesis checks the two against them.
The reference loader reads numbers with its own regular expression for the
CSV number grammar, not with load_csv's check.
"""

import csv
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import roughcut.data as data
from roughcut import (
    DecisionTable,
    SplitSpec,
    clip_outliers,
    default_profile,
    generate,
    load_csv,
    split,
    write_csv,
)


def make_table(values, decisions):
    values = np.asarray(values, dtype=np.float64)
    names = tuple(f"a{i}" for i in range(values.shape[1]))
    return DecisionTable(names, values, np.asarray(decisions, dtype=np.int64))


def test_load_csv_direct_parse(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("h2,ch4,label\n10.0,5.0,0\n900.0,400.0,1\n")
    table = load_csv(path)
    assert table.attribute_names == ("h2", "ch4")
    assert table.n_objects == 2
    assert table.n_attributes == 2
    np.testing.assert_array_equal(table.values, [[10.0, 5.0], [900.0, 400.0]])
    np.testing.assert_array_equal(table.decisions, [0, 1])
    assert table.n_dropped == 0


def test_load_csv_drops_incomplete_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,label\n1.0,2.0,0\n10.0,,1\n3.0,4.0,1\n")
    table = load_csv(path)
    assert table.n_objects == 2
    assert table.n_dropped == 1


def test_load_csv_drops_non_numeric_and_non_finite(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,label\n1.0,0\nyes,1\ninf,1\nnan,0\n2.0,1\n")
    table = load_csv(path)
    assert table.n_objects == 2
    assert table.n_dropped == 3


def test_load_csv_reads_only_the_csv_number_grammar(tmp_path):
    # float() reads each of these dropped cells as a number
    path = tmp_path / "t.csv"
    path.write_text("a,label\n1_000,1\n١٢,0\n１２,1\n\xa05,0\n +1.5e1\t,0\n", encoding="utf-8")
    table = load_csv(path)
    assert table.values.tolist() == [[15.0]]
    assert table.n_dropped == 4
    for label in ("0_0", "１", "\xa01"):
        path.write_text(f"a,label\n1.0,{label}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"t.csv:2: label {label!r} is not 0 or 1")):
            load_csv(path)


def test_load_csv_rejects_bad_label(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,label\n1.0,2\n")
    with pytest.raises(ValueError, match="label"):
        load_csv(path)


def test_load_csv_requires_label_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,c\n1.0,2.0,0\n")
    with pytest.raises(ValueError, match="label"):
        load_csv(path)


def test_load_csv_rejects_empty_and_all_dropped(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        load_csv(empty)
    hollow = tmp_path / "hollow.csv"
    hollow.write_text("a,label\nx,0\ny,1\n")
    with pytest.raises(ValueError, match="no usable data rows"):
        load_csv(hollow)


def test_csv_roundtrip_full_precision(tmp_path):
    table = generate(default_profile(), 2000, seed=3)
    path = tmp_path / "dga.csv"
    write_csv(table, path)
    loaded = load_csv(path)
    assert loaded == table
    assert loaded.n_dropped == 0


def test_write_csv_chunks_match_reference(tmp_path, monkeypatch):
    table = generate(default_profile(), 50, seed=4)
    monkeypatch.setattr(data, "CSV_CHUNK_ROWS", 7)
    write_csv(table, tmp_path / "chunked.csv")
    reference_write_csv(table, tmp_path / "reference.csv")
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_decision_table_validation():
    with pytest.raises(ValueError):
        DecisionTable(("a",), np.zeros((2, 2)), np.array([0, 1]))
    with pytest.raises(ValueError):
        DecisionTable(("a",), np.array([[np.inf]]), np.array([1]))
    with pytest.raises(ValueError):
        DecisionTable(("a",), np.array([[1.0], [2.0]]), np.array([0, 2]))
    with pytest.raises(ValueError):
        DecisionTable(("a",), np.array([[1.0], [2.0]]), np.array([0]))
    with pytest.raises(ValueError, match="duplicate attribute name 'a'"):
        DecisionTable(("a", "b", "a "), np.zeros((1, 3)), np.array([1]))
    with pytest.raises(ValueError, match="attribute name ' h2' has surrounding whitespace"):
        DecisionTable((" h2", "ch4"), np.zeros((1, 2)), np.array([1]))
    with pytest.raises(ValueError, match=r"attribute name 'ch4\\t' has surrounding whitespace"):
        DecisionTable(("h2", "ch4\t"), np.zeros((1, 2)), np.array([1]))
    with pytest.raises(ValueError, match="at least one condition attribute"):
        DecisionTable((), np.zeros((1, 0)), np.array([1]))
    with pytest.raises(ValueError, match="at least one object"):
        DecisionTable(("a",), np.zeros((0, 1)), np.zeros(0, dtype=np.int64))
    # values are read as given: unchecked, "1.5" was parsed and 10**400 raised a bare OverflowError
    with pytest.raises(ValueError, match=r"^object 0: value '1\.5' for attribute 0 is not a number$"):
        DecisionTable(("a",), [["1.5"], ["2.5"]], [0, 1])
    with pytest.raises(ValueError, match=r"^object 1: value '2\.5' for attribute 1 is not a number$"):
        DecisionTable(("a", "b"), [[1.0, 2.0], [3.0, "2.5"]], [0, 1])
    with pytest.raises(ValueError, match=re.escape(f"object 1: value {10**400} for attribute 0 is not a number")):
        DecisionTable(("a",), [[1.0], [10**400]], [0, 1])
    # ragged rows are read as Python objects: unchecked, numpy's inhomogeneous-shape text was raised
    with pytest.raises(ValueError, match=r"^values must be a 2-D array of shape \(n_objects, n_attributes\)$"):
        DecisionTable(("a", "b"), [[1.0, 2.0], [3.0]], [0, 1])
    with pytest.raises(ValueError, match=r"^object 1: value \[4\.0\] for attribute 1 is not a number$"):
        DecisionTable(("a", "b"), [[1.0, 2.0], [3.0, [4.0]]], [0, 1])


def test_decision_table_is_immutable():
    table = make_table([[1.0], [2.0]], [0, 1])
    with pytest.raises(ValueError):
        table.values[0, 0] = 9.0
    with pytest.raises(ValueError):
        table.decisions[0] = 1


def test_class_counts():
    table = make_table([[1.0], [2.0], [3.0]], [0, 1, 1])
    assert table.class_counts() == (1, 2)


def test_split_sizes_at_experiment_scale():
    table = generate(default_profile(), 2000, seed=0)
    train, test = split(table, SplitSpec(train_fraction=0.7, seed=0))
    assert train.n_objects == 1400
    assert test.n_objects == 600


def test_split_deterministic():
    rng = np.random.default_rng(11)
    table = make_table(rng.normal(size=(10, 2)), [0, 1] * 5)
    spec = SplitSpec(train_fraction=0.5, seed=4)
    first = split(table, spec)
    second = split(table, spec)
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_split_preserves_all_rows():
    rng = np.random.default_rng(12)
    table = make_table(rng.normal(size=(23, 3)), rng.integers(0, 2, 23))
    train, test = split(table, SplitSpec(train_fraction=0.6, seed=9))
    assert train.n_objects + test.n_objects == 23
    combined = np.vstack([train.values, test.values])
    key = np.lexsort(combined.T)
    original_key = np.lexsort(table.values.T)
    np.testing.assert_array_equal(combined[key], table.values[original_key])


def test_split_retries_until_both_classes_present():
    # 2 objects per class at a 50/50 split: many shuffles put both ones on
    # one side, so the retry loop has to engage for some seeds.
    table = make_table([[1.0], [2.0], [3.0], [4.0]], [0, 0, 1, 1])
    for seed in range(20):
        train, test = split(table, SplitSpec(train_fraction=0.5, seed=seed))
        assert 0 < train.decisions.sum() < train.n_objects
        assert 0 < test.decisions.sum() < test.n_objects


def test_split_rejects_scarce_classes():
    table = make_table([[1.0], [2.0], [3.0]], [0, 1, 1])
    with pytest.raises(ValueError, match="at least 2 objects"):
        split(table, SplitSpec(train_fraction=0.5, seed=0))


@pytest.mark.parametrize("fraction, side, size", [(0.01, "train", 0), (0.1, "train", 1), (0.9, "test", 1),
                                                  (0.99, "test", 0)])
def test_split_rejects_a_side_too_small_for_both_classes(fraction, side, size):
    # unchecked, a side of 1 object was reshuffled MAX_SPLIT_RETRIES times before split gave up
    table = make_table(np.arange(10.0)[:, None], [0, 1] * 5)
    message = f"train_fraction {fraction} leaves {size} of 10 objects on the {side} side, which needs at least 2"
    with pytest.raises(ValueError, match=f"^{re.escape(message)} to hold both classes$"):
        split(table, SplitSpec(train_fraction=fraction, seed=0))
    train, test = split(table, SplitSpec(train_fraction=0.2, seed=0))
    assert (train.n_objects, test.n_objects) == (2, 8)


def test_split_gives_up_after_its_retries():
    # 2 train objects of 100,000, 2 of them faulty: about one shuffle in 25,000 puts exactly one
    # faulty object on the train side, so all MAX_SPLIT_RETRIES shuffles leave it single-class
    table = make_table(np.zeros((100_000, 1)), [1, 1] + [0] * 99_998)
    message = f"^could not produce a two-class split in {data.MAX_SPLIT_RETRIES} attempts$"
    with pytest.raises(ValueError, match=message):
        split(table, SplitSpec(train_fraction=2e-5, seed=0))


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(train_fraction=0.0, seed=0)
    with pytest.raises(ValueError):
        SplitSpec(train_fraction=1.0, seed=0)
    with pytest.raises(ValueError):
        SplitSpec(train_fraction=0.5, seed=-1)
    # unchecked, split() raised numpy's TypeError
    for bad in (1.5, "1"):
        with pytest.raises(ValueError, match=f"^seed {re.escape(repr(bad))} is not an integer$"):
            SplitSpec(train_fraction=0.7, seed=bad)
    spec = SplitSpec(train_fraction=0.5, seed=4.0)
    assert spec.seed == 4 and type(spec.seed) is int
    # unchecked, text and None raised a bare TypeError
    for bad in ("0.5", None, 10**400):
        with pytest.raises(ValueError, match=f"^train_fraction {re.escape(repr(bad))} is not a number$"):
            SplitSpec(train_fraction=bad, seed=0)
    spec = SplitSpec(train_fraction=np.float32(0.5), seed=0)
    assert spec.train_fraction == 0.5 and type(spec.train_fraction) is float


def test_clip_outliers_winsorizes_extremes():
    rng = np.random.default_rng(13)
    values = rng.normal(size=(1000, 2))
    values[0, 0] = 1e9
    values[1, 1] = -1e9
    table = make_table(values, rng.integers(0, 2, 1000))
    clipped = clip_outliers(table)
    assert clipped.n_objects == 1000
    np.testing.assert_array_equal(clipped.decisions, table.decisions)
    for a in range(2):
        lo, hi = np.percentile(table.values[:, a], [0.5, 99.5])
        assert clipped.values[:, a].min() >= lo
        assert clipped.values[:, a].max() <= hi
    # interior values pass through untouched
    interior = (table.values[:, 0] > -1) & (table.values[:, 0] < 1)
    np.testing.assert_array_equal(clipped.values[interior, 0], table.values[interior, 0])


def reference_write_csv(table, path):
    """Row-by-row reference: csv.writer over repr of every value."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(table.attribute_names) + ["label"])
        for row, decision in zip(table.values, table.decisions):
            writer.writerow([repr(float(v)) for v in row] + [int(decision)])


# The CSV number grammar: ASCII digits, optional sign, point and exponent, surrounding whitespace.
SPACE = "[ \t\n\r\v\f]*"
NUMBER = re.compile(rf"{SPACE}[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?{SPACE}")


def reference_number(cell):
    """The value of a cell in the CSV number grammar, or None."""
    return float(cell) if NUMBER.fullmatch(cell) else None


def reference_load_csv(path):
    """Row-by-row reference: a list of parsed rows, checked cell by cell."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: file is empty") from None
        if len(header) < 2 or header[-1].strip() != "label":
            raise ValueError(f"{path}: last column must be named 'label'")
        names = tuple(name.strip() for name in header[:-1])
        rows, labels, dropped = [], [], 0
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} cells, got {len(cells)}")
            parsed = [reference_number(cell) for cell in cells[:-1]]
            if None in parsed or not all(np.isfinite(parsed)):
                dropped += 1
                continue
            label_value = reference_number(cells[-1])
            if label_value not in (0.0, 1.0):
                label_cell = cells[-1].strip(" \t\n\r\v\f")
                raise ValueError(f"{path}:{lineno}: label {label_cell!r} is not 0 or 1")
            rows.append(parsed)
            labels.append(int(label_value))
    if not rows:
        raise ValueError(f"{path}: no usable data rows")
    return DecisionTable(names, np.array(rows, dtype=np.float64),
                         np.array(labels, dtype=np.int64), n_dropped=dropped)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(names=st.lists(st.text(max_size=6), min_size=1, max_size=4))
@example(names=[" h2", "ch4"])
@example(names=["h2", "h2 "])
def test_every_accepted_table_roundtrips_its_names(tmp_path, names):
    try:
        table = DecisionTable(tuple(names), np.zeros((2, len(names))), np.array([0, 1]))
    except ValueError:
        assert len(set(names)) < len(names) or any(name != name.strip() for name in names)
        return
    path = tmp_path / "names.csv"
    write_csv(table, path)
    assert load_csv(path) == table


# Values whose repr is awkward: signed zero, subnormals, the extremes, exponents.
AWKWARD = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1e308,
           1.7976931348623157e308, 1e16, 1e-05, 0.1, 123456789012345680.0]

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None,
                             suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def finite_tables(draw):
    """A table of arbitrary finite float64 values holding both decisions."""
    names = draw(st.lists(st.sampled_from(["h2", "ch4", "c,o", 'q"t', "x y", "c2h6"]),
                          min_size=1, max_size=4, unique=True))
    n_rows = draw(st.integers(0, 12))
    elements = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(AWKWARD))
    values = draw(hnp.arrays(np.float64, (n_rows + 2, len(names)), elements=elements))
    decisions = [0, 1] + draw(st.lists(st.integers(0, 1), min_size=n_rows, max_size=n_rows))
    return DecisionTable(tuple(names), values, np.array(decisions))


@PROPERTY_SETTINGS
@given(table=finite_tables())
@example(table=DecisionTable(("a", "b"), np.array(AWKWARD).reshape(-1, 2), np.arange(6) % 2))
def test_csv_roundtrip_is_bit_exact(tmp_path, table):
    path = tmp_path / "t.csv"
    write_csv(table, path)
    reference_write_csv(table, tmp_path / "reference.csv")
    assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()
    loaded = load_csv(path)
    assert loaded.attribute_names == table.attribute_names
    assert loaded.values.tobytes() == table.values.tobytes()
    np.testing.assert_array_equal(loaded.decisions, table.decisions)
    assert loaded.n_dropped == 0


VALUE_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-1000, 1000).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f" {v!r}\t"),
    st.sampled_from(["", " ", "nan", "NaN", "inf", "-inf", "1e999", "x", "1.5.2", "0x10", "1_0"]),
    # spellings float() reads but the CSV number grammar does not
    st.sampled_from(["1_000", " 1_0 ", "١٢", "１２", "\xa05", "5\u2003", "+.5e-3", "1.", "\v7\f"]),
)
LABEL_CELLS = st.sampled_from(["0", "1"] * 10 + ["1.0", "0.0", " 1", "0 ", "1e0"]
                              + ["2", "0.5", "-1", "x", "", "nan"]
                              + ["0_0", "1_0", "１", "٠", "\xa01", "1\u2003", "+1.", "\t0\v"])


@st.composite
def csv_texts(draw):
    """CSV text mixing good rows, droppable rows, blank lines and bad labels or widths."""
    names = draw(st.lists(st.sampled_from(["h2", "ch4", " co ", "co", "c2h2"]),
                          min_size=1, max_size=3, unique=True))
    label = draw(st.sampled_from(["label"] * 6 + [" label", "lbl"]))
    lines = [",".join(names + [label])]
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 30))
        if kind == 0:
            lines.append("")
            continue
        width = len(names) + (1 if kind == 1 else 0)
        cells = draw(st.lists(VALUE_CELLS, min_size=width, max_size=width))
        lines.append(",".join(cells + [draw(LABEL_CELLS)]))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


def load_outcome(loader, path):
    """The loaded table's names, value bits, decisions and drop count, or the error message."""
    try:
        table = loader(path)
    except ValueError as exc:
        return str(exc)
    return (table.attribute_names, table.values.shape, table.values.tobytes(),
            table.decisions.tolist(), table.n_dropped)


@PROPERTY_SETTINGS
@given(text=csv_texts())
@example(text="a,label\n1.0,0\nx,2\n2.0,1\n")  # a bad label on a dropped row is not read
@example(text="a,label\n1.0,0\n\n-0.0, 1.0 \n 5e-324 ,0.0\nnan,1\n,1\n")
@example(text="a,label\n1.0,0\n2.0,2\n")
@example(text="a,label\n1_000,1\n١٢,0\n１２,1\n\xa05,0\n2.0,1\n")
@example(text="a,label\n1.0,0_0\n")
@example(text="a,label\n1.0,１\n")
@example(text="a,b,label\n1.0,0\n")
@example(text="a,a,label\n1.0,2.0,0\n")
@example(text="")
def test_load_csv_matches_reference(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    assert load_outcome(load_csv, path) == load_outcome(reference_load_csv, path)

"""Decision tables: construction, CSV ingestion, and train/test splitting.

A decision table holds continuous condition attributes (gas concentrations
in ppm for DGA data) plus one binary decision column: 0 = healthy,
1 = faulty.
"""

from __future__ import annotations

import csv
import math
import numbers
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LABEL_COLUMN = "label"

# Bounded re-shuffle attempts before split() gives up on producing
# two-class train and test partitions.
MAX_SPLIT_RETRIES = 100

# write_csv formats and writes this many rows at a time, so the text of the
# whole table is never held at once.
CSV_CHUNK_ROWS = 8192

# The surrounding whitespace a CSV number may carry: the ASCII characters float() strips.
CSV_SPACE = " \t\n\r\v\f"

# The percentile range clip_outliers winsorizes each attribute to.
CLIP_PERCENTILES = (0.5, 99.5)


def _frozen(value, dtype) -> np.ndarray:
    """A read-only copy of ``value`` as an array of ``dtype``; the caller's array stays writable.

    A table is stored column-major (Fortran order), so each attribute's
    values, or bins, are one contiguous run.
    """
    array = np.array(value, dtype=dtype, order="F")
    array.setflags(write=False)
    return array


def _as_given(values, numeric: str, accepts, what: str, name: str, row_name: str, shape: tuple, shape_error: str,
              column: str = " for attribute {}") -> np.ndarray:
    """``values`` as given: an array of a dtype kind in ``numeric`` as it is, anything else as Python objects, so
    "1.5" is not parsed and does not turn the entries beside it into text. ValueError ``shape_error`` unless the
    shape is ``shape`` (None: any length), then naming the first entry the mask ``accepts(array)`` rejects."""
    given = np.asarray(values)
    if given.dtype.kind not in numeric:
        given = np.asarray(values, dtype=object)
    if given.ndim != len(shape) or any(size not in (None, got) for size, got in zip(shape, given.shape)):
        raise ValueError(shape_error.format(given.shape))
    ok = accepts(given)  # True for an array that needs no entry check
    if ok is not True and not ok.all():
        at = tuple(np.argwhere(~ok)[0].tolist())
        where = column.format(at[1]) if given.ndim == 2 else ""
        raise ValueError(f"{row_name} {at[0]}: {name} {given.item(at)!r}{where} is not {what}")
    return given


def _entrywise(test):
    """A mask of the entries ``test`` accepts in an array read as Python objects; a numeric one passes whole."""
    return lambda given: given.dtype.kind != "O" or np.frompyfunc(test, 1, 1)(given).astype(bool)


def _labels(labels, n: int, name: str, row_name: str) -> np.ndarray:
    """A read-only int64 copy of ``labels``, one 0 or 1 per ``row_name``, ``n`` in all, read by ``_as_given``,
    so 0.5 is rejected, not truncated to 0; ValueError names the first entry that is not 0 or 1."""
    return _frozen(_as_given(labels, "biuf", lambda given: (given == 0) | (given == 1), "0 or 1", f"{name} entry",
                             row_name, (n,), f"{name} must have one entry per {row_name}"), np.int64)


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer: an int, a bool, a numpy integer or a float with no fraction."""
    return isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())


def _integer(value, field_name: str) -> int:
    """``value`` as an int; anything but an integral number raises ValueError naming the field."""
    if _is_integer(value):
        return int(value)
    raise ValueError(f"{field_name} {value!r} is not an integer")


def _integers(values, name: str, row_name: str, shape: tuple, shape_error: str) -> np.ndarray:
    """``values`` of ``shape`` read by ``_as_given``: an integer dtype (bools too) as it is, the rest as Python ints."""
    given = _as_given(values, "biu", _entrywise(_is_integer), "an integer", name, row_name, shape, shape_error)
    return given if given.dtype.kind != "O" else np.frompyfunc(int, 1, 1)(given)


def _is_real(value) -> bool:
    """Whether ``value`` is a real number a float can hold: text, complex and 10**400 are not."""
    if not isinstance(value, numbers.Real):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _real(value, field_name: str) -> float:
    """``value`` as a float; anything but a real number a float can hold raises ValueError naming the field."""
    if _is_real(value):
        return float(value)
    raise ValueError(f"{field_name} {value!r} is not a number")


def _reals(values, name: str, row_name: str, shape: tuple, shape_error: str, column=" for attribute {}") -> np.ndarray:
    """``values`` of ``shape`` read by ``_as_given`` and cast to float64 (a float64 array is returned as itself);
    ValueError names the first entry that is not a number. Finiteness and range are the caller's to check."""
    given = _as_given(values, "biuf", _entrywise(_is_real), "a number", name, row_name, shape, shape_error, column)
    return np.asarray(given, dtype=np.float64)


@dataclass(frozen=True)
class DecisionTable:
    """Immutable table of objects x condition attributes plus a binary decision.

    ``values`` is (n_objects, n_attributes) float64, ``decisions`` is
    (n_objects,) int64 with entries in {0, 1}. Attribute names must be
    distinct and have no surrounding whitespace, which ``load_csv`` strips.
    ``n_dropped`` counts rows discarded during CSV ingestion; it is
    metadata, not table content.
    """

    attribute_names: tuple[str, ...]
    values: np.ndarray
    decisions: np.ndarray
    n_dropped: int = field(default=0, compare=False)

    def __post_init__(self):
        values = _reals(self.values, "value", "object", (None, None),
                        "values must be a 2-D array of shape (n_objects, n_attributes)")
        object.__setattr__(self, "values", _frozen(values, np.float64))
        if self.values.shape[0] == 0:
            raise ValueError("a decision table needs at least one object")
        if self.values.shape[1] == 0:
            raise ValueError("a decision table needs at least one condition attribute")
        if self.values.shape[1] != len(self.attribute_names):
            raise ValueError(
                f"row width {self.values.shape[1]} does not match "
                f"{len(self.attribute_names)} attribute names"
            )
        seen = set()
        for name in self.attribute_names:
            stripped = name.strip()
            if stripped in seen:
                raise ValueError(f"duplicate attribute name {stripped!r}")
            if stripped != name:
                raise ValueError(f"attribute name {name!r} has surrounding whitespace")
            seen.add(name)
        object.__setattr__(self, "decisions", _labels(self.decisions, self.values.shape[0], "decisions", "object"))
        if not np.all(np.isfinite(self.values)):
            raise ValueError("condition values must be finite")
        object.__setattr__(self, "attribute_names", tuple(self.attribute_names))

    @property
    def n_objects(self) -> int:
        return self.values.shape[0]

    @property
    def n_attributes(self) -> int:
        return self.values.shape[1]

    def class_counts(self) -> tuple[int, int]:
        """Return (count of decision 0, count of decision 1)."""
        ones = int(self.decisions.sum())
        return self.n_objects - ones, ones

    def __eq__(self, other):
        if not isinstance(other, DecisionTable):
            return NotImplemented
        return (
            self.attribute_names == other.attribute_names
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.decisions, other.decisions)
        )


@dataclass(frozen=True)
class SplitSpec:
    """Shuffled train/test split: fraction of objects for training plus seed."""

    train_fraction: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "train_fraction", _real(self.train_fraction, "train_fraction"))
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def load_csv(path: str | Path) -> DecisionTable:
    """Load a decision table from CSV.

    The header names the condition attributes; the final column must be
    named ``label`` and hold 0/1 decisions. A number is ASCII digits with
    an optional sign, decimal point and exponent, and surrounding
    ``CSV_SPACE``. Rows with any empty, non-numeric or non-finite condition
    cell are dropped and counted in ``n_dropped``; blank lines are skipped
    and not counted.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: file is empty") from None
        if len(header) < 2 or header[-1].strip() != LABEL_COLUMN:
            raise ValueError(f"{path}: last column must be named {LABEL_COLUMN!r}")
        names = tuple(name.strip() for name in header[:-1])

        values = array("d")
        labels = array("q")
        dropped = 0
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} cells, got {len(cells)}")
            conditions = cells[:-1]
            try:
                parsed = list(map(float, conditions))
            except ValueError:
                dropped += 1
                continue
            # On ASCII text without "_", float() reads exactly the CSV number
            # grammar plus the nan/inf spellings, which are non-finite; "_" and
            # non-ASCII characters let it read Python-only spellings such as
            # 1_000, ١٢ or １２.
            text = "".join(conditions)
            if "_" in text or not text.isascii() or not all(map(math.isfinite, parsed)):
                dropped += 1
                continue
            label_cell = cells[-1].strip(CSV_SPACE)
            if label_cell not in ("0", "1"):
                try:
                    label_value = float(label_cell)
                except ValueError:
                    label_value = None
                if label_value not in (0.0, 1.0) or "_" in label_cell or not label_cell.isascii():
                    raise ValueError(f"{path}:{lineno}: label {label_cell!r} is not 0 or 1")
                label_cell = str(int(label_value))
            values.fromlist(parsed)
            labels.append(int(label_cell))

    if not labels:
        raise ValueError(f"{path}: no usable data rows")
    return DecisionTable(
        attribute_names=names,
        values=np.frombuffer(values, dtype=np.float64).reshape(len(labels), len(names)),
        decisions=np.frombuffer(labels, dtype=np.int64),
        n_dropped=dropped,
    )


def write_csv(table: DecisionTable, path: str | Path) -> None:
    """Write a decision table as CSV; values round-trip at full precision.

    Each value is written as the ``repr`` of its float, which never needs
    quoting, and each row ends in the ``excel`` dialect's ``\\r\\n``.
    """
    path = Path(path)
    row_format = "%r," * table.n_attributes + "%d\r\n"
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(list(table.attribute_names) + [LABEL_COLUMN])
        for start in range(0, table.n_objects, CSV_CHUNK_ROWS):
            stop = start + CSV_CHUNK_ROWS
            rows = zip(table.values[start:stop].tolist(), table.decisions[start:stop].tolist())
            fh.write("".join([row_format % (*row, decision) for row, decision in rows]))


def split(table: DecisionTable, spec: SplitSpec) -> tuple[DecisionTable, DecisionTable]:
    """Shuffle and split a table into (train, test), deterministically per seed.

    Train size is round(train_fraction * n). Re-shuffles up to
    MAX_SPLIT_RETRIES times if either side would end up single-class.
    """
    counts = table.class_counts()
    if min(counts) < 2:
        raise ValueError("split requires at least 2 objects of each decision class")
    n = table.n_objects
    n_train = int(round(spec.train_fraction * n))
    if n_train < 1 or n_train > n - 1:
        raise ValueError(f"train_fraction {spec.train_fraction} leaves an empty partition")

    rng = np.random.default_rng(spec.seed)
    for _ in range(MAX_SPLIT_RETRIES):
        order = rng.permutation(n)
        train_idx, test_idx = order[:n_train], order[n_train:]
        train_dec = table.decisions[train_idx]
        test_dec = table.decisions[test_idx]
        if 0 < train_dec.sum() < len(train_idx) and 0 < test_dec.sum() < len(test_idx):
            # one take along each contiguous column gives the column-major rows DecisionTable stores
            train = DecisionTable(table.attribute_names, table.values.T.take(train_idx, axis=1).T, train_dec)
            test = DecisionTable(table.attribute_names, table.values.T.take(test_idx, axis=1).T, test_dec)
            return train, test
    raise ValueError(f"could not produce a two-class split in {MAX_SPLIT_RETRIES} attempts")


def clip_outliers(table: DecisionTable) -> DecisionTable:
    """Clip each attribute to its CLIP_PERCENTILES range, [0.5, 99.5].

    Optional preprocessing step; reversible in the sense that no rows are
    removed, only extreme values winsorized.
    """
    lo, hi = np.percentile(table.values, CLIP_PERCENTILES, axis=0)
    return DecisionTable(
        attribute_names=table.attribute_names,
        values=np.clip(table.values, lo, hi),
        decisions=table.decisions,
        n_dropped=table.n_dropped,
    )

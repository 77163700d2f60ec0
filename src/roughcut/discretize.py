"""Cut-point discretization: equal frequency binning and bin application.

A CutSet maps each condition attribute to an ascending list of cut values.
Binning is half-open on the left: a value equal to a cut falls in the
upper bin, so bin(v) = number of cuts <= v.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .data import DecisionTable, _ArrayFields, _frozen, _integer, _integers, _labels, _reals

__all__ = [
    "CutSet",
    "DiscretizedTable",
    "apply_cuts",
    "cuts_from_json",
    "cuts_to_json",
    "efb_cuts",
    "percentile_to_cut",
    "percentile_value_grid",
]

N_POSITIONS = 99  # candidate percentiles 1..99


@dataclass(frozen=True)
class CutSet:
    """Per-attribute strictly ascending cut values.

    Cuts always lie strictly inside the (min, max) range of the attribute
    in the table that produced them; k cuts yield bin indices {0, ..., k}.
    """

    cuts_per_attribute: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        normalized = []
        for a, cuts in enumerate(self.cuts_per_attribute):
            if isinstance(cuts, (str, bytes)) or not isinstance(cuts, Iterable):
                raise ValueError(f"attribute {a}: cuts must be a sequence of numbers, not {type(cuts).__name__}")
            try:
                cuts = tuple(_reals(tuple(cuts), "cut", "entry", (None,), "got shape {}").tolist())
            except ValueError as error:
                raise ValueError(f"attribute {a}: cuts must be a sequence of numbers; {error}") from None
            if any(map(math.isnan, cuts)) or not all(a_ < b for a_, b in zip(cuts, cuts[1:])):
                raise ValueError(f"attribute {a}: cuts must be strictly ascending")
            if not all(map(math.isfinite, cuts)):
                raise ValueError(f"attribute {a}: cuts must be finite")
            normalized.append(cuts)
        object.__setattr__(self, "cuts_per_attribute", tuple(normalized))

    @property
    def n_attributes(self) -> int:
        return len(self.cuts_per_attribute)

    def bin_counts(self) -> tuple[int, ...]:
        return tuple(len(cuts) + 1 for cuts in self.cuts_per_attribute)


def _bin_counts(counts) -> tuple[int, ...]:
    """The bin counts as Python ints; ValueError unless there is one or more, each an integer in [1, 2**63)."""
    counts = tuple(_integer(count, "attribute_bin_counts entry") for count in counts)
    if not counts:
        raise ValueError("bin matrix must have at least one attribute")
    for a, count in enumerate(counts):
        if not 1 <= count < 2**63:
            raise ValueError(f"attribute_bin_counts entry {a}: {count} is not in [1, 2**63)")
    return counts


def _bin_matrix(bins, counts: tuple[int, ...], row_name: str) -> np.ndarray:
    """``bins`` as an integer matrix, one row of ``len(counts)`` bins per ``row_name``.

    Integer bins are range-checked in their own dtype and returned in it
    (bools as uint8, uint64 as int64); the rest, read by ``_integers``, come back as int64.
    ValueError names the first bin that is not an integer in [0, count); bools and integral floats pass.
    """
    shape_error = f"expected {len(counts)} bins per {row_name}, got shape {{}}"
    given = _integers(bins, "bin", row_name, (None, len(counts)), shape_error)
    if given.dtype.kind == "O":
        given = np.where((given >= 0) & (given < 2**63), given, -1).astype(np.int64)  # a bin past int64 reads as -1
    elif given.dtype.kind == "b":
        given = given.view(np.uint8)
    # each attribute's highest bin, capped at the dtype's largest value so it is exact in the dtype
    top = np.iinfo(given.dtype).max
    out = given > np.array([min(count - 1, top) for count in counts], dtype=given.dtype)
    if given.dtype.kind == "i":
        out |= given < 0
    if out.any():
        row, attr = np.argwhere(out)[0]
        raise ValueError(f"{row_name} {row}: bin index out of range for attribute {attr} ({counts[attr]} bins)")
    return given if np.can_cast(given.dtype, np.int64) else given.astype(np.int64)  # uint64, in range


@dataclass(frozen=True, eq=False)
class DiscretizedTable(_ArrayFields):
    """Bin indices per object plus the decision column, after applying a CutSet."""

    bins: np.ndarray
    decisions: np.ndarray
    attribute_bin_counts: tuple[int, ...]

    def __post_init__(self):
        counts = _bin_counts(self.attribute_bin_counts)
        object.__setattr__(self, "attribute_bin_counts", counts)
        object.__setattr__(self, "bins", _frozen(_bin_matrix(self.bins, counts, "object"), np.int64))
        object.__setattr__(self, "decisions", _labels(self.decisions, self.bins.shape[0], "decisions", "object"))

    @property
    def n_objects(self) -> int:
        return self.bins.shape[0]

    @property
    def n_attributes(self) -> int:
        return self.bins.shape[1]


def _kept_cuts(raw: np.ndarray, lo, hi) -> np.ndarray:
    """Mask of the raw cuts, non-decreasing along the last axis, that both discretizers keep.

    A raw cut is kept when it lies strictly inside (lo, hi), which broadcast
    against ``raw``, and above the raw cut before it, so above the last cut kept: ties drop.
    """
    kept = (raw > lo) & (raw < hi)
    kept[..., 1:] &= raw[..., 1:] > raw[..., :-1]
    return kept


def efb_cuts(table: DecisionTable, num_cuts: int) -> CutSet:
    """Equal frequency binning: num_cuts cuts per attribute at quantile boundaries.

    Each cut is the midpoint between the two sorted values straddling the
    boundary, so the num_cuts+1 intervals hold equal object counts (within 1
    when the object count is not divisible). Attributes with too few distinct
    values yield fewer cuts; constant attributes yield none.
    """
    num_cuts = _integer(num_cuts, "num_cuts")
    if num_cuts < 1:
        raise ValueError("num_cuts must be positive")
    n = table.n_objects
    if n < 2:
        raise ValueError("EFB needs at least 2 objects")
    num_cuts = min(num_cuts, n - 1)  # n - 1 boundaries are 1..n-1, every gap; more only repeat them
    # round half to even, as Python's round
    bounds = np.clip(np.round(n * np.arange(1, num_cuts + 1) / (num_cuts + 1)), 1, n - 1).astype(np.int64)
    cols = np.sort(table.values.T, axis=1)  # one sorted row per attribute
    raw = (cols[:, bounds - 1] + cols[:, bounds]) / 2.0
    kept = _kept_cuts(raw, cols[:, :1], cols[:, -1:])
    return CutSet(tuple(r[k].tolist() for r, k in zip(raw, kept)))


def apply_cuts(table: DecisionTable, cuts: CutSet) -> DiscretizedTable:
    """Bin every value: bin(v) = number of cuts <= v (equal-to-cut goes up).

    Each attribute's bins are the sum of ``column >= cut`` over its own cuts,
    one pass over its contiguous column per cut, added into an
    (attributes, objects) matrix of ``np.min_scalar_type(longest)``: one
    byte per bin up to 255 cuts. ``DiscretizedTable`` then casts it to
    int64 once, column-major. The cost grows with the total number of cuts.
    On a 140k-row, 9-attribute table (a 2-core x86_64 host, numpy 2.4.6)
    this takes 4.4-4.9 ms at 2 cuts, 5.8-7.1 ms at 6 and 35-48 ms at 99,
    where a binary search per attribute takes 28-35, 44-50 and 96-111 ms.
    """
    if cuts.n_attributes != table.n_attributes:
        raise ValueError(
            f"cut set covers {cuts.n_attributes} attributes, table has {table.n_attributes}"
        )
    longest = max(len(attr_cuts) for attr_cuts in cuts.cuts_per_attribute)
    bins = np.zeros((table.n_attributes, table.n_objects), dtype=np.min_scalar_type(longest))
    for row, column, attr_cuts in zip(bins, table.values.T, cuts.cuts_per_attribute):
        for cut in attr_cuts:
            row += column >= cut
    return DiscretizedTable(bins.T, table.decisions, cuts.bin_counts())


def percentile_to_cut(table: DecisionTable, attribute: int, p: int) -> float:
    """Nearest-rank p-th percentile of an attribute: the ceil(p*n/100)-th sorted value."""
    p = _integer(p, "percentile")
    if not 1 <= p <= N_POSITIONS:
        raise ValueError(f"percentile must lie in [1, {N_POSITIONS}]")
    attribute = _integer(attribute, "attribute")
    if not 0 <= attribute < table.n_attributes:
        raise ValueError(f"attribute {attribute} is not in [0, {table.n_attributes})")
    return float(percentile_value_grid(table)[attribute, p - 1])


def percentile_value_grid(table: DecisionTable) -> np.ndarray:
    """(n_attributes, N_POSITIONS) array of nearest-rank percentile values, p = 1..N_POSITIONS."""
    # ranks from 1: the same IEEE division as math.ceil(p * n / 100), exact while p * n < 2**53
    ranks = np.ceil(np.arange(1, N_POSITIONS + 1) * table.n_objects / 100).astype(np.int64)
    return np.sort(table.values.T, axis=1)[:, ranks - 1]


def cuts_to_json(cuts: CutSet, attribute_names: tuple[str, ...]) -> dict:
    """Serialize as {attribute_name: [cut, ...]} for audit and reuse."""
    if len(attribute_names) != cuts.n_attributes:
        raise ValueError("attribute name count does not match cut set")
    return {name: list(c) for name, c in zip(attribute_names, cuts.cuts_per_attribute)}


def cuts_from_json(payload: dict, attribute_names: tuple[str, ...]) -> CutSet:
    """Rebuild a CutSet from its JSON form, ordered by attribute_names."""
    missing = [name for name in attribute_names if name not in payload]
    if missing:
        raise ValueError(f"cut set JSON missing attributes: {missing}")
    return CutSet(tuple(payload[name] for name in attribute_names))

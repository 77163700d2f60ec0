"""Cut-point discretization: equal frequency binning and bin application.

A CutSet maps each condition attribute to an ascending list of cut values.
Binning is half-open on the left: a value equal to a cut falls in the
upper bin, so bin(v) = number of cuts <= v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DecisionTable


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
            cuts = tuple(float(c) for c in cuts)
            if any(b <= a_ for a_, b in zip(cuts, cuts[1:])):
                raise ValueError(f"attribute {a}: cuts must be strictly ascending")
            normalized.append(cuts)
        object.__setattr__(self, "cuts_per_attribute", tuple(normalized))

    @property
    def n_attributes(self) -> int:
        return len(self.cuts_per_attribute)

    def bin_counts(self) -> tuple[int, ...]:
        return tuple(len(cuts) + 1 for cuts in self.cuts_per_attribute)


@dataclass(frozen=True)
class DiscretizedTable:
    """Bin indices per object plus the decision column, after applying a CutSet."""

    bins: np.ndarray
    decisions: np.ndarray
    attribute_bin_counts: tuple[int, ...]

    def __post_init__(self):
        bins = np.asarray(self.bins, dtype=np.int64)
        decisions = np.asarray(self.decisions, dtype=np.int64)
        if bins.ndim != 2 or bins.shape[1] != len(self.attribute_bin_counts):
            raise ValueError("bins must be (n_objects, n_attributes)")
        if decisions.shape != (bins.shape[0],):
            raise ValueError("decisions must have one entry per object")
        limits = np.asarray(self.attribute_bin_counts, dtype=np.int64)
        if bins.size and (bins.min() < 0 or (bins >= limits).any()):
            raise ValueError("bin index out of range for attribute_bin_counts")
        bins = bins.copy()
        decisions = decisions.copy()
        bins.setflags(write=False)
        decisions.setflags(write=False)
        object.__setattr__(self, "bins", bins)
        object.__setattr__(self, "decisions", decisions)
        object.__setattr__(self, "attribute_bin_counts", tuple(int(c) for c in self.attribute_bin_counts))

    @property
    def n_objects(self) -> int:
        return self.bins.shape[0]

    @property
    def n_attributes(self) -> int:
        return self.bins.shape[1]


def interior_cuts(raw: list[float], lo: float, hi: float) -> tuple[float, ...]:
    """Deduplicate and keep only cuts strictly inside (lo, hi)."""
    kept: list[float] = []
    for c in raw:
        if lo < c < hi and (not kept or c > kept[-1]):
            kept.append(c)
    return tuple(kept)


def efb_cuts(table: DecisionTable, num_cuts: int) -> CutSet:
    """Equal frequency binning: num_cuts cuts per attribute at quantile boundaries.

    Each cut is the midpoint between the two sorted values straddling the
    boundary, so the num_cuts+1 intervals hold equal object counts (within 1
    when the object count is not divisible). Attributes with too few distinct
    values yield fewer cuts; constant attributes yield none.
    """
    if num_cuts < 1:
        raise ValueError("num_cuts must be positive")
    n = table.n_objects
    if n < 2:
        raise ValueError("EFB needs at least 2 objects")
    per_attribute = []
    for a in range(table.n_attributes):
        col = np.sort(table.values[:, a])
        raw = []
        for q in range(1, num_cuts + 1):
            b = round(n * q / (num_cuts + 1))
            b = min(max(b, 1), n - 1)
            raw.append((col[b - 1] + col[b]) / 2.0)
        per_attribute.append(interior_cuts(raw, col[0], col[-1]))
    return CutSet(tuple(per_attribute))


def apply_cuts(table: DecisionTable, cuts: CutSet) -> DiscretizedTable:
    """Bin every value: bin(v) = number of cuts <= v (equal-to-cut goes up)."""
    if cuts.n_attributes != table.n_attributes:
        raise ValueError(
            f"cut set covers {cuts.n_attributes} attributes, table has {table.n_attributes}"
        )
    bins = np.empty((table.n_objects, table.n_attributes), dtype=np.int64)
    for a, attr_cuts in enumerate(cuts.cuts_per_attribute):
        bins[:, a] = np.searchsorted(np.asarray(attr_cuts), table.values[:, a], side="right")
    return DiscretizedTable(bins, table.decisions, cuts.bin_counts())


def percentile_to_cut(table: DecisionTable, attribute: int, p: int) -> float:
    """Nearest-rank p-th percentile of an attribute: the ceil(p*n/100)-th sorted value."""
    if table.n_objects == 0:
        raise ValueError("table is empty")
    if not 1 <= p <= 99:
        raise ValueError("percentile must lie in [1, 99]")
    col = np.sort(table.values[:, attribute])
    rank = math.ceil(p * len(col) / 100)
    return float(col[max(rank, 1) - 1])


def percentile_value_grid(table: DecisionTable) -> np.ndarray:
    """(n_attributes, 99) array of nearest-rank percentile values, p = 1..99."""
    n = table.n_objects
    if n == 0:
        raise ValueError("table is empty")
    ranks = np.array([math.ceil(p * n / 100) for p in range(1, 100)])
    ranks = np.maximum(ranks, 1) - 1
    grid = np.empty((table.n_attributes, 99))
    for a in range(table.n_attributes):
        grid[a] = np.sort(table.values[:, a])[ranks]
    return grid


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
    return CutSet(tuple(tuple(float(c) for c in payload[name]) for name in attribute_names))

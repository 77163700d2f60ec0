"""Ant colony search over integer-percentile cut positions.

Each ant picks, per attribute, an ascending set of percentile positions in
[1, 99]; the realized cuts feed a rough-set classifier whose validation
error is the solution cost. Each pick draws a feasible position with
probability proportional to its pheromone tau raised to alpha. Pheromone on
(attribute, position) pairs decays every iteration and is reinforced in
proportion to 1/cost.

``optimize`` handles all ants of an iteration at once: ``_construct`` draws
cut c for every (ant, attribute) pair in one array pass, ``_RankedSplit``
costs every ant in one pass over grid ranks, and ``_deposit`` adds every
ant's pheromone with one ``np.add.at``. Picks stay an int64 array; cut
values are realized (``_realize``) only for an ant that lowers the running
best. ``evaluate_solution`` is the same cost for one ant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import DecisionTable, SplitSpec, split
from .discretize import CutSet, apply_cuts, interior_cuts, percentile_value_grid
from .roughset import _row_keys, classify_table, induce_rules

N_POSITIONS = 99  # candidate percentiles 1..99
TAU_INIT = 1.0
TAU_FLOOR = 1e-6
COST_FLOOR = 1e-3  # deposit uses max(cost, COST_FLOOR) so 1/cost stays finite
FIT_FRACTION = 0.8  # share of the training set used to fit rules; rest validates


@dataclass(frozen=True)
class AcoParams:
    """Colony settings; defaults follow the experiment configuration."""

    num_ants: int = 10
    num_iterations: int = 100
    alpha: float = 0.09
    rho: float = 0.9
    q_deposit: float = 1.0
    num_cuts: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.num_ants < 1:
            raise ValueError("num_ants must be positive")
        if self.num_iterations < 1:
            raise ValueError("at least one iteration is required")
        if not 0.0 <= self.alpha < np.inf:
            raise ValueError("alpha must be finite and non-negative")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        if not 0.0 < self.q_deposit < np.inf:
            raise ValueError("q_deposit must be finite and positive")
        if not 1 <= self.num_cuts <= N_POSITIONS:
            raise ValueError(f"num_cuts must lie in [1, {N_POSITIONS}]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class PheromoneModel:
    """Pheromone (tau) per attribute and position."""

    tau: np.ndarray

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=np.float64)
        if tau.ndim != 2 or tau.shape[1] != N_POSITIONS:
            raise ValueError(f"tau must be (n_attributes, {N_POSITIONS})")
        if (tau <= 0).any():
            raise ValueError("tau must be strictly positive")
        tau.setflags(write=False)
        object.__setattr__(self, "tau", tau)

    @property
    def n_attributes(self) -> int:
        return self.tau.shape[0]


@dataclass
class AntSolution:
    """Percentile positions chosen by one ant, their realized cuts, and cost."""

    percentiles: tuple[tuple[int, ...], ...]
    cuts: CutSet
    cost: float | None = None


@dataclass(frozen=True)
class IterationStats:
    iteration: int
    best_cost: float  # running best over all iterations so far
    mean_cost: float  # mean ant cost within this iteration


@dataclass(frozen=True)
class PercentileGrid:
    """Realized cut candidates: nearest-rank percentile values of a table."""

    values: np.ndarray  # (n_attributes, 99), percentile p at column p-1
    minima: np.ndarray
    maxima: np.ndarray

    @classmethod
    def from_table(cls, table: DecisionTable) -> "PercentileGrid":
        return cls(
            values=percentile_value_grid(table),
            minima=table.values.min(axis=0),
            maxima=table.values.max(axis=0),
        )

    @property
    def n_attributes(self) -> int:
        return self.values.shape[0]


def initial_model(n_attributes: int) -> PheromoneModel:
    """Uniform pheromone."""
    return PheromoneModel(np.full((n_attributes, N_POSITIONS), TAU_INIT))


def _row_sums(rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``rows[i, :lengths[i]].sum()`` for every row, bit for bit, for lengths up to 128.

    ``rows`` is zero beyond each length. numpy sums a contiguous float64 run
    of n <= 128 elements in one block of its pairwise sum: below 8 elements
    in order; otherwise eight lanes accumulate the full 8-wide blocks, the
    lanes combine as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), and the remaining
    n % 8 elements are added in order. Adding a padding zero changes no sum.
    """
    n_rows, width = rows.shape
    n_blocks = lengths // 8  # full blocks; below 8 elements, none
    blocks = np.zeros((n_rows, width // 8 + 1, 8))
    blocks.reshape(n_rows, -1)[:, :width] = rows
    index = np.arange(n_rows)
    rest = blocks[index, n_blocks].T.copy()  # the n % 8 elements after the full blocks, then zeros
    blocks[index, n_blocks] = 0.0
    lanes = blocks.transpose(1, 2, 0).copy()  # (block, lane, row)
    r = lanes[0]
    for block in lanes[1:]:
        r += block
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for element in rest[:7]:
        total += element
    return total


def _choice_cdf(rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Cumulative distributions ``Generator.choice(p=w / w.sum())`` draws from, one per row.

    Row i holds the weights w in its first ``lengths[i]`` entries and zeros
    after them. For ``u = rng.random()``, the number of entries of row i
    that are <= u is the index ``choice`` returns, bit for bit, from the same
    RNG stream: it is ``searchsorted(u, side="right")`` on the same numbers,
    and the padding entries come out as exactly 1.0, which no u reaches.
    """
    total = _row_sums(rows, lengths)
    failed = (total <= 0) | ~np.isfinite(total)
    if failed.any():
        raise ValueError(f"selection weights tau ** alpha sum to {total[failed.argmax()]}; "
                         f"use a smaller alpha")
    cdf = (rows / total[:, None]).cumsum(axis=1)
    cdf /= cdf[np.arange(len(rows)), lengths - 1, None]
    return cdf


def _construct(weights: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Pick num_cuts ascending percentile positions for every (ant, attribute) pair.

    ``weights`` is tau^alpha, (n_attributes, 99). ``draws`` is (ants,
    n_attributes, num_cuts) uniforms in [0, 1); pick c of a pair uses its
    draw c. Each pick draws like ``Generator.choice`` with probabilities
    proportional to the weights of the feasible positions. Later picks are
    restricted above earlier ones; the upper bound leaves room for the cuts
    still to come, so construction can never strand. Cut c is drawn for all
    pairs at once. Returns the picked percentiles, int64, shaped like
    ``draws``.
    """
    n_ants, n_attributes, k = draws.shape
    attributes = np.tile(np.arange(n_attributes), n_ants)
    picks = np.empty(draws.shape, dtype=np.int64).reshape(-1, k)
    prev = np.zeros(len(picks), dtype=np.int64)
    for c, u in enumerate(draws.reshape(-1, k).T):
        upper = N_POSITIONS - (k - c - 1)
        feasible = np.zeros((n_attributes, 2 * N_POSITIONS))
        feasible[:, :upper] = weights[:, :upper]
        # row i: the weights of positions prev[i] + 1 .. upper, then zeros
        rows = sliding_window_view(feasible, N_POSITIONS, axis=1)[attributes, prev]
        cdf = _choice_cdf(rows, upper - prev)
        prev = prev + 1 + (cdf <= u[:, None]).sum(axis=1)
        picks[:, c] = prev
    return picks.reshape(draws.shape)


def _realize(grid: PercentileGrid, picks: np.ndarray) -> CutSet:
    """Cut values of one ant's (n_attributes, num_cuts) picks.

    Percentile values falling on an attribute's min/max, or duplicating an
    earlier cut (ties in the data), are dropped.
    """
    return CutSet(tuple(
        interior_cuts([float(grid.values[a, p - 1]) for p in ps],
                      float(grid.minima[a]), float(grid.maxima[a]))
        for a, ps in enumerate(picks.tolist())
    ))


def evaluate_solution(
    solution: AntSolution, train: DecisionTable, validation: DecisionTable
) -> float:
    """Misclassification rate on the validation table of rules fit on train."""
    rules = induce_rules(apply_cuts(train, solution.cuts))
    predictions, _ = classify_table(rules, apply_cuts(validation, solution.cuts))
    return float((predictions != validation.decisions).mean())


class _RankedSplit:
    """Fit and validation objects ranked once against a percentile grid.

    Every realized cut is a grid value, so with ``rank`` the number of grid
    values <= an object's value, the object's bin under an ant's cuts is the
    number of the ant's kept percentiles p with ``rank >= p``. A percentile
    is kept when ``interior_cuts`` keeps its value: strictly inside the
    attribute's (min, max) and above the previous pick's value.
    """

    def __init__(self, grid: PercentileGrid, fit: DecisionTable, validation: DecisionTable):
        values = np.concatenate([fit.values, validation.values])
        self.grid = grid
        # (n_attributes, fit rows then validation rows)
        self.ranks = np.stack([
            np.searchsorted(grid.values[a], values[:, a], side="right")
            for a in range(grid.n_attributes)
        ])
        self.n_fit = fit.n_objects
        self.fit_ones = fit.decisions == 1
        self.validation_decisions = validation.decisions
        ones = int(fit.decisions.sum())
        self.prior = 1 if ones >= fit.n_objects - ones else 0

    def costs(self, percentiles: np.ndarray) -> np.ndarray:
        """``evaluate_solution`` of every ant in one pass.

        ``percentiles`` is (ants, n_attributes, num_cuts). Rows are grouped by
        the ``roughset`` cell key with the ant index as its leading column,
        each attribute's bins built only when it is keyed; only keys that
        occur are numbered, so no table spans the whole key space. Each cell
        takes the fit majority, ties and cells without fit rows going to the
        fit prior as in ``induce_rules``.
        """
        n_ants, n_attributes, k = percentiles.shape
        values = self.grid.values[np.arange(n_attributes)[:, None], percentiles - 1]
        kept = (values > self.grid.minima[:, None]) & (values < self.grid.maxima[:, None])
        kept[..., 1:] &= values[..., 1:] > values[..., :-1]
        thresholds = np.where(kept, percentiles, N_POSITIONS + 1)[..., None]  # no rank reaches 100

        n_rows = self.ranks.shape[1]
        ants = np.repeat(np.arange(n_ants, dtype=np.int64), n_rows)
        bins = (((self.ranks[a] >= thresholds[:, a]).sum(axis=1).ravel(), k + 1)
                for a in range(n_attributes))
        keys, _ = _row_keys(itertools.chain([(ants, n_ants)], bins))
        distinct, cells = np.unique(keys, return_inverse=True)
        cells = cells.reshape(n_ants, n_rows)

        fit_cells = cells[:, :self.n_fit]
        sizes = np.bincount(fit_cells.ravel(), minlength=distinct.size)
        ones = np.bincount(fit_cells[:, self.fit_ones].ravel(), minlength=distinct.size)
        zeros = sizes - ones
        decisions = np.where(ones > zeros, 1, np.where(zeros > ones, 0, self.prior))
        wrong = (decisions[cells[:, self.n_fit:]] != self.validation_decisions).sum(axis=1)
        return wrong / self.validation_decisions.size


def _deposit(
    model: PheromoneModel, percentiles: np.ndarray, costs: np.ndarray, params: AcoParams
) -> PheromoneModel:
    """Evaporate, then deposit q/cost on every position each ant selected.

    ``percentiles`` is (ants, n_attributes, num_cuts) and ``costs`` is (ants,).
    Deposits are added in (ant, attribute, pick) order.
    """
    amounts = params.q_deposit / np.maximum(costs, COST_FLOOR)
    deposits = np.zeros_like(model.tau)
    attributes = np.arange(model.n_attributes)[:, None]
    np.add.at(deposits, (attributes, percentiles - 1), amounts[:, None, None])
    tau = np.maximum((1.0 - params.rho) * model.tau + deposits, TAU_FLOOR)
    return PheromoneModel(tau)


def update_pheromones(
    model: PheromoneModel, solutions: Sequence[AntSolution], params: AcoParams
) -> PheromoneModel:
    """Evaporate, then deposit q/cost on every position each ant selected.

    Every solution picks the same number of positions for each attribute.
    """
    if any(solution.cost is None for solution in solutions):
        raise ValueError("all solutions must be evaluated before the pheromone update")
    percentiles = np.array([s.percentiles for s in solutions], dtype=np.int64)
    costs = np.array([s.cost for s in solutions], dtype=np.float64)
    shape = (len(solutions), model.n_attributes, -1 if solutions else 0)
    return _deposit(model, percentiles.reshape(shape), costs, params)


def optimize(
    train: DecisionTable,
    params: AcoParams,
    *,
    progress: Callable[[IterationStats], None] | None = None,
) -> tuple[AntSolution, list[IterationStats]]:
    """Run the full colony and return the least-cost solution ever constructed.

    The training table is split FIT_FRACTION/rest into fit and validation
    parts (seeded by params.seed); candidate cut values are the integer
    percentiles of the full training table. Each ant draws from its own RNG
    stream keyed by (seed, iteration, ant index), so a fixed seed gives a
    fixed search. Only an ant that lowers the running best becomes an
    ``AntSolution``; ties keep the earliest discovery.
    """
    try:
        fit, validation = split(train, SplitSpec(train_fraction=FIT_FRACTION, seed=params.seed))
    except ValueError as exc:
        zeros, ones = train.class_counts()
        raise ValueError(
            f"the ACO fit/validation split (FIT_FRACTION = {FIT_FRACTION}) of a training table "
            f"with {zeros} objects of class 0 and {ones} of class 1 cannot hold both classes "
            f"in both parts"
        ) from exc
    grid = PercentileGrid.from_table(train)
    model = initial_model(train.n_attributes)
    ranked = _RankedSplit(grid, fit, validation)

    best: AntSolution | None = None
    history: list[IterationStats] = []
    shape = (params.num_ants, grid.n_attributes, params.num_cuts)
    for iteration in range(params.num_iterations):
        draws = np.stack([
            np.random.default_rng((params.seed, iteration, ant)).random(shape[1] * shape[2])
            for ant in range(params.num_ants)
        ]).reshape(shape)
        # a tau ** alpha that overflows fails _choice_cdf's check, not with a numpy warning
        with np.errstate(over="ignore"):
            percentiles = _construct(model.tau ** params.alpha, draws)
        costs = ranked.costs(percentiles)
        ant = int(costs.argmin())  # ties keep the earliest discovery
        if best is None or costs[ant] < best.cost:
            best = AntSolution(tuple(map(tuple, percentiles[ant].tolist())),
                               _realize(grid, percentiles[ant]), float(costs[ant]))
        model = _deposit(model, percentiles, costs, params)
        stats = IterationStats(iteration=iteration, best_cost=best.cost, mean_cost=float(costs.mean()))
        history.append(stats)
        if progress is not None:
            progress(stats)
    return best, history


def write_history_csv(history: Sequence[IterationStats], path) -> None:
    """Emit per-iteration convergence data as CSV."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration,best_cost,mean_cost\n")
        for stats in history:
            fh.write(f"{stats.iteration},{stats.best_cost!r},{stats.mean_cost!r}\n")

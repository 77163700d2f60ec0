"""Ant colony search over integer-percentile cut positions.

Each ant picks, per attribute, an ascending set of percentile positions in
[1, 99]; the realized cuts feed a rough-set classifier whose validation
error is the solution cost. Each pick draws a feasible position with
probability proportional to its pheromone tau raised to alpha. Pheromone on
(attribute, position) pairs decays every iteration and is reinforced in
proportion to 1/cost.

``optimize`` costs all ants of an iteration in one pass over grid ranks
(``_RankedSplit``); ``evaluate_solution`` is the same cost for one ant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import DecisionTable, SplitSpec, split
from .discretize import CutSet, apply_cuts, interior_cuts, percentile_value_grid
from .roughset import KEY_LIMIT  # noqa: F401 -- the cost pass's key limit, importable here too
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


def _choice_cdf(weights: np.ndarray) -> np.ndarray:
    """Cumulative distribution that ``Generator.choice(p=weights / weights.sum())`` draws from.

    Index ``cdf.searchsorted(u, side="right")`` for ``u = rng.random()`` is
    the index ``choice`` returns, bit for bit, from the same RNG stream.
    """
    total = weights.sum()
    if total <= 0 or not np.isfinite(total):
        raise ValueError(f"selection weights tau ** alpha sum to {total}; use a smaller alpha")
    cdf = (weights / total).cumsum()
    cdf /= cdf[-1]
    return cdf


def _construct(
    weights: np.ndarray,
    params: AcoParams,
    grid: PercentileGrid,
    rng: np.random.Generator,
    cdfs: dict[tuple[int, int, int], np.ndarray],
) -> AntSolution:
    """Pick num_cuts ascending percentile positions per attribute and realize cuts.

    ``weights`` is tau^alpha. Each pick draws like ``Generator.choice`` with
    probabilities proportional to the weights of the feasible positions.
    Later picks are restricted above earlier ones; the upper bound leaves
    room for the cuts still to come, so construction can never strand.
    Percentile values falling on an attribute's min/max, or duplicating an
    earlier cut (ties in the data), are dropped from the realized CutSet.
    ``cdfs`` caches the distribution of each (attribute, previous pick,
    upper bound); it is only valid for one ``weights`` matrix.
    """
    k = params.num_cuts
    draws = iter(rng.random(grid.n_attributes * k).tolist())
    all_percentiles = []
    all_cuts = []
    for a in range(grid.n_attributes):
        chosen = []
        prev = 0
        for c in range(k):
            upper = N_POSITIONS - (k - c - 1)
            cdf = cdfs.get((a, prev, upper))
            if cdf is None:
                cdf = cdfs[a, prev, upper] = _choice_cdf(weights[a, prev:upper])
            prev += 1 + int(cdf.searchsorted(next(draws), side="right"))
            chosen.append(prev)
        all_percentiles.append(tuple(chosen))
        raw = [float(grid.values[a, p - 1]) for p in chosen]
        all_cuts.append(interior_cuts(raw, float(grid.minima[a]), float(grid.maxima[a])))
    return AntSolution(tuple(all_percentiles), CutSet(tuple(all_cuts)))


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


def update_pheromones(
    model: PheromoneModel, solutions: Sequence[AntSolution], params: AcoParams
) -> PheromoneModel:
    """Evaporate, then deposit q/cost on every position each ant selected."""
    deposits = np.zeros_like(model.tau)
    for solution in solutions:
        if solution.cost is None:
            raise ValueError("all solutions must be evaluated before the pheromone update")
        amount = params.q_deposit / max(solution.cost, COST_FLOOR)
        for a, positions in enumerate(solution.percentiles):
            for p in positions:
                deposits[a, p - 1] += amount
    tau = np.maximum((1.0 - params.rho) * model.tau + deposits, TAU_FLOOR)
    return PheromoneModel(tau)


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
    fixed search.
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
    for iteration in range(params.num_iterations):
        # a tau ** alpha that overflows fails _choice_cdf's check, not with a numpy warning
        with np.errstate(over="ignore"):
            weights = model.tau ** params.alpha
            cdfs: dict[tuple[int, int, int], np.ndarray] = {}
            solutions = [
                _construct(weights, params, grid,
                           np.random.default_rng((params.seed, iteration, ant)), cdfs)
                for ant in range(params.num_ants)
            ]
        costs = ranked.costs(np.array([s.percentiles for s in solutions], dtype=np.int64))
        for solution, cost in zip(solutions, costs.tolist()):
            solution.cost = cost
            if best is None or cost < best.cost:  # ties keep the earliest discovery
                best = solution
        model = update_pheromones(model, solutions, params)
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

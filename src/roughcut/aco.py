"""Ant colony search over integer-percentile cut positions.

Each ant picks, per attribute, an ascending set of percentile positions in
[1, 99]; the realized cuts feed a rough-set classifier whose validation
error is the solution cost. Each pick draws a feasible position with
probability proportional to its pheromone tau raised to alpha. Pheromone on
(attribute, position) pairs decays every iteration and is reinforced in
proportion to 1/cost.

``optimize`` handles all ants of an iteration at once: ``_construct`` draws
cut c for every (ant, attribute) pair in one array pass, with one masked
``sum`` of the feasible weights. Its draws are ``Generator.choice``'s bit for
bit because numpy's masked reduction sums each contiguous run of the mask
from 0 in one pass, as ``w.sum()`` does. ``_RankedSplit`` costs every ant
through per-ant rank -> bin lookup tables and one sort of decision-tagged
cell keys, and ``_deposit`` adds every ant's pheromone with one
``np.add.at``. Picks stay an int64 array; which of their values become cuts
is ``discretize._kept_cuts``, the rule ``efb_cuts`` keeps its cuts by, and
cut values are realized (``_RankedSplit.cuts``) only for a new best.
``evaluate_solution`` is the same cost for one ant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import DecisionTable, SplitSpec, _frozen, _integer, split
from .discretize import CutSet, _kept_cuts, apply_cuts, percentile_value_grid
from .roughset import _majority, _row_keys, classify_table, induce_rules

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
        for name in ("num_ants", "num_iterations", "num_cuts", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
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
        object.__setattr__(self, "tau", _frozen(self.tau, np.float64))
        if self.tau.ndim != 2 or self.tau.shape[1] != N_POSITIONS:
            raise ValueError(f"tau must be (n_attributes, {N_POSITIONS})")
        if not ((self.tau > 0) & (self.tau < np.inf)).all():
            raise ValueError("tau must be finite and strictly positive")

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


def initial_model(n_attributes: int) -> PheromoneModel:
    """Uniform pheromone."""
    return PheromoneModel(np.full((n_attributes, N_POSITIONS), TAU_INIT))


def _choice_cdf(rows: np.ndarray, feasible: np.ndarray) -> np.ndarray:
    """Cumulative distributions ``Generator.choice(p=w / w.sum())`` draws from, one per row.

    Row i's weights w are its entries where ``feasible[i]`` holds, one
    contiguous run. numpy's masked reduction sums each contiguous run of the
    mask from 0 in one pass, as ``w.sum()`` does, so the totals match bit for
    bit. Entries before the run come out as 0.0 and after it as exactly 1.0,
    so the number of entries <= ``u = rng.random()`` is the index ``choice``
    returns from the same stream plus the number of entries before the run.
    """
    total = rows.sum(axis=1, where=feasible)
    failed = (total <= 0) | ~np.isfinite(total)
    if failed.any():
        raise ValueError(f"selection weights tau ** alpha sum to {total[failed.argmax()]}; "
                         f"use a smaller alpha")
    cdf = np.divide(rows, total[:, None], out=np.zeros(rows.shape), where=feasible).cumsum(axis=1)
    cdf /= cdf[:, -1:]
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
    # row i: attribute i % n_attributes, row-major (tau is stored column-major), so
    # each row's feasible run is contiguous and sums as choice's w.sum() does
    rows = np.tile(np.ascontiguousarray(weights), (n_ants, 1))
    positions = np.arange(1, N_POSITIONS + 1)
    picks = np.empty(draws.shape, dtype=np.int64).reshape(-1, k)
    prev = np.zeros(len(picks), dtype=np.int64)
    for c, u in enumerate(draws.reshape(-1, k).T):
        # row i's feasible run starts at prev[i] + 1; the prev[i] entries before it count as <= u
        feasible = (positions > prev[:, None]) & (positions <= N_POSITIONS - (k - c - 1))
        prev = 1 + (_choice_cdf(rows, feasible) <= u[:, None]).sum(axis=1)
        picks[:, c] = prev
    return picks.reshape(draws.shape)


def evaluate_solution(
    solution: AntSolution, train: DecisionTable, validation: DecisionTable
) -> float:
    """Misclassification rate on the validation table of rules fit on train."""
    rules = induce_rules(apply_cuts(train, solution.cuts))
    predictions, _ = classify_table(rules, apply_cuts(validation, solution.cuts))
    return float((predictions != validation.decisions).mean())


class _RankedSplit:
    """Fit and validation objects ranked once against their own percentile grid.

    The grid holds the nearest-rank percentile values of fit and validation
    together, which is the training table ``optimize`` split, so every
    realized cut is a grid value. With ``rank`` (0..99) the number of grid
    values <= an object's value, the object's bin under an ant's cuts is the
    number of its kept percentiles p <= rank. A row's code is 0 or 1 for a
    fit row of that class, 2 or 3 for a validation row.
    """

    def __init__(self, fit: DecisionTable, validation: DecisionTable):
        joint = DecisionTable(fit.attribute_names, np.concatenate([fit.values, validation.values]),
                              np.concatenate([fit.decisions, validation.decisions]))
        self.grid = percentile_value_grid(joint)  # (n_attributes, 99), percentile p at column p-1
        self.minima = joint.values.min(axis=0)
        self.maxima = joint.values.max(axis=0)
        # (n_attributes, fit rows then validation rows)
        self.ranks = np.stack([np.searchsorted(grid, column, side="right")
                               for grid, column in zip(self.grid, joint.values.T)])
        self.codes = np.concatenate([fit.decisions, 2 + validation.decisions]).astype(np.uint64)
        self.n_validation = validation.n_objects
        self.prior = int(_majority(*fit.class_counts(), 1))

    def _picked(self, percentiles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Grid values of picks shaped (..., n_attributes, num_cuts), and which become cuts.

        Picks ascend, so their values do not decrease, and ``discretize._kept_cuts``,
        the rule ``efb_cuts`` keeps its cuts by, says which become cuts: strictly
        inside the attribute's (min, max) and above the previous pick's value.
        """
        values = self.grid[np.arange(len(self.grid))[:, None], percentiles - 1]
        return values, _kept_cuts(values, self.minima[:, None], self.maxima[:, None])

    def cuts(self, picks: np.ndarray) -> CutSet:
        """The cut values of one ant's (n_attributes, num_cuts) picks."""
        values, kept = self._picked(picks)
        return CutSet(tuple(tuple(v[k].tolist()) for v, k in zip(values, kept)))

    def costs(self, percentiles: np.ndarray) -> np.ndarray:
        """``evaluate_solution`` of every ant in one pass.

        ``percentiles`` is (ants, n_attributes, num_cuts). Each (ant,
        attribute) pair's bins are one ``take`` on the ranks from a uint8
        rank -> bin table, the cumulated bincount of its kept percentiles.
        Rows are keyed by the ``roughset`` cell key, ant first. Keys are below
        KEY_LIMIT = 2**62, so ``key * 4 + code`` fits in uint64, and after one
        sort of these decision-tagged keys each run of equal keys holds one
        (cell, code) pair's rows. ``roughset._majority`` decides a cell d from its
        fit counts, as in ``induce_rules``, ties (0-0 without fit rows, as in
        ``classify_table``) going to the fit prior; its rows of code 3 - d are
        wrong. The ant is the leading key digit, renumbering keeps the order of
        keys, and every ant has one row per object, so ant i's rows are sorted
        positions [i * rows, (i + 1) * rows): a cell's first row names its ant.
        """
        n_ants, n_attributes, k = percentiles.shape
        _, kept = self._picked(percentiles)
        # tables[a, i, r]: ant i's bin on attribute a for rank r, at most 99
        pairs = np.arange(n_attributes) * n_ants + np.arange(n_ants)[:, None]
        slots = (pairs[..., None] * (N_POSITIONS + 1) + percentiles)[kept]
        tables = np.bincount(slots, minlength=pairs.size * (N_POSITIONS + 1))
        tables = tables.reshape(n_attributes, n_ants, N_POSITIONS + 1).cumsum(axis=2, dtype=np.uint8)

        n_rows = self.ranks.shape[1]
        ants = np.repeat(np.arange(n_ants, dtype=np.int64), n_rows)
        bins = ((tables[a].take(self.ranks[a], axis=1).ravel(), k + 1) for a in range(n_attributes))
        keys, _ = _row_keys(itertools.chain([(ants, n_ants)], bins))
        keys = keys.view(np.uint64)
        keys <<= 2
        keys.reshape(n_ants, n_rows)[...] |= self.codes
        keys.sort()

        # one run of equal tagged keys per (cell, code) pair that occurs
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        tagged = keys[starts]
        new_cell = np.concatenate(([True], tagged[1:] >> 2 != tagged[:-1] >> 2))
        counts = np.zeros((new_cell.sum(), 4), dtype=np.int64)
        counts[new_cell.cumsum() - 1, tagged & 3] = np.diff(starts, append=keys.size)
        wrong = counts[np.arange(len(counts)), 3 - _majority(counts[:, 0], counts[:, 1], self.prior)]
        return np.bincount(starts[new_cell] // n_rows, wrong, n_ants) / self.n_validation


def _deposit(
    model: PheromoneModel, percentiles: np.ndarray, costs: np.ndarray, params: AcoParams
) -> PheromoneModel:
    """Evaporate, then deposit q/cost on every position each ant selected.

    ``percentiles`` is (ants, n_attributes, num_cuts) and ``costs`` is (ants,).
    Deposits are added in (ant, attribute, pick) order.
    """
    with np.errstate(over="ignore"):  # an overflow fails the check below, not with a warning
        amounts = params.q_deposit / np.maximum(costs, COST_FLOOR)
        deposits = np.zeros_like(model.tau)
        attributes = np.arange(model.n_attributes)[:, None]
        np.add.at(deposits, (attributes, percentiles - 1), amounts[:, None, None])
        tau = np.maximum((1.0 - params.rho) * model.tau + deposits, TAU_FLOOR)
    if not (tau < np.inf).all():
        raise ValueError(f"pheromone tau overflows with q_deposit = {params.q_deposit}; "
                         f"use a smaller q_deposit")
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
    model = initial_model(train.n_attributes)
    ranked = _RankedSplit(fit, validation)

    best: AntSolution | None = None
    history: list[IterationStats] = []
    shape = (params.num_ants, train.n_attributes, params.num_cuts)
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
                               ranked.cuts(percentiles[ant]), float(costs[ant]))
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

"""Ant colony search over integer-percentile cut positions.

Each ant picks, per attribute, an ascending set of percentile positions in
[1, 99]; the realized cuts feed a rough-set classifier whose validation
error is the solution cost. Pheromone on (attribute, position) pairs decays
every iteration and is reinforced in proportion to 1/cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .data import DecisionTable, SplitSpec, split
from .discretize import CutSet, apply_cuts, interior_cuts, percentile_value_grid
from .roughset import classify_table, induce_rules

N_POSITIONS = 99  # candidate percentiles 1..99
TAU_INIT = 1.0
TAU_FLOOR = 1e-6
ETA_FLOOR = 1e-6
COST_FLOOR = 1e-3  # deposit uses max(cost, COST_FLOOR) so 1/cost stays finite
FIT_FRACTION = 0.8  # share of the training set used to fit rules; rest validates


@dataclass(frozen=True)
class AcoParams:
    """Colony settings; defaults follow the experiment configuration."""

    num_ants: int = 10
    num_iterations: int = 100
    alpha: float = 0.09
    beta: float = 0.09
    rho: float = 0.9
    q_deposit: float = 1.0
    num_cuts: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.num_ants < 1:
            raise ValueError("num_ants must be positive")
        if self.num_iterations < 1:
            raise ValueError("at least one iteration is required")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        if self.q_deposit <= 0:
            raise ValueError("q_deposit must be positive")
        if not 1 <= self.num_cuts <= N_POSITIONS:
            raise ValueError(f"num_cuts must lie in [1, {N_POSITIONS}]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class PheromoneModel:
    """Pheromone (tau) and attractiveness (eta) per attribute and position."""

    tau: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=np.float64)
        eta = np.asarray(self.eta, dtype=np.float64)
        if tau.shape != eta.shape or tau.ndim != 2 or tau.shape[1] != N_POSITIONS:
            raise ValueError(f"tau and eta must both be (n_attributes, {N_POSITIONS})")
        if (tau <= 0).any() or (eta <= 0).any():
            raise ValueError("tau and eta must be strictly positive")
        tau.setflags(write=False)
        eta.setflags(write=False)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "eta", eta)

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


def initial_model(n_attributes: int, eta: np.ndarray | None = None) -> PheromoneModel:
    """Uniform pheromone; uniform attractiveness unless an eta matrix is given."""
    tau = np.full((n_attributes, N_POSITIONS), TAU_INIT)
    if eta is None:
        eta = np.ones((n_attributes, N_POSITIONS))
    return PheromoneModel(tau, eta)


def purity_eta(table: DecisionTable, grid: PercentileGrid | None = None) -> np.ndarray:
    """Optional attractiveness: Gini impurity gain of each single candidate cut."""
    if grid is None:
        grid = PercentileGrid.from_table(table)
    labels = table.decisions
    n = table.n_objects

    def gini(ones: float, size: float) -> float:
        if size == 0:
            return 0.0
        p = ones / size
        return 2.0 * p * (1.0 - p)

    total_ones = int(labels.sum())
    parent = gini(total_ones, n)
    eta = np.empty((table.n_attributes, N_POSITIONS))
    for a in range(table.n_attributes):
        col = table.values[:, a]
        for j in range(N_POSITIONS):
            cut = grid.values[a, j]
            left = col < cut  # value == cut falls in the upper bin
            n_left = int(left.sum())
            ones_left = int(labels[left].sum())
            gain = parent - (
                n_left / n * gini(ones_left, n_left)
                + (n - n_left) / n * gini(total_ones - ones_left, n - n_left)
            )
            eta[a, j] = max(gain, ETA_FLOOR)
    return eta


def selection_probabilities(
    tau_row: np.ndarray,
    eta_row: np.ndarray,
    feasible: Iterable[int],
    alpha: float,
    beta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Probability of each feasible position: tau^alpha * eta^beta, normalized.

    Returns (positions, probabilities) with positions sorted ascending.
    """
    positions = np.array(sorted(set(int(p) for p in feasible)), dtype=np.int64)
    if positions.size == 0:
        raise ValueError("feasible set is empty")
    if positions[0] < 1 or positions[-1] > N_POSITIONS:
        raise ValueError(f"positions must lie in [1, {N_POSITIONS}]")
    weights = np.asarray(tau_row)[positions - 1] ** alpha * np.asarray(eta_row)[positions - 1] ** beta
    total = weights.sum()
    if total <= 0 or not np.isfinite(total):
        raise ValueError("selection weights must have a positive finite sum")
    return positions, weights / total


def select_next(
    tau_row: np.ndarray,
    eta_row: np.ndarray,
    feasible: Iterable[int],
    alpha: float,
    beta: float,
    rng: np.random.Generator,
) -> int:
    """Sample one position according to the pheromone/attractiveness rule."""
    positions, probs = selection_probabilities(tau_row, eta_row, feasible, alpha, beta)
    return int(rng.choice(positions, p=probs))


def construct_solution(
    model: PheromoneModel,
    params: AcoParams,
    grid: PercentileGrid,
    rng: np.random.Generator,
) -> AntSolution:
    """Pick num_cuts ascending percentile positions per attribute and realize cuts.

    Later picks are restricted above earlier ones; the upper bound leaves
    room for the cuts still to come, so construction can never strand.
    Percentile values falling on an attribute's min/max, or duplicating an
    earlier cut (ties in the data), are dropped from the realized CutSet.
    """
    if model.n_attributes != grid.n_attributes:
        raise ValueError("pheromone model does not match the candidate grid")
    k = params.num_cuts
    all_percentiles = []
    all_cuts = []
    for a in range(model.n_attributes):
        chosen = []
        prev = 0
        for c in range(k):
            upper = N_POSITIONS - (k - c - 1)
            pos = select_next(
                model.tau[a], model.eta[a], range(prev + 1, upper + 1),
                params.alpha, params.beta, rng,
            )
            chosen.append(pos)
            prev = pos
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
    return PheromoneModel(tau, model.eta)


def optimize(
    train: DecisionTable,
    params: AcoParams,
    *,
    workers: int = 1,
    eta: np.ndarray | None = None,
    progress: Callable[[IterationStats], None] | None = None,
) -> tuple[AntSolution, list[IterationStats]]:
    """Run the full colony and return the least-cost solution ever constructed.

    The training table is split FIT_FRACTION/rest into fit and validation
    parts (seeded by params.seed); candidate cut values are the integer
    percentiles of the full training table. Each ant draws from its own RNG
    stream keyed by (seed, iteration, ant index), so a fixed seed gives a
    fixed search. Ants run in order on the calling thread; ``workers`` is
    validated but does not change how the search runs.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    fit, validation = split(train, SplitSpec(train_fraction=FIT_FRACTION, seed=params.seed))
    grid = PercentileGrid.from_table(train)
    model = initial_model(train.n_attributes, eta=eta)

    best: AntSolution | None = None
    history: list[IterationStats] = []
    for iteration in range(params.num_iterations):
        solutions = []
        for ant in range(params.num_ants):
            rng = np.random.default_rng((params.seed, iteration, ant))
            solution = construct_solution(model, params, grid, rng)
            solution.cost = evaluate_solution(solution, fit, validation)
            solutions.append(solution)
            if best is None or solution.cost < best.cost:  # ties keep the earliest discovery
                best = solution
        model = update_pheromones(model, solutions, params)
        stats = IterationStats(
            iteration=iteration,
            best_cost=best.cost,
            mean_cost=float(np.mean([s.cost for s in solutions])),
        )
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

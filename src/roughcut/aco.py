"""Ant colony search over integer-percentile cut positions.

Each ant picks, per attribute, an ascending set of percentile positions in
[1, 99]; the realized cuts feed a rough-set classifier whose validation
error is the solution cost. Each pick draws a feasible position with
probability proportional to its pheromone tau raised to alpha. Pheromone on
(attribute, position) pairs decays every iteration and is reinforced in
proportion to 1/cost.

``optimize`` handles all ants of an iteration at once. Each ant draws from
its own stream, ``np.random.default_rng`` of the uint32 words numpy derives
from (seed, iteration, ant). ``_uniforms`` computes up to ``_LANES`` of these
streams in one pass of uint32/uint64 lane arithmetic, numpy's SeedSequence
-> PCG64 -> ``Generator.random`` bit for bit. ``_construct`` draws cut c for
every (ant, attribute) pair in one array pass, with one masked ``sum`` of the
feasible weights. Its draws are ``Generator.choice``'s bit for bit because
numpy's masked reduction sums each contiguous run of the mask from 0 in one
pass, as ``w.sum()`` does.
``_RankedSplit`` costs every ant through weighted rank -> bin tables and a
sort of each ant's decision-tagged cell keys, and ``_deposit`` adds every
ant's pheromone with one ``np.add.at``. Picks stay an int64 array; which of
their values become cuts is ``discretize._kept_cuts``, the rule ``efb_cuts``
keeps its cuts by, and cut values are realized (``_RankedSplit.cuts``) only
for a new best. ``evaluate_solution`` is the same cost for one ant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import DecisionTable, SplitSpec, _ArrayFields, _frozen, _integer, _real, _reals, split
from .discretize import CutSet, N_POSITIONS, _kept_cuts, apply_cuts, percentile_value_grid
from .roughset import KEY_LIMIT, _majority, _row_keys, classify_table, induce_rules

__all__ = [
    "AcoParams",
    "AntSolution",
    "IterationStats",
    "PheromoneModel",
    "evaluate_solution",
    "initial_model",
    "optimize",
    "update_pheromones",
    "write_history_csv",
]

TAU_INIT = 1.0
TAU_FLOOR = 1e-6
COST_FLOOR = 1e-3  # deposit uses max(cost, COST_FLOOR) so 1/cost stays finite
FIT_FRACTION = 0.8  # share of the training set used to fit rules; rest validates
_LANES = 1024  # (iteration, ant) streams drawn in one lane pass; bounds its memory

# numpy's SeedSequence (numpy/random/bit_generator.pyx) and PCG64 multiplier, which _uniforms reproduces
_POOL_SIZE = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


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
        for name in ("alpha", "rho", "q_deposit"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
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


@dataclass(frozen=True, eq=False)
class PheromoneModel(_ArrayFields):
    """Pheromone (tau) per attribute and position."""

    tau: np.ndarray

    def __post_init__(self):
        tau = _reals(self.tau, "tau", "attribute", (None, N_POSITIONS), f"tau must be (n_attributes, {N_POSITIONS})",
                     " at position {}")
        object.__setattr__(self, "tau", _frozen(tau, np.float64))
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


def _hasher(const: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's hash of uint32 lanes; its constant, a Python int, advances by mult with every call."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)
    return hashmix


def _uniforms(entropy: np.ndarray, n: int) -> np.ndarray:
    """``np.random.default_rng(column).random(n)`` for every column of ``entropy``, bit for bit.

    ``entropy`` is (words, lanes) uint32; returns (lanes, n) float64. All lanes
    run at once: SeedSequence mixes each lane's words into its 4-word pool and
    ``generate_state(4, np.uint64)`` hashes the pool into PCG64's initial state
    and increment, then PCG64's ``srandom`` and n XSL-RR steps give the
    outputs x, each ``(x >> 11) * 2**-53`` as in ``Generator.random``. The
    128-bit LCG state is held as uint64 halves, and the high half of the low
    halves' product is built from 32-bit limbs.
    """
    u32, u64 = np.uint32, np.uint64
    words, lanes = entropy.shape
    # a word missing from the pool hashes as 0; words past it are mixed in after
    entropy = np.concatenate([entropy.astype(u32), np.zeros((max(_POOL_SIZE - words, 0), lanes), u32)])
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        result = u32(_MIX_MULT_L) * x - u32(_MIX_MULT_R) * y
        return result ^ result >> u32(16)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = [hashmix(pool[i % _POOL_SIZE]).astype(u64) for i in range(2 * _POOL_SIZE)]
    # little-endian word pairs: (high, low) of the initial state, then of the sequence
    init_hi, init_lo, seq_hi, seq_lo = (low | high << u64(32) for low, high in zip(state[::2], state[1::2]))
    inc_hi, inc_lo = seq_hi << u64(1) | seq_lo >> u64(63), seq_lo << u64(1) | u64(1)
    mask, shift = u64(0xFFFFFFFF), u64(32)
    m0, m1 = u64(_PCG_MULT_LO & 0xFFFFFFFF), u64(_PCG_MULT_LO >> 32)

    def add(hi, lo, other_hi, other_lo):
        lo = lo + other_lo
        return hi + other_hi + (lo < other_lo), lo

    def step(hi, lo):  # state * multiplier + increment, mod 2**128
        l0, l1 = lo & mask, lo >> shift
        p0, p1, p2 = l0 * m0, l0 * m1, l1 * m0
        mid = (p0 >> shift) + (p1 & mask) + (p2 & mask)
        carry = l1 * m1 + (p1 >> shift) + (p2 >> shift) + (mid >> shift)
        return add(carry + hi * u64(_PCG_MULT_LO) + lo * u64(_PCG_MULT_HI), lo * u64(_PCG_MULT_LO), inc_hi, inc_lo)

    # srandom: a step from state 0 (which leaves the increment), add the initial state, step
    hi, lo = step(*add(inc_hi, inc_lo, init_hi, init_lo))
    out = np.empty((lanes, n))
    for i in range(n):
        hi, lo = step(hi, lo)
        x, rot = hi ^ lo, hi >> u64(58)
        out[:, i] = (x >> rot | x << ((u64(64) - rot) & u64(63))) >> u64(11)
    out *= 2.0**-53
    return out


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
    pairs at once. The first pick's feasible positions are every ant's, so
    its distributions are built once per attribute. Returns the picked
    percentiles, int64, shaped like ``draws``.
    """
    n_ants, n_attributes, k = draws.shape
    # row i: attribute i % n_attributes, row-major (tau is stored column-major), so
    # each row's feasible run is contiguous and sums as choice's w.sum() does
    rows = np.tile(np.ascontiguousarray(weights), (n_ants, 1))
    positions = np.arange(1, N_POSITIONS + 1)
    picks = np.empty(draws.shape, dtype=np.int64)
    prev = np.zeros((n_attributes, 1), dtype=np.int64)  # before the first pick: one row per attribute
    for c in range(k):
        # a row's feasible run starts at prev + 1; the prev entries before it count as <= u
        feasible = (positions > prev) & (positions <= N_POSITIONS - (k - c - 1))
        cdf = _choice_cdf(rows[:len(prev)], feasible).reshape(-1, n_attributes, N_POSITIONS)
        picks[..., c] = 1 + (cdf <= draws[..., c, None]).sum(axis=2)
        prev = picks[..., c].reshape(-1, 1)
    return picks


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

        ``percentiles`` is (ants, n_attributes, num_cuts). An ant's bins on an
        attribute are one ``take`` on the ranks from a rank -> bin table, the
        cumulated bincount of its kept percentiles. The ``roughset`` cell key
        is built in runs of attributes short enough that (num_cuts + 1) ** run
        times the number of keys stays within KEY_LIMIT = 2**62: each table is
        multiplied by its attribute's place value in the run, a run's column
        is the sum of its takes, and ``_row_keys`` combines the columns, with
        room to renumber them. Keys carry no ant: each ant's decision-tagged
        keys (``key * 4 + code`` fits in uint64) are sorted in its own row, and
        a run and a cell are also cut at every ant's first row, so each run of
        equal keys holds one (cell, code) pair's rows of one ant.
        ``roughset._majority`` decides a cell d from its fit counts, as in
        ``induce_rules``, ties (0-0 without fit rows, as in ``classify_table``)
        going to the fit prior; its rows of code 3 - d are wrong.
        """
        n_ants, n_attributes, k = percentiles.shape
        n_rows = self.ranks.shape[1]
        # the longest run whose weighted bins stay below KEY_LIMIT / (ants * rows)
        room = KEY_LIMIT // (n_ants * n_rows)
        run = next(r for r in range(1, n_attributes + 1) if r == n_attributes or (k + 1) ** (r + 1) > room)
        runs = [range(start, min(start + run, n_attributes)) for start in range(0, n_attributes, run)]
        _, kept = self._picked(percentiles)
        # tables[a, r, i]: ant i's bin on attribute a for rank r, times a's weight in its run
        slots = ((np.arange(n_attributes)[:, None] * (N_POSITIONS + 1) + percentiles) * n_ants
                 + np.arange(n_ants)[:, None, None])[kept]
        tables = np.bincount(slots, minlength=n_attributes * (N_POSITIONS + 1) * n_ants)
        tables = tables.reshape(n_attributes, N_POSITIONS + 1, n_ants).cumsum(axis=1)
        tables *= np.array([(k + 1) ** (r[-1] - a) for r in runs for a in r])[:, None, None]
        # keys[j * n_ants + i]: object j's cell key under ant i's cuts
        keys, _ = _row_keys((sum(tables[a].take(self.ranks[a], axis=0) for a in r).ravel(), (k + 1) ** len(r))
                            for r in runs)
        keys = np.left_shift(keys.view(np.uint64).reshape(n_rows, n_ants).T, 2, order="C") | self.codes
        keys.sort(axis=1)
        keys = keys.ravel()

        # one run of equal tagged keys per (cell, code) pair that occurs; each ant's
        # block of sorted keys starts a run and a cell, so none crosses two ants
        boundary = np.concatenate(([True], keys[1:] != keys[:-1]))
        boundary[::n_rows] = True
        starts = np.flatnonzero(boundary)
        blocks = starts.searchsorted(np.arange(0, keys.size, n_rows))
        tagged = keys[starts]
        new_cell = np.concatenate(([True], tagged[1:] >> 2 != tagged[:-1] >> 2))
        new_cell[blocks] = True
        cell = new_cell.cumsum() - 1
        counts = np.zeros((cell[-1] + 1, 4), dtype=np.int64)
        counts[cell, tagged & 3] = np.diff(starts, append=keys.size)
        wrong = counts[np.arange(len(counts)), 3 - _majority(counts[:, 0], counts[:, 1], self.prior)]
        return np.add.reduceat(wrong, cell[blocks]) / self.n_validation


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
    costs = _reals([s.cost for s in solutions], "cost", "solution", (None,), "each cost must be one number")
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
    # the seed's little-endian 32-bit words, as numpy reads the seed of (seed, iteration, ant)
    seed_words = [params.seed >> shift & 0xFFFFFFFF for shift in range(0, max(params.seed.bit_length(), 1), 32)]
    block = max(1, _LANES // params.num_ants)  # iterations whose streams are drawn in one pass
    for iteration in range(params.num_iterations):
        if iteration % block == 0:
            stop = min(iteration + block, params.num_iterations)
            lanes = np.arange(iteration * params.num_ants, stop * params.num_ants)  # (iteration, ant) in order
            entropy = np.array([*seed_words, 0, 0], dtype=np.uint32)[:, None].repeat(lanes.size, axis=1)
            entropy[-2:] = np.divmod(lanes, params.num_ants)
            streams = _uniforms(entropy, shape[1] * shape[2]).reshape(-1, *shape)
        draws = streams[iteration % block]
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

"""Ant colony search: pick distribution, solution construction, the batched
cost pass against the per-ant cost, pheromone updates, and the optimize
loop's determinism and convergence bookkeeping."""

import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import chisquare

import roughcut.aco as aco
from roughcut import (
    AcoParams,
    AntSolution,
    CutSet,
    DecisionTable,
    PheromoneModel,
    SplitSpec,
    default_profile,
    evaluate_solution,
    generate,
    initial_model,
    optimize,
    percentile_value_grid,
    split,
    update_pheromones,
    write_history_csv,
)
from roughcut.aco import (
    COST_FLOOR,
    FIT_FRACTION,
    N_POSITIONS,
    TAU_FLOOR,
    _choice_cdf,
    _construct,
    _deposit,
    _RankedSplit,
    _uniforms,
)
from roughcut.roughset import KEY_LIMIT
from test_discretize import interior_cuts


def make_table(values, decisions):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values.reshape(-1, 1)
    names = tuple(f"a{i}" for i in range(values.shape[1]))
    return DecisionTable(names, values, np.asarray(decisions, dtype=np.int64))


def random_train_table(rng, n=60, m=2):
    values = rng.normal(size=(n, m))
    decisions = (values[:, 0] + 0.3 * rng.normal(size=n) > 0).astype(np.int64)
    if decisions.sum() in (0, n):
        decisions[0] = 1 - decisions[0]
    return make_table(values, decisions)


def ranked_split(table):
    """``optimize``'s fit/validation split of a training table, ranked against its grid."""
    return _RankedSplit(*split(table, SplitSpec(train_fraction=FIT_FRACTION, seed=0)))


def single_cut_picks(tau, alpha, n_draws, seed):
    """Percentile picked by each of n_draws one-attribute, one-cut ants."""
    weights = np.asarray(tau, dtype=np.float64).reshape(1, N_POSITIONS) ** alpha
    draws = np.random.default_rng(seed).random((n_draws, 1, 1))
    return _construct(weights, draws)[:, 0, 0]


def test_selection_uniform_is_uniform():
    # a correct sampler fails a p > 0.01 check on 1% of seeds; this seed
    # gives p = 0.23
    draws = single_cut_picks(np.ones(N_POSITIONS), 0.09, 10_000, seed=0)
    counts = np.bincount(draws, minlength=N_POSITIONS + 1)[1:]
    assert chisquare(counts).pvalue > 0.01


def test_selection_singleton_is_certain():
    # 99 cuts leave exactly one feasible position for every pick
    rng = np.random.default_rng(503)
    weights = rng.uniform(0.05, 20.0, (2, N_POSITIONS))
    picks = _construct(weights, rng.random((50, 2, N_POSITIONS)))
    assert (picks == np.arange(1, 100)).all()


def test_selection_follows_pheromone_ratio():
    tau = np.ones(N_POSITIONS)
    tau[4] = 8.0  # position 5
    draws = single_cut_picks(tau, 1.0, 10_000, seed=504)
    assert abs((draws == 5).mean() - 8 / 106) <= 0.01
    counts = np.bincount(draws, minlength=N_POSITIONS + 1)[1:]
    assert chisquare(counts, tau / tau.sum() * draws.size).pvalue > 0.01


def test_construct_solution_orders_positions():
    rng = np.random.default_rng(505)
    table = random_train_table(rng, n=80, m=3)
    ranked = ranked_split(table)
    weights = initial_model(3).tau ** AcoParams().alpha
    picks = _construct(weights, np.random.default_rng(506).random((200, 3, 2)))
    assert picks.shape == (200, 3, 2) and picks.dtype == np.int64
    for ant in picks:
        for i, j in ant:
            assert 1 <= i < j <= N_POSITIONS
        cuts = ranked.cuts(ant)
        assert cuts == realize(ranked, ant).cuts and cuts.n_attributes == 3


def test_construct_solution_single_cut():
    weights = initial_model(1).tau ** AcoParams().alpha
    picks = _construct(weights, np.random.default_rng(508).random((100, 1, 1)))
    assert ((1 <= picks) & (picks <= N_POSITIONS)).all()


def test_construct_solution_collapses_tied_percentiles():
    # half the values are an identical plateau, so many percentile pairs
    # realize the same cut value and collapse to a shorter cut list
    rng = np.random.default_rng(509)
    plateau = np.concatenate([
        rng.uniform(0.0, 1.0, 25), np.full(50, 5.0), rng.uniform(9.0, 10.0, 25),
    ])
    decisions = (plateau > 4.0).astype(np.int64)
    table = make_table(plateau, decisions)
    ranked = ranked_split(table)
    weights = initial_model(1).tau ** AcoParams().alpha
    lengths = set()
    for ant in _construct(weights, np.random.default_rng(510).random((40, 1, 2))):
        assert ranked.cuts(ant) == realize(ranked, ant).cuts
        cuts = ranked.cuts(ant).cuts_per_attribute[0]
        lengths.add(len(cuts))
        assert len(cuts) <= 2
    assert min(lengths) < 2


def test_construct_solution_constant_attribute_yields_no_cuts():
    values = np.column_stack([np.full(30, 7.0), np.arange(30, dtype=float)])
    decisions = (np.arange(30) >= 15).astype(np.int64)
    table = make_table(values, decisions)
    ranked = ranked_split(table)
    weights = initial_model(2).tau ** AcoParams().alpha
    (ant,) = _construct(weights, np.random.default_rng(511).random((1, 2, 2)))
    assert ranked.cuts(ant).cuts_per_attribute[0] == ()
    assert len(ant[0]) == 2


def test_evaluate_solution_perfect_and_hopeless():
    train = make_table([1.0, 2.0, 3.0, 10.0, 11.0, 12.0], [0, 0, 0, 1, 1, 1])
    solution = AntSolution(((50,),), CutSet(((5.0,),)))
    validation = make_table([2.5, 9.5], [0, 1])
    assert evaluate_solution(solution, train, validation) == 0.0
    # nothing matches and the majority fallback is wrong on every object
    train_skewed = make_table([1.0, 2.0, 3.0, 10.0], [1, 1, 1, 0])
    unseen = make_table([20.0, 30.0], [0, 0])
    solution2 = AntSolution(((50,),), CutSet(((15.0,),)))
    assert evaluate_solution(solution2, train_skewed, unseen) == 1.0


def test_evaluate_solution_matches_straight_line_oracle():
    def oracle_error(train, validation, cuts_per_attr):
        def bin_row(row):
            return tuple(
                sum(1 for c in cuts if v >= c) for v, cuts in zip(row, cuts_per_attr)
            )

        groups = {}
        for row, label in zip(train.values, train.decisions):
            groups.setdefault(bin_row(row), []).append(int(label))
        ones = int(train.decisions.sum())
        default = 1 if ones >= train.n_objects - ones else 0
        wrong = 0
        for row, label in zip(validation.values, validation.decisions):
            bucket = groups.get(bin_row(row))
            if bucket is None:
                pred = default
            else:
                o = sum(bucket)
                z = len(bucket) - o
                pred = 1 if o > z else 0 if z > o else default
            wrong += int(pred != label)
        return wrong / validation.n_objects

    rng = np.random.default_rng(513)
    for _ in range(10):
        train = random_train_table(rng, n=40, m=2)
        validation = random_train_table(rng, n=25, m=2)
        lo = train.values.min(axis=0)
        hi = train.values.max(axis=0)
        cuts = tuple(
            tuple(sorted(rng.uniform(lo[a] + 1e-9, hi[a], size=2)))
            for a in range(2)
        )
        solution = AntSolution(((30, 60), (30, 60)), CutSet(cuts))
        got = evaluate_solution(solution, train, validation)
        assert got == pytest.approx(oracle_error(train, validation, cuts))


def test_construct_solution_draws_like_rng_choice():
    rng = np.random.default_rng(521)
    taus = [rng.uniform(0.05, 20.0, (3, N_POSITIONS)), 10.0 ** rng.uniform(-6, 6, (3, N_POSITIONS))]
    # at 99 cuts every pick has exactly one feasible position; fewer ants keep the reference fast
    for tau, (num_cuts, n_ants) in itertools.product(taus, [(3, 200), (1, 200), (99, 10)]):
        model = PheromoneModel(tau)
        params = AcoParams(num_cuts=num_cuts, alpha=1.3)
        weights = model.tau ** params.alpha

        def reference(gen):
            picks = []
            for a in range(3):
                chosen, prev = [], 0
                for c in range(params.num_cuts):
                    positions = np.arange(prev + 1, N_POSITIONS - (params.num_cuts - c - 1) + 1)
                    w = model.tau[a, positions - 1] ** params.alpha
                    prev = int(gen.choice(positions, p=w / w.sum()))
                    chosen.append(prev)
                picks.append(chosen)
            return picks

        ours, theirs = np.random.default_rng(522), np.random.default_rng(522)
        picks = _construct(weights, ours.random((n_ants, 3, params.num_cuts)))
        for ant in picks:
            assert ant.tolist() == reference(theirs)
        assert ours.random() == theirs.random()
        # optimize's path: each ant's own (seed, iteration, ant) stream
        draws = np.stack([np.random.default_rng((7, 0, ant)).random(3 * params.num_cuts)
                          for ant in range(n_ants // 2)]).reshape(n_ants // 2, 3, params.num_cuts)
        for ant, got in enumerate(_construct(weights, draws)):
            assert got.tolist() == reference(np.random.default_rng((7, 0, ant)))


def test_construct_solution_draws_on_a_cdf_step_like_rng_choice():
    # choice returns searchsorted(cdf, u, side="right"): a draw equal to a
    # cumulative probability moves past it, and a draw of 0.0 picks the first
    # feasible position, also above an earlier pick
    weights = np.zeros((1, N_POSITIONS))
    weights[0, :4] = 1.0  # cdf 0.25, 0.5, 0.75, then 1.0
    draws = np.array([0.0, 0.25, 0.5, 0.75, 0.9])[:, None, None]
    assert _construct(weights, draws)[:, 0, 0].tolist() == [1, 2, 3, 4, 4]
    uniform = np.ones((1, N_POSITIONS))
    assert _construct(uniform, np.array([[[0.3, 0.0]]])).tolist() == [[[30, 31]]]


def row_sums_cases():
    """Weight rows from subnormal to 1e300, and rows that sum to 0.0 and to inf."""
    rng = np.random.default_rng(525)
    spread = 10.0 ** rng.uniform(-320, 300, N_POSITIONS)
    assert spread.min() < np.finfo(np.float64).tiny
    return {
        "uniform": rng.random(N_POSITIONS),
        "subnormal-to-1e300": spread,
        "zeros": np.zeros(N_POSITIONS),
        "overflowing": 1e300 * rng.uniform(1, 1e8, N_POSITIONS),
        "with-inf": np.where(rng.random(N_POSITIONS) < 0.1, np.inf, spread),
    }


@pytest.mark.parametrize("weights", [pytest.param(w, id=name) for name, w in row_sums_cases().items()])
def test_row_sums_match_numpy_sum_bit_for_bit(weights):
    """``_choice_cdf`` totals every feasible run as ``w.sum()`` does, and builds choice's cdf from it."""
    starts, lengths = np.array([(start, n) for start in range(N_POSITIONS)
                                for n in range(1, N_POSITIONS - start + 1)]).T
    positions = np.arange(N_POSITIONS)
    feasible = (positions >= starts[:, None]) & (positions < (starts + lengths)[:, None])
    rows = np.tile(weights, (len(starts), 1))
    with np.errstate(over="ignore"):
        totals = np.array([weights[start:start + n].sum() for start, n in zip(starts, lengths)])
        ok = (totals > 0) & (totals < np.inf)
        for i in np.flatnonzero(~ok):
            with pytest.raises(ValueError, match=re.escape(f"weights tau ** alpha sum to {totals[i]};")):
                _choice_cdf(rows[i:i + 1], feasible[i:i + 1])
    for cdf, start, n, total in zip(_choice_cdf(rows[ok], feasible[ok]), starts[ok], lengths[ok], totals[ok]):
        want = (weights[start:start + n] / total).cumsum()
        want /= want[-1]
        np.testing.assert_array_equal(cdf[start:start + n].view(np.uint64), want.view(np.uint64))
        assert (cdf[:start] == 0.0).all() and (cdf[start + n:] == 1.0).all()


def realize(ranked, picks):
    """The ant that picked these percentiles: cuts as interior_cuts keeps them from ranked's grid."""
    cuts = tuple(
        interior_cuts([float(ranked.grid[a, p - 1]) for p in ps],
                      float(ranked.minima[a]), float(ranked.maxima[a]))
        for a, ps in enumerate(picks)
    )
    return AntSolution(tuple(map(tuple, picks)), CutSet(cuts))


def assert_batched_costs_match(fit, validation, picks):
    """Every ant's batched cost and cuts against evaluate_solution and interior_cuts, one ant at a time."""
    ranked = _RankedSplit(fit, validation)
    picks = np.asarray(picks, dtype=np.int64)
    ants = [realize(ranked, p) for p in picks]
    assert [ranked.cuts(p) for p in picks] == [ant.cuts for ant in ants]
    expected = [evaluate_solution(ant, fit, validation) for ant in ants]
    assert ranked.costs(picks).tolist() == expected
    return expected


def edge_case():
    """Hand-checked ants on a constant attribute a0 and a tied attribute a1.

    a1's grid: p1-p25 -> 0 (the minimum), p26-p58 -> 1, p59-p83 -> 2,
    p84-p91 -> 3, p92-p99 -> 4 (the maximum). The fit part has 4 objects of
    each class, so its prior is 1.
    """
    fit = make_table(np.column_stack([np.full(8, 3.0), [0, 0, 1, 1, 1, 2, 2, 2]]),
                     [0, 1, 0, 0, 0, 1, 1, 1])
    validation = make_table(np.column_stack([np.full(4, 3.0), [0, 1, 3, 4]]), [0, 0, 0, 1])
    picks = [
        ((10, 20), (1, 99)),   # cuts on min and max: one cell, a 4/4 tie -> prior 1
        ((10, 20), (30, 50)),  # tied percentile values: one cut at 1, both cells tie
        ((10, 20), (60, 90)),  # cuts 2 and 3: validation 3 and 4 share a cell with no fit row
        ((10, 20), (25, 26)),  # first pick on the minimum, second kept: as the second ant
    ]
    return fit, validation, picks


def test_batched_costs_on_hand_checked_edge_cases():
    assert assert_batched_costs_match(*edge_case()) == [0.75, 0.75, 0.25, 0.75]


@st.composite
def colony_cases(draw):
    """Fit and validation tables on few distinct values, and ascending picks per ant."""
    n_attributes = draw(st.integers(1, 3))
    n_fit, n_validation = draw(st.integers(2, 30)), draw(st.integers(1, 15))
    values = draw(hnp.arrays(np.float64, (n_fit + n_validation, n_attributes),
                             elements=st.integers(0, 4).map(float)))
    constant = draw(st.integers(-1, n_attributes - 1))
    if constant >= 0:
        values[:, constant] = 2.0
    decisions = draw(hnp.arrays(np.int64, n_fit + n_validation, elements=st.integers(0, 1)))
    decisions[:2] = (0, 1)  # the fit part holds both classes
    num_cuts = draw(st.integers(1, 3))
    one_pick = st.lists(st.integers(1, N_POSITIONS), min_size=num_cuts, max_size=num_cuts,
                        unique=True).map(sorted)
    picks = draw(st.lists(st.lists(one_pick, min_size=n_attributes, max_size=n_attributes),
                          min_size=1, max_size=5))
    fit = make_table(values[:n_fit], decisions[:n_fit])
    return fit, make_table(values[n_fit:], decisions[n_fit:]), picks


@settings(deadline=None)
@given(case=colony_cases())
@example(case=edge_case())
def test_batched_costs_match_evaluate_solution(case):
    assert_batched_costs_match(*case)


def test_batched_costs_renumber_wide_keys():
    # 15 attributes x up to 32 bins: an unrenumbered key would need 4 * 2**75
    # values, and int64 arithmetic would drop the leading ant digit
    rng = np.random.default_rng(524)
    distinct = rng.choice([0.0, 1.0, 2.0, 3.0], p=[0.6, 0.1, 0.15, 0.15], size=(40, 15))
    labels = (distinct[:, 0] >= 2).astype(np.int64)
    rows = np.arange(200) % 40
    decisions = np.where(rng.random(200) < 0.2, 1 - labels[rows], labels[rows])
    fit = make_table(distinct[rows[:160]], decisions[:160])
    validation = make_table(distinct[rows[160:]], decisions[160:])
    num_cuts = 31
    # each ant cuts about two attributes; its other picks all land on the minimum
    picks = [
        [np.sort(rng.choice(np.arange(1, 100 if rng.random() < 0.15 else 41), num_cuts,
                            replace=False)).tolist() for _ in range(15)]
        for _ in range(4)
    ]
    assert 4 * (num_cuts + 1) ** 15 > KEY_LIMIT
    costs = assert_batched_costs_match(fit, validation, picks)
    assert len(set(costs)) > 1


@pytest.mark.parametrize("num_cuts", [2, 31])
def test_batched_costs_split_weighted_runs(num_cuts):
    # 40 attributes: (num_cuts + 1)**40 exceeds KEY_LIMIT, so the attributes
    # are keyed in more than one run and the runs' keys are combined by
    # _row_keys. At 31 cuts a run of 12 attributes alone reaches 2**60, so a
    # run that long would leave no room to renumber the prefix before it.
    rng = np.random.default_rng(540)
    distinct = rng.choice([0.0, 1.0, 2.0, 3.0], p=[0.6, 0.1, 0.15, 0.15], size=(30, 40))
    labels = (distinct[:, 0] + distinct[:, 39] >= 3).astype(np.int64)
    rows = np.arange(150) % 30
    decisions = np.where(rng.random(150) < 0.2, 1 - labels[rows], labels[rows])
    fit = make_table(distinct[rows[:120]], decisions[:120])
    validation = make_table(distinct[rows[120:]], decisions[120:])
    # each ant cuts a few attributes, some ants in both runs; its other picks
    # all land on the minimum
    picks = [
        [np.sort(rng.choice(np.arange(1, 100 if rng.random() < 0.15 else 41), num_cuts,
                            replace=False)).tolist() for _ in range(40)]
        for _ in range(6)
    ]
    assert (num_cuts + 1) ** 40 > KEY_LIMIT
    costs = assert_batched_costs_match(fit, validation, picks)
    assert len(set(costs)) > 1


def test_batched_costs_keep_a_run_of_equal_keys_to_one_ant():
    # the first ant keeps no cut, so its largest tagged key is cell 0's
    # validation class-0 row; the second ant's cut puts the validation row,
    # the smallest value, alone in cell 0, so its smallest tagged key is the
    # same. The two equal keys meet at the ants' block edge.
    fit, validation = make_table([1.0, 2.0, 3.0, 4.0], [0, 1, 0, 1]), make_table([0.0], [0])
    assert assert_batched_costs_match(fit, validation, [((10,),), ((30,),)]) == [1.0, 1.0]


@settings(deadline=None)
@given(case=colony_cases(), seed=st.integers(0, 2**32 - 1))
@example(case=edge_case(), seed=0)
@example(case=(make_table([[1.0, 1.0], [2.0, 0.0]], [0, 1]), make_table([[3.0, 3.0]], [0]),
               [((88,), (72,)), ((39,), (61,))]), seed=0)
def test_batched_costs_do_not_depend_on_the_batch(case, seed):
    # an ant's cost is the same whichever ants share its batch, in whatever order.
    # In the second example the first ant keeps no cut, and the second ant's
    # last sorted row is its validation row alone in a cell, so a cell put in
    # the wrong ant's block at a block edge moves an error between the ants.
    fit, validation, picks = case
    picks = np.asarray(picks, dtype=np.int64)
    ranked = _RankedSplit(fit, validation)
    costs = ranked.costs(picks)
    order = np.random.default_rng(seed).permutation(len(picks))
    assert ranked.costs(picks[order]).tolist() == costs[order].tolist()
    assert [ranked.costs(ant[None]).item() for ant in picks] == costs.tolist()


def test_batched_costs_at_the_compare_2k_shape():
    # the fit and validation parts of `roughcut compare --synth-n 2000 --seed 1`
    train, _ = split(generate(default_profile(), 2000, 1), SplitSpec(train_fraction=0.7, seed=1))
    fit, validation = split(train, SplitSpec(train_fraction=FIT_FRACTION, seed=1))
    assert (fit.n_objects, validation.n_objects, fit.n_attributes) == (1120, 280, 9)
    # the two parts are a permutation of train, so they grid as train does
    ranked = _RankedSplit(fit, validation)
    np.testing.assert_array_equal(ranked.grid, percentile_value_grid(train))
    np.testing.assert_array_equal(ranked.minima, train.values.min(axis=0))
    np.testing.assert_array_equal(ranked.maxima, train.values.max(axis=0))
    weights = initial_model(9).tau ** AcoParams().alpha
    picks = _construct(weights, np.random.default_rng(535).random((10, 9, 2)))
    costs = assert_batched_costs_match(fit, validation, picks)
    assert len(set(costs)) > 1
    # 99 cuts: every position is picked, so every rank is its own bin
    every = _construct(weights, np.random.default_rng(536).random((3, 9, N_POSITIONS)))
    assert_batched_costs_match(fit, validation, every)
    # columns constant but for one larger row: every percentile falls on the
    # minimum, so no ant keeps a cut and every row shares one cell
    flat = np.zeros_like(fit.values)
    flat[0] = 1.0
    flat_fit = DecisionTable(fit.attribute_names, flat, fit.decisions)
    flat_validation = DecisionTable(fit.attribute_names, np.zeros_like(validation.values),
                                    validation.decisions)
    assert not any(_RankedSplit(flat_fit, flat_validation).cuts(picks[0]).cuts_per_attribute)
    ones = int(fit.decisions.sum())
    majority = 1 if ones >= fit.n_objects - ones else 0
    assert assert_batched_costs_match(flat_fit, flat_validation, picks) == [
        float((validation.decisions != majority).mean())] * len(picks)


def test_update_pheromones_evaporation_only():
    model = initial_model(1)
    updated = update_pheromones(model, [], AcoParams(rho=0.9))
    np.testing.assert_allclose(updated.tau, 0.1, atol=1e-12)


def test_update_pheromones_single_deposit():
    model = initial_model(1)
    ant = AntSolution(((5,),), CutSet(((0.5,),)), cost=0.25)
    updated = update_pheromones(model, [ant], AcoParams(rho=0.9, q_deposit=1.0))
    assert updated.tau[0, 4] == pytest.approx(4.1, abs=1e-12)
    assert updated.tau[0, 0] == pytest.approx(0.1, abs=1e-12)


def test_update_pheromones_summed_deposits_without_evaporation():
    model = initial_model(1)
    ants = [
        AntSolution(((7,),), CutSet(((0.5,),)), cost=0.5),
        AntSolution(((7,),), CutSet(((0.5,),)), cost=0.25),
    ]
    updated = update_pheromones(model, ants, AcoParams(rho=0.0, q_deposit=1.0))
    assert updated.tau[0, 6] == pytest.approx(7.0, abs=1e-12)
    assert updated.tau[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_deposit_matches_the_per_solution_loop_bit_for_bit():
    # five positions for 40 ants x 4 picks, so most entries take many deposits
    rng = np.random.default_rng(526)
    tau = rng.uniform(0.05, 20.0, (3, N_POSITIONS))
    percentiles = rng.integers(1, 6, (40, 3, 4))
    costs = np.where(rng.random(40) < 0.2, 0.0, rng.uniform(0.0, 0.5, 40))
    params = AcoParams(rho=0.3, q_deposit=0.7)

    deposits = np.zeros_like(tau)
    for picks, cost in zip(percentiles.tolist(), costs.tolist()):
        amount = params.q_deposit / max(cost, COST_FLOOR)
        for a, positions in enumerate(picks):
            for p in positions:
                deposits[a, p - 1] += amount
    want = np.maximum((1.0 - params.rho) * tau + deposits, TAU_FLOOR)

    got = _deposit(PheromoneModel(tau), percentiles, costs, params).tau
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    solutions = [AntSolution(tuple(map(tuple, picks)), CutSet(((),) * 3), cost)
                 for picks, cost in zip(percentiles.tolist(), costs.tolist())]
    via_public = update_pheromones(PheromoneModel(tau), solutions, params).tau
    np.testing.assert_array_equal(via_public.view(np.uint64), want.view(np.uint64))


def test_update_pheromones_requires_costs():
    model = initial_model(1)
    ant = AntSolution(((5,),), CutSet(((0.5,),)))
    with pytest.raises(ValueError, match="evaluated"):
        update_pheromones(model, [ant], AcoParams())
    # unchecked, the cost "0.5" was parsed as 0.5
    ants = [AntSolution(((5,),), CutSet(((0.5,),)), cost) for cost in (0.25, "0.5")]
    with pytest.raises(ValueError, match=r"^solution 1: cost '0\.5' is not a number$"):
        update_pheromones(model, ants, AcoParams())


def test_update_pheromones_floors():
    # zero-cost solutions deposit through the cost floor instead of dividing
    # by zero, and repeated evaporation never drives tau below its floor
    model = initial_model(1)
    ant = AntSolution(((9,),), CutSet(((0.5,),)), cost=0.0)
    updated = update_pheromones(model, [ant], AcoParams(rho=0.9, q_deposit=1.0))
    assert updated.tau[0, 8] == pytest.approx(0.1 + 1.0 / COST_FLOOR)

    for _ in range(30):
        model = update_pheromones(model, [], AcoParams(rho=0.9))
    assert (model.tau >= TAU_FLOOR).all()
    np.testing.assert_allclose(model.tau, TAU_FLOOR)


def test_pheromone_model_validation():
    with pytest.raises(ValueError):
        PheromoneModel(np.ones((2, 5)))
    with pytest.raises(ValueError):
        PheromoneModel(np.zeros((1, N_POSITIONS)))
    for nan_at in (0, N_POSITIONS - 1):
        tau = np.ones((2, N_POSITIONS))
        tau[1, nan_at] = np.nan
        with pytest.raises(ValueError, match="strictly positive"):
            PheromoneModel(tau)
    with pytest.raises(ValueError, match="strictly positive"):
        PheromoneModel(np.full((1, N_POSITIONS), np.nan))
    for inf_at in (0, N_POSITIONS - 1):
        tau = np.ones((2, N_POSITIONS))
        tau[1, inf_at] = np.inf
        with pytest.raises(ValueError, match="finite"):
            PheromoneModel(tau)
    with pytest.raises(ValueError, match="finite"):
        PheromoneModel(np.full((1, N_POSITIONS), np.inf))
    # tau is read as given, and a bad entry is named by attribute and position
    with pytest.raises(ValueError, match=r"^attribute 0: tau '1\.0' at position 0 is not a number$"):
        PheromoneModel([["1.0"] * N_POSITIONS])
    tau = np.ones((2, N_POSITIONS), dtype=object)
    tau[1, 5] = 10**400
    with pytest.raises(ValueError, match=re.escape(f"attribute 1: tau {10**400} at position 5 is not a number")):
        PheromoneModel(tau)


def test_aco_params_validation():
    with pytest.raises(ValueError, match="iteration"):
        AcoParams(num_iterations=0)
    with pytest.raises(ValueError):
        AcoParams(num_ants=0)
    with pytest.raises(ValueError):
        AcoParams(rho=1.5)
    with pytest.raises(ValueError):
        AcoParams(alpha=-0.1)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="alpha"):
            AcoParams(alpha=bad)
        with pytest.raises(ValueError, match="q_deposit"):
            AcoParams(q_deposit=bad)
    with pytest.raises(ValueError):
        AcoParams(q_deposit=0.0)
    with pytest.raises(ValueError):
        AcoParams(num_cuts=0)
    with pytest.raises(ValueError):
        AcoParams(seed=-1)
    # unchecked, each constructed and optimize then raised numpy's TypeError
    for name in ("num_ants", "num_iterations", "num_cuts", "seed"):
        for bad in (2.5, "2"):
            with pytest.raises(ValueError, match=f"^{name} {re.escape(repr(bad))} is not an integer$"):
                AcoParams(**{name: bad})
    params = AcoParams(num_ants=2.0, num_iterations=np.int64(3), num_cuts=np.uint8(1), seed=4.0)
    counts = (params.num_ants, params.num_iterations, params.num_cuts, params.seed)
    assert counts == (2, 3, 1, 4) and all(type(count) is int for count in counts)
    # unchecked, text and None raised a bare TypeError, and 10**400 was accepted
    # until optimize raised OverflowError
    for name in ("alpha", "rho", "q_deposit"):
        for bad in ("0.5", None, 10**400, 1 + 0j):
            with pytest.raises(ValueError, match=f"^{name} {re.escape(repr(bad))} is not a number$"):
                AcoParams(**{name: bad})
    params = AcoParams(alpha=Fraction(1, 2), rho=np.float32(0.5), q_deposit=2)
    reals = (params.alpha, params.rho, params.q_deposit)
    assert reals == (0.5, 0.5, 2.0) and all(type(real) is float for real in reals)


def test_optimize_is_deterministic():
    rng = np.random.default_rng(515)
    table = random_train_table(rng, n=60, m=2)
    params = AcoParams(num_ants=4, num_iterations=5, seed=3)
    best_a, history_a = optimize(table, params)
    best_b, history_b = optimize(table, params)
    assert best_a.percentiles == best_b.percentiles
    assert best_a.cost == best_b.cost
    assert history_a == history_b


def straight_line_optimize(train, params):
    """``optimize``'s loop one ant at a time: each ant draws its picks with
    ``Generator.choice`` from ``default_rng((seed, iteration, ant))`` and is
    costed by ``evaluate_solution`` on cuts kept as ``interior_cuts`` keeps them."""
    fit, validation = split(train, SplitSpec(train_fraction=FIT_FRACTION, seed=params.seed))
    grid = percentile_value_grid(train)
    lo, hi = train.values.min(axis=0), train.values.max(axis=0)
    model, best, history = initial_model(train.n_attributes), None, []
    for iteration in range(params.num_iterations):
        weights = model.tau ** params.alpha
        solutions = []
        for ant in range(params.num_ants):
            gen = np.random.default_rng((params.seed, iteration, ant))
            picks = []
            for a in range(train.n_attributes):
                chosen, prev = [], 0
                for c in range(params.num_cuts):
                    positions = np.arange(prev + 1, N_POSITIONS - (params.num_cuts - c - 1) + 1)
                    w = weights[a, positions - 1]
                    prev = int(gen.choice(positions, p=w / w.sum()))
                    chosen.append(prev)
                picks.append(tuple(chosen))
            cuts = CutSet(tuple(interior_cuts([float(grid[a, p - 1]) for p in ps], float(lo[a]), float(hi[a]))
                                for a, ps in enumerate(picks)))
            solution = AntSolution(tuple(picks), cuts)
            solution.cost = evaluate_solution(solution, fit, validation)
            solutions.append(solution)
            if best is None or solution.cost < best.cost:
                best = solution
        model = update_pheromones(model, solutions, params)
        history.append(aco.IterationStats(iteration, best.cost, float(np.mean([s.cost for s in solutions]))))
    return best, history


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3])
def test_optimize_matches_the_straight_line_colony(seed):
    # seeds of one, two and three 32-bit words, and 0, which numpy keys as one zero word
    table = random_train_table(np.random.default_rng(538), n=60, m=2)
    params = AcoParams(num_ants=5, num_iterations=3, num_cuts=3, seed=seed)
    best, history = optimize(table, params)
    want_best, want_history = straight_line_optimize(table, params)
    assert best.percentiles == want_best.percentiles
    assert best.cuts == want_best.cuts
    assert history == want_history


@pytest.mark.parametrize("n", [1, 18, 891])
@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3, 2**96 + 1])
def test_uniforms_match_default_rng_bit_for_bit(seed, n):
    # one to four seed words: with the iteration and ant, 3 to 6 entropy words,
    # so the 5- and 6-word lanes mix words in past SeedSequence's 4-word pool
    words = [seed >> shift & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)]
    lanes = [divmod(lane, 3) for lane in range(4 * 3, 4 * 3 + 7)]  # 7 lanes of 3 ants from iteration 4
    entropy = np.array([[*words, iteration, ant] for iteration, ant in lanes], dtype=np.uint32).T
    got = _uniforms(entropy, n)
    want = np.stack([np.random.default_rng(np.array([*words, iteration, ant], dtype=np.uint32)).random(n)
                     for iteration, ant in lanes])
    assert got.shape == (len(lanes), n)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("num_ants", [1, 2, 5])
def test_optimize_does_not_depend_on_the_stream_block(monkeypatch, num_ants):
    # 3 lanes: one ant draws three iterations per block (the last block short),
    # two ants one iteration, and five ants one iteration wider than the lanes
    table = random_train_table(np.random.default_rng(541), n=60, m=2)
    params = AcoParams(num_ants=num_ants, num_iterations=7, num_cuts=3, seed=2**32 + 9)
    want_best, want_history = optimize(table, params)
    monkeypatch.setattr(aco, "_LANES", 3)
    best, history = optimize(table, params)
    assert best.percentiles == want_best.percentiles
    assert best.cuts == want_best.cuts
    assert history == want_history


def test_optimize_realizes_cuts_only_for_a_new_best(monkeypatch):
    # one CutSet per iteration that lowers the running best, for the earliest
    # ant reaching the new minimum; every other ant stays a row of picks. At
    # this seed the best improves in three iterations, two of which hold more
    # than one improving ant, and one a tie for the new minimum.
    rng = np.random.default_rng(534)
    table = random_train_table(rng, n=200, m=4)
    built, iterations, splits = [], [], []
    monkeypatch.setattr(aco, "CutSet", lambda cuts: built.append(cuts) or CutSet(cuts))
    costs = _RankedSplit.costs

    def recording_costs(self, percentiles):
        splits.append(self)
        iterations.append((percentiles.tolist(), costs(self, percentiles).tolist()))
        return np.array(iterations[-1][1])

    monkeypatch.setattr(_RankedSplit, "costs", recording_costs)
    best, history = optimize(table, AcoParams(num_ants=6, num_iterations=30, seed=5))

    # optimize grids its whole training table
    np.testing.assert_array_equal(splits[0].grid, percentile_value_grid(table))
    expected, best_cost, best_picks = [], None, None
    for picks, ant_costs in iterations:
        improved = False
        for ant_picks, cost in zip(picks, ant_costs):
            if best_cost is None or cost < best_cost:
                best_cost, best_picks, improved = cost, ant_picks, True
        if improved:
            expected.append(realize(splits[0], best_picks).cuts.cuts_per_attribute)
    assert 1 < len(expected) < len(iterations)
    assert built == expected
    assert best.percentiles == tuple(map(tuple, best_picks))
    assert best.cost == best_cost == history[-1].best_cost
    assert best.cuts.cuts_per_attribute == expected[-1]


def test_optimize_names_its_fit_validation_split_when_a_class_is_too_small():
    values = np.arange(30, dtype=float)
    decisions = np.zeros(30, dtype=np.int64)
    decisions[7] = 1
    with pytest.raises(ValueError, match=r"ACO fit/validation split \(FIT_FRACTION = 0\.8\).*"
                                         r"29 objects of class 0 and 1 of class 1 cannot hold both"):
        optimize(make_table(values, decisions), AcoParams(num_ants=2, num_iterations=1))


def test_optimize_history_contract():
    rng = np.random.default_rng(517)
    table = random_train_table(rng, n=60, m=2)
    best, history = optimize(table, AcoParams(num_ants=4, num_iterations=6, seed=1))
    bests = [s.best_cost for s in history]
    assert bests == sorted(bests, reverse=True)
    assert history[-1].best_cost == best.cost
    for stats in history:
        assert stats.best_cost <= stats.mean_cost + 1e-12
    assert [s.iteration for s in history] == list(range(6))


def test_optimize_progress_callback_sees_history():
    rng = np.random.default_rng(518)
    table = random_train_table(rng, n=40, m=1)
    seen = []
    _, history = optimize(
        table, AcoParams(num_ants=3, num_iterations=4, seed=2), progress=seen.append
    )
    assert seen == history


def test_write_history_csv(tmp_path):
    rng = np.random.default_rng(520)
    table = random_train_table(rng, n=40, m=1)
    _, history = optimize(table, AcoParams(num_ants=3, num_iterations=5, seed=4))
    path = tmp_path / "convergence.csv"
    write_history_csv(history, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,best_cost,mean_cost"
    assert len(lines) == 6
    for line, stats in zip(lines[1:], history):
        it, best_cost, mean_cost = line.split(",")
        assert int(it) == stats.iteration
        assert float(best_cost) == stats.best_cost
        assert float(mean_cost) == stats.mean_cost

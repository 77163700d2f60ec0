"""Ant colony search: selection rule, solution construction, pheromone
updates, and the optimize loop's determinism and convergence bookkeeping."""

import numpy as np
import pytest
from scipy.stats import chisquare

from roughcut import (
    AcoParams,
    AntSolution,
    CutSet,
    DecisionTable,
    PercentileGrid,
    PheromoneModel,
    construct_solution,
    evaluate_solution,
    initial_model,
    optimize,
    purity_eta,
    select_next,
    selection_probabilities,
    update_pheromones,
    write_history_csv,
)
from roughcut.aco import COST_FLOOR, N_POSITIONS, TAU_FLOOR


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


def test_selection_probabilities_normalize():
    rng = np.random.default_rng(501)
    tau = rng.uniform(0.1, 5.0, N_POSITIONS)
    eta = rng.uniform(0.1, 5.0, N_POSITIONS)
    positions, probs = selection_probabilities(tau, eta, range(10, 60), 0.09, 0.09)
    assert positions.tolist() == list(range(10, 60))
    assert abs(probs.sum() - 1.0) < 1e-12
    assert (probs > 0).all()


def test_selection_uniform_is_uniform():
    tau = np.ones(N_POSITIONS)
    eta = np.ones(N_POSITIONS)
    feasible = [3, 10, 42, 77]
    # seed picked away from the 1% rejection tail a correct sampler still
    # hits occasionally; about 97.5% of seeds pass this check
    rng = np.random.default_rng(0)
    draws = [select_next(tau, eta, feasible, 0.09, 0.09, rng) for _ in range(10_000)]
    counts = [draws.count(p) for p in feasible]
    assert chisquare(counts).pvalue > 0.01


def test_selection_singleton_is_certain():
    tau = np.ones(N_POSITIONS)
    eta = np.ones(N_POSITIONS)
    rng = np.random.default_rng(503)
    for _ in range(50):
        assert select_next(tau, eta, [42], 0.09, 0.09, rng) == 42


def test_selection_follows_pheromone_ratio():
    tau = np.ones(N_POSITIONS)
    tau[4] = 8.0  # position 5
    eta = np.ones(N_POSITIONS)
    positions, probs = selection_probabilities(tau, eta, [5, 9], alpha=1.0, beta=0.0)
    np.testing.assert_allclose(probs, [8 / 9, 1 / 9])
    rng = np.random.default_rng(504)
    draws = np.array([select_next(tau, eta, [5, 9], 1.0, 0.0, rng) for _ in range(10_000)])
    assert abs((draws == 5).mean() - 8 / 9) <= 0.02


def test_selection_validation():
    tau = np.ones(N_POSITIONS)
    eta = np.ones(N_POSITIONS)
    with pytest.raises(ValueError, match="empty"):
        selection_probabilities(tau, eta, [], 1.0, 1.0)
    with pytest.raises(ValueError):
        selection_probabilities(tau, eta, [0, 5], 1.0, 1.0)
    with pytest.raises(ValueError):
        selection_probabilities(tau, eta, [100], 1.0, 1.0)


def test_construct_solution_orders_positions():
    rng = np.random.default_rng(505)
    table = random_train_table(rng, n=80, m=3)
    grid = PercentileGrid.from_table(table)
    model = initial_model(3)
    params = AcoParams(num_cuts=2, seed=0)
    gen = np.random.default_rng(506)
    for _ in range(200):
        solution = construct_solution(model, params, grid, gen)
        for pair in solution.percentiles:
            i, j = pair
            assert 1 <= i < j <= N_POSITIONS
        assert solution.cuts.n_attributes == 3


def test_construct_solution_single_cut():
    rng = np.random.default_rng(507)
    table = random_train_table(rng, n=40, m=1)
    grid = PercentileGrid.from_table(table)
    model = initial_model(1)
    params = AcoParams(num_cuts=1, seed=0)
    gen = np.random.default_rng(508)
    for _ in range(100):
        (pos,) = construct_solution(model, params, grid, gen).percentiles[0]
        assert 1 <= pos <= N_POSITIONS


def test_construct_solution_collapses_tied_percentiles():
    # half the values are an identical plateau, so many percentile pairs
    # realize the same cut value and collapse to a shorter cut list
    rng = np.random.default_rng(509)
    plateau = np.concatenate([
        rng.uniform(0.0, 1.0, 25), np.full(50, 5.0), rng.uniform(9.0, 10.0, 25),
    ])
    decisions = (plateau > 4.0).astype(np.int64)
    table = make_table(plateau, decisions)
    grid = PercentileGrid.from_table(table)
    model = initial_model(1)
    params = AcoParams(num_cuts=2, seed=0)
    gen = np.random.default_rng(510)
    lengths = set()
    for _ in range(40):
        solution = construct_solution(model, params, grid, gen)
        lengths.add(len(solution.cuts.cuts_per_attribute[0]))
        assert len(solution.cuts.cuts_per_attribute[0]) <= 2
    assert min(lengths) < 2


def test_construct_solution_constant_attribute_yields_no_cuts():
    values = np.column_stack([np.full(30, 7.0), np.arange(30, dtype=float)])
    decisions = (np.arange(30) >= 15).astype(np.int64)
    table = make_table(values, decisions)
    grid = PercentileGrid.from_table(table)
    solution = construct_solution(
        initial_model(2), AcoParams(num_cuts=2, seed=0), grid, np.random.default_rng(511)
    )
    assert solution.cuts.cuts_per_attribute[0] == ()
    assert len(solution.percentiles[0]) == 2


def test_construct_solution_checks_grid_shape():
    rng = np.random.default_rng(512)
    table = random_train_table(rng, n=30, m=2)
    grid = PercentileGrid.from_table(table)
    with pytest.raises(ValueError, match="grid"):
        construct_solution(initial_model(3), AcoParams(), grid, np.random.default_rng(0))


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


def test_update_pheromones_requires_costs():
    model = initial_model(1)
    ant = AntSolution(((5,),), CutSet(((0.5,),)))
    with pytest.raises(ValueError, match="evaluated"):
        update_pheromones(model, [ant], AcoParams())


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
        PheromoneModel(np.ones((2, 5)), np.ones((2, 5)))
    with pytest.raises(ValueError):
        PheromoneModel(np.zeros((1, N_POSITIONS)), np.ones((1, N_POSITIONS)))


def test_purity_eta_shape_and_floor():
    rng = np.random.default_rng(514)
    table = random_train_table(rng, n=50, m=2)
    eta = purity_eta(table)
    assert eta.shape == (2, N_POSITIONS)
    assert (eta > 0).all()
    # the label tracks attribute 0, so its best candidate cut should be
    # more attractive than anything the noise attribute offers
    assert eta[0].max() > eta[1].max()


def test_aco_params_validation():
    with pytest.raises(ValueError, match="iteration"):
        AcoParams(num_iterations=0)
    with pytest.raises(ValueError):
        AcoParams(num_ants=0)
    with pytest.raises(ValueError):
        AcoParams(rho=1.5)
    with pytest.raises(ValueError):
        AcoParams(alpha=-0.1)
    with pytest.raises(ValueError):
        AcoParams(q_deposit=0.0)
    with pytest.raises(ValueError):
        AcoParams(num_cuts=0)
    with pytest.raises(ValueError):
        AcoParams(seed=-1)


def test_optimize_is_deterministic():
    rng = np.random.default_rng(515)
    table = random_train_table(rng, n=60, m=2)
    params = AcoParams(num_ants=4, num_iterations=5, seed=3)
    best_a, history_a = optimize(table, params)
    best_b, history_b = optimize(table, params)
    assert best_a.percentiles == best_b.percentiles
    assert best_a.cost == best_b.cost
    assert history_a == history_b


def test_optimize_worker_count_does_not_change_results():
    rng = np.random.default_rng(516)
    table = random_train_table(rng, n=60, m=2)
    params = AcoParams(num_ants=5, num_iterations=4, seed=8)
    best_serial, history_serial = optimize(table, params, workers=1)
    best_parallel, history_parallel = optimize(table, params, workers=4)
    assert best_serial.percentiles == best_parallel.percentiles
    assert best_serial.cost == best_parallel.cost
    assert history_serial == history_parallel


def test_optimize_rejects_nonpositive_workers():
    table = random_train_table(np.random.default_rng(516), n=60, m=2)
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers"):
            optimize(table, AcoParams(num_ants=1, num_iterations=1), workers=workers)


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


def test_optimize_accepts_custom_eta():
    rng = np.random.default_rng(519)
    table = random_train_table(rng, n=50, m=2)
    eta = purity_eta(table)
    best, history = optimize(table, AcoParams(num_ants=3, num_iterations=3, seed=5), eta=eta)
    assert best.cost is not None
    assert len(history) == 3


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

"""Demand forecasting tests: lag windows, boosting, predictors."""

import json
import math
import multiprocessing
import os
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mealtwin import forecast
from mealtwin.errors import ConfigError, NumericalError
from mealtwin.evaluate import run_study
from mealtwin.forecast import (
    F_DOW,
    F_HOUR,
    F_LAG1,
    GBTParams,
    GbtDemand,
    OracleDemand,
    PackedForest,
    build_training_sets,
    evaluate,
    lag_window_counts,
    load_demand_models,
    oracle_predictor,
    persistence_eval,
    save_demand_models,
    train_demand_models,
    train_gbt,
)
from mealtwin.rlcore import dispatch_qnet, steering_qnet
from mealtwin.scenario import (
    DEFAULT_SHIFT_WEEKDAY,
    TransactionRecord,
    default_scenario,
    make_rng,
    synth_history,
)

from oracles import build_features, ensemble_predict, grid_forecasts, reference_train_gbt

T0 = datetime(2024, 1, 6, 20, 0)


def rec(minutes_before: float, grid: int = 7) -> TransactionRecord:
    return TransactionRecord(T0 - timedelta(minutes=minutes_before), grid, 0)


def test_lag_window_boundaries():
    # Windows are half-open at the older edge: an order stamped exactly 15
    # minutes back belongs to the second window, one 30 back to the third.
    history = [rec(0), rec(1), rec(14), rec(15), rec(16), rec(30), rec(31), rec(45), rec(59)]
    feats = build_features(history, 7, T0)
    assert feats.lags == (3.0, 2.0, 2.0, 2.0)
    assert feats.day_of_week == 5 and feats.hour_of_day == 20


def test_lags_ignore_other_grids_and_future():
    history = [rec(5), rec(5, grid=8), TransactionRecord(T0 + timedelta(minutes=1), 7, 0)]
    assert build_features(history, 7, T0).lags == (1.0, 0.0, 0.0, 0.0)


def test_truncated_flag():
    # A record at or beyond the 60-minute horizon proves the history covers it.
    assert build_features([rec(60)], 7, T0).truncated is False
    assert build_features([rec(59)], 7, T0).truncated is True
    assert build_features([], 7, T0).truncated is True


def test_lag_window_counts_matches_build_features():
    counts = np.zeros(120)
    order_minutes = [0, 1, 14, 15, 16, 29, 30, 44, 45, 59, 60]
    for m in order_minutes:
        counts[m] += 1
    minute = 60
    base = datetime(2024, 1, 6, 19, 0)
    history = [TransactionRecord(base + timedelta(minutes=m), 7, 0) for m in order_minutes]
    expected = build_features(history, 7, base + timedelta(minutes=minute)).lags
    assert tuple(lag_window_counts(counts, minute)) == expected


def test_lag_window_counts_truncates_before_shift_start():
    counts = np.ones(120)
    # At minute 10 only shift minutes 0..10 exist, all inside the first
    # window (-5, 10]; windows entirely before the shift count zero.
    assert tuple(lag_window_counts(counts, 10)) == (11.0, 0.0, 0.0, 0.0)
    assert tuple(lag_window_counts(counts, 0)) == (1.0, 0.0, 0.0, 0.0)
    assert tuple(lag_window_counts(counts, 119)) == (15.0, 15.0, 15.0, 15.0)
    # Rows of a count matrix get their own windows.
    both = lag_window_counts(np.stack([counts, 2 * counts]), 10)
    assert both.tolist() == [[11.0, 0.0, 0.0, 0.0], [22.0, 0.0, 0.0, 0.0]]


def test_build_training_sets_targets():
    config = default_scenario()
    base = datetime(2024, 1, 6, 19, 0)
    history = [
        TransactionRecord(base + timedelta(minutes=m), 7, 0) for m in (10, 20, 35, 119)
    ]
    sets = build_training_sets(history, config)
    X, y = sets[7]
    assert X.shape == (120, 6) and y.shape == (120,)
    assert (X[:, F_DOW] == 5).all()
    assert X[0, F_HOUR] == 19 and X[119, F_HOUR] == 20
    # Target at minute t counts orders in (t, t+15].
    assert y[4] == 1.0  # only the minute-10 order falls in (4, 19]
    assert y[5] == 2.0  # minutes 10 and 20 fall in (5, 20]
    assert y[20] == 1.0  # the minute-35 order; minute 20 itself is excluded
    assert y[110] == 1.0  # minute-119 order, window truncated at shift end
    assert y[119] == 0.0
    # Features at minute 30: lag1 = (15, 30] so the minute-20 order only.
    assert X[30, F_LAG1] == 1.0
    assert X[30, F_LAG1 + 1] == 1.0  # (0, 15] holds the minute-10 order
    # Grids without any orders still get a dataset of zeros.
    X8, y8 = sets[8]
    assert (X8[:, F_LAG1:] == 0).all() and (y8 == 0).all()
    with pytest.raises(ConfigError):
        build_training_sets([], config)
    outside = [TransactionRecord(datetime(2024, 1, 6, 8, 0), 7, 0)]
    with pytest.raises(ConfigError):
        build_training_sets(outside, config)


def test_gbt_fits_constant():
    X = np.zeros((40, 2))
    y = np.full(40, 3.5)
    model = train_gbt(X, y, GBTParams(rounds=5))
    assert model.base_score == 3.5
    assert abs(model.raw_predict_batch(np.zeros((1, 2)))[0] - 3.5) < 1e-9
    assert abs(ensemble_predict(model, np.zeros(2)) - 3.5) < 1e-9


def test_gbt_learns_a_split_and_loss_decreases():
    rng = make_rng(3)
    X = np.column_stack([rng.uniform(0, 1, 200), rng.uniform(0, 1, 200)])
    y = np.where(X[:, 1] > 0.5, 10.0, 0.0)
    model = train_gbt(X, y, GBTParams(rounds=60))
    losses = model.train_losses
    assert losses[-1] < 0.1 * losses[0]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    hi = model.raw_predict_batch(np.array([[0.2, 0.9]]))[0]
    lo = model.raw_predict_batch(np.array([[0.2, 0.1]]))[0]
    assert hi > 8.0 and lo < 2.0


def test_gbt_prediction_clamped_at_zero():
    X = np.zeros((30, 2))
    y = np.full(30, -2.0)
    model = train_gbt(X, y, GBTParams(rounds=3))
    # The unclamped raw prediction stays negative; the forecast is zero.
    assert model.raw_predict_batch(np.zeros((1, 2)))[0] < 0
    assert ensemble_predict(model, np.zeros(2)) == 0.0
    config = default_scenario()
    X6, y6 = np.zeros((30, 6)), np.full(30, -2.0)
    predictor = GbtDemand({7: train_gbt(X6, y6, GBTParams(rounds=3))}, config)
    demand = predictor.predict(30, np.zeros((25, 120)))
    assert demand[7] == 0.0 and not np.signbit(demand[7])


def test_gbt_min_leaf_blocks_tiny_splits():
    X = np.array([[0.0], [1.0], [0.0], [1.0]])
    y = np.array([0.0, 10.0, 0.0, 10.0])
    model = train_gbt(X, y, GBTParams(rounds=1, min_leaf=5))
    tree = model.trees[0]
    assert tree.feature == [-1]  # single leaf, no split possible


def test_gbt_tie_breaks_lowest_feature():
    col = np.repeat([0.0, 1.0], 10)
    X = np.column_stack([col, col])  # identical columns, identical gains
    y = np.repeat([0.0, 8.0], 10)
    model = train_gbt(X, y, GBTParams(rounds=1, min_leaf=2))
    assert model.trees[0].feature[0] == 0


def test_gbt_training_deterministic():
    rng = make_rng(5)
    X = rng.uniform(0, 4, size=(100, 6))
    y = rng.poisson(2.0, size=100).astype(float)
    a = train_gbt(X, y, GBTParams(rounds=10))
    b = train_gbt(X, y, GBTParams(rounds=10))
    assert a.train_losses == b.train_losses
    for ta, tb in zip(a.trees, b.trees):
        assert ta.feature == tb.feature and ta.threshold == tb.threshold


def test_persistence_eval_hand_case():
    X = np.zeros((4, 6))
    X[:, F_LAG1] = [1.0, 2.0, 3.0, 4.0]
    y = np.array([2.0, 2.0, 2.0, 2.0])
    mae, rmse = persistence_eval(X, y)
    assert mae == pytest.approx((1 + 0 + 1 + 2) / 4)
    assert rmse == pytest.approx(math.sqrt((1 + 0 + 1 + 4) / 4))


def test_evaluate_clamps_predictions():
    X = np.zeros((10, 2))
    y = np.zeros(10)
    model = train_gbt(X, np.full(10, -3.0), GBTParams(rounds=2))
    mae, rmse = evaluate(model, X, y)
    assert mae == 0.0 and rmse == 0.0


def test_oracle_predictor_values():
    config = default_scenario()
    assert oracle_predictor(config, 7, 0) == pytest.approx(8.4 * 0.25)
    assert oracle_predictor(config, 8, 0) == pytest.approx(4.2 * 0.25)
    assert oracle_predictor(config, 7, 119) == pytest.approx(8.4 * 0.25)
    assert oracle_predictor(config, 0, 0) == 0.0  # household-only grid
    predictor = OracleDemand(config)
    demand = predictor.predict(30, None)
    assert demand.shape == (25,) and demand.dtype == np.float64
    assert demand[7] == pytest.approx(2.1)
    # Every grid answers in one call, bitwise equal to the per-grid oracle.
    for minute in (0, 59, 60, 119):
        assert predictor.predict(minute, None).tolist() == [
            oracle_predictor(config, g, minute) for g in range(25)
        ]


def test_gbt_demand_predictor_contract():
    config = default_scenario()
    history = synth_history(config, 4, make_rng(31))
    models = train_demand_models(history, config, GBTParams(rounds=10))
    predictor = GbtDemand(models, config)
    counts = np.zeros((25, 120))
    counts[7, 40:55] = 1.0
    demand = predictor.predict(55, counts)
    assert demand.shape == (25,) and demand.dtype == np.float64
    assert (demand >= 0.0).all()
    assert demand[0] == 0.0  # no model for households
    assert demand.tobytes() == grid_forecasts(models, config, 55, counts).tobytes()
    with pytest.raises(ConfigError):
        predictor.predict(55, None)


def test_models_round_trip(tmp_path):
    config = default_scenario()
    history = synth_history(config, 3, make_rng(32))
    models = train_demand_models(history, config, GBTParams(rounds=5))
    path = tmp_path / "gbt.json"
    save_demand_models(path, models)
    back = load_demand_models(path)
    assert set(back) == set(models)
    probe = np.arange(6, dtype=np.float64)[None, :]
    for gid in models:
        assert back[gid].raw_predict_batch(probe) == pytest.approx(
            models[gid].raw_predict_batch(probe)
        )
    with pytest.raises(OSError):
        load_demand_models(tmp_path / "missing.json")


def test_fit_gives_the_same_model_file_on_one_cpu_and_on_two(tmp_path, monkeypatch):
    """The per-grid fits run serially on one usable CPU and on a fork pool on
    two; both save the same bytes, the pool is gone afterwards, and a region
    without restaurant grids gets no models either way."""
    import concurrent.futures

    pools = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    config = default_scenario()
    history = synth_history(config, 6, make_rng(33))
    saved = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        models = train_demand_models(history, config)
        assert multiprocessing.active_children() == []
        path = tmp_path / f"gbt_{cpus}.json"
        save_demand_models(path, models)
        saved.append(path.read_bytes())
    assert saved[0] == saved[1]
    assert pools == ([2] if "fork" in multiprocessing.get_all_start_methods() else [])
    monkeypatch.setattr(forecast, "build_training_sets", lambda history, config: {})
    assert train_demand_models(history, config) == {}


def test_gbt_beats_persistence_on_synthetic_holdout():
    config = default_scenario()
    train_hist = synth_history(config, 16, make_rng(41))
    hold_hist = synth_history(config, 4, make_rng(42))
    models = train_demand_models(train_hist, config, GBTParams(rounds=40))
    hold_sets = build_training_sets(hold_hist, config)
    gbt_err, base_err, n = 0.0, 0.0, 0
    for gid, (X, y) in hold_sets.items():
        mae, _ = evaluate(models[gid], X, y)
        base_mae, _ = persistence_eval(X, y)
        gbt_err += mae * len(y)
        base_err += base_mae * len(y)
        n += len(y)
    assert gbt_err / n <= base_err / n


def _random_ensemble(rng, rounds: int, max_depth: int, base_shift: float):
    X = np.column_stack(
        [np.full(300, 5.0), rng.integers(19, 21, 300), rng.poisson(2.0, (300, 4))]
    ).astype(np.float64)
    y = rng.poisson(2.0, 300) + base_shift
    return train_gbt(X, y, GBTParams(rounds=rounds, max_depth=max_depth, min_leaf=3))


def test_packed_predict_bitwise_matches_scalar_walk(tmp_path):
    config = default_scenario()
    rng = make_rng(77)
    # Tree counts and depths differ by grid; grid 9 has none and grid 19 is
    # fit to a negative target, so its raw forecast is clamped.
    shapes = {7: (12, 4), 8: (3, 1), 12: (7, 2), 13: (0, 3), 14: (20, 3), 19: (5, 2)}
    models = {
        g: _random_ensemble(rng, rounds, depth, -6.0 if g == 19 else 0.0)
        for g, (rounds, depth) in shapes.items()
    }
    path = tmp_path / "gbt.json"
    save_demand_models(path, models)
    loaded = load_demand_models(path)
    predictor = GbtDemand(loaded, config)
    counts = rng.poisson(0.3, (25, 120)).astype(np.float64)
    for minute in [0, 14, 15, 119, *rng.integers(0, 120, 40).tolist()]:
        packed = predictor.predict(minute, counts)
        assert packed.tobytes() == grid_forecasts(loaded, config, minute, counts).tobytes()
        assert packed[19] == 0.0 and packed[9] == 0.0 and packed[0] == 0.0
        assert packed[13] == loaded[13].base_score
    probe = np.column_stack([np.full(4, 5.0), np.full(4, 19.0), np.zeros((4, 4))])
    assert loaded[19].raw_predict_batch(probe).max() < 0


def _memo_case(seed: int):
    """A predictor over random ensembles that split on the hour (19 or 20,
    the default shift's hours) and on the lags, a fresh packed forest of
    the same models, and a counter of the rows the predictor walks."""
    config = default_scenario()
    rng = make_rng(seed)
    grids = (7, 8, 12, 14, 19)
    models = {g: _random_ensemble(rng, 8, 3, -6.0 if g == 19 else 0.0) for g in grids}
    predictor = GbtDemand(models, config)
    walked = []
    walk = predictor._forest.raw_predict
    predictor._forest.raw_predict = lambda X, which: walked.append(len(X)) or walk(X, which)
    return config, predictor, PackedForest([models[g] for g in grids]), np.array(grids), walked


def _fresh_walk(config, forest, grids, minute, counts):
    X = np.empty((len(grids), 6))
    X[:, F_DOW] = DEFAULT_SHIFT_WEEKDAY
    X[:, F_HOUR] = config.hour_at(minute)
    X[:, F_LAG1:] = lag_window_counts(counts[grids], minute)
    demand = np.zeros(len(config.region))
    demand[grids] = np.maximum(forest.raw_predict(X, np.arange(len(grids))), 0.0)
    return demand


def test_gbt_memo_is_bitwise_exact_and_walks_each_row_once():
    config, predictor, forest, grids, walked = _memo_case(5)
    rng = make_rng(6)
    counts = rng.poisson(0.3, (25, 120)).astype(np.float64)
    minutes = [0, 14, 15, 59, 60, 61, 119, *rng.integers(0, 120, 30).tolist()]
    assert {config.hour_at(m) for m in minutes} == {19, 20}
    for _ in range(3):
        for minute in minutes:
            demand = predictor.predict(minute, counts)
            assert demand.tobytes() == _fresh_walk(config, forest, grids, minute, counts).tobytes()
    # Every row was walked on the first pass alone, and at most once.
    distinct = {
        (g, config.hour_at(m), *lag_window_counts(counts[g], m).tolist())
        for m in minutes for g in grids
    }
    assert sum(walked) == len(distinct) == len(predictor._memo)
    # The same lags in two hours are two rows, and the hour changes some
    # forecasts of an empty shift.
    empty = np.zeros((25, 120))
    fresh = [_fresh_walk(config, forest, grids, m, empty) for m in (0, 60)]
    assert [predictor.predict(m, empty).tobytes() for m in (0, 60)] == [f.tobytes() for f in fresh]
    assert fresh[0].tobytes() != fresh[1].tobytes()


@pytest.mark.parametrize("value", [0.5, -50.0, 1024.0, np.inf, np.nan])
def test_gbt_memo_walks_rows_it_cannot_key(value):
    config, predictor, forest, grids, walked = _memo_case(8)
    counts = make_rng(9).poisson(0.3, (25, 120)).astype(np.float64)
    counts[7, 50] = value  # grid 7's first lag at minute 55 is not a small whole count
    for _ in range(2):
        demand = predictor.predict(55, counts)
        expected = _fresh_walk(config, forest, grids, 55, counts)
        assert demand.tobytes() == expected.tobytes()
    # Grid 7 is walked on both calls and never stored; the others once.
    assert walked == [len(grids), 1]
    assert len(predictor._memo) == len(grids) - 1


def test_gbt_memo_clears_at_its_cap(monkeypatch):
    monkeypatch.setattr(forecast, "MEMO_ROWS", 7)
    config, predictor, forest, grids, walked = _memo_case(10)
    counts = make_rng(11).poisson(0.5, (25, 120)).astype(np.float64)
    sizes = []
    for minute in [*range(30, 50), *range(30, 50)]:
        demand = predictor.predict(minute, counts)
        sizes.append(len(predictor._memo))
        assert demand.tobytes() == _fresh_walk(config, forest, grids, minute, counts).tobytes()
    assert max(sizes) == 7
    # The memo was cleared while full, so a drop in its size marks a call
    # that was answered right after a clear; those were checked above too.
    assert any(b < a for a, b in zip(sizes, sizes[1:]))


def assert_same_fit(X, y, params):
    """The presorted fit gives the reference walk's trees and losses, bit
    for bit."""
    def bits(values):
        return np.array(values, dtype=np.float64).tobytes()

    fit = train_gbt(X, y, params)
    ref = reference_train_gbt(X, y, params)
    assert fit.base_score == ref.base_score
    assert bits(fit.train_losses) == bits(ref.train_losses)
    assert len(fit.trees) == len(ref.trees)
    for a, b in zip(fit.trees, ref.trees):
        assert (a.feature, a.left, a.right) == (b.feature, b.left, b.right)
        assert bits(a.threshold) == bits(b.threshold) and bits(a.value) == bits(b.value)


def _fit_case(name):
    rng = make_rng(sum(map(ord, name)))
    ties = rng.integers(0, 3, (80, 6)).astype(np.float64)
    noisy = rng.normal(0.0, 1.0, 80)
    if name == "integer ties":
        return ties, rng.poisson(2.0, 80).astype(np.float64), GBTParams(rounds=15)
    if name == "constant column":
        X = ties.copy()
        X[:, 2] = 4.0
        return X, X[:, 0] * 2.0 + noisy, GBTParams(rounds=10, max_depth=3)
    if name == "min_leaf 1":
        return ties, noisy, GBTParams(rounds=8, max_depth=6, min_leaf=1)
    if name == "min_leaf n/2":
        return ties, noisy, GBTParams(rounds=8, min_leaf=40)
    if name.startswith("max_depth"):
        depth = int(name.split()[1])
        return ties, noisy + ties[:, 1], GBTParams(rounds=6, max_depth=depth, min_leaf=2)
    if name == "negative targets":
        return ties, -3.0 - rng.poisson(2.0, 80), GBTParams(rounds=10)
    if name == "n < 2 min_leaf":
        return ties[:9], noisy[:9], GBTParams(rounds=3, min_leaf=5)
    if name == "single row":
        return ties[:1], noisy[:1], GBTParams(rounds=3, min_leaf=1)
    raise KeyError(name)


@pytest.mark.parametrize(
    "name",
    [
        "integer ties",
        "constant column",
        "min_leaf 1",
        "min_leaf n/2",
        "max_depth 0",
        "max_depth 1",
        "max_depth 8",
        "negative targets",
        "n < 2 min_leaf",
        "single row",
    ],
)
def test_presorted_fit_matches_reference_walk(name):
    assert_same_fit(*_fit_case(name))


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 150),
    cols=st.integers(1, 6),
    levels=st.integers(1, 6),
    max_depth=st.integers(0, 5),
    min_leaf=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
def test_presorted_fit_matches_reference_on_drawn_data(
    rows, cols, levels, max_depth, min_leaf, seed
):
    rng = make_rng(seed)
    # Few distinct values per column, so ties and equal gains are common;
    # fractional targets make the residual sums depend on the order of ties.
    X = rng.integers(0, levels, (rows, cols)).astype(np.float64)
    y = rng.integers(-3, 4, rows) + rng.uniform(0.0, 1.0, rows)
    assert_same_fit(X, y, GBTParams(rounds=4, max_depth=max_depth, min_leaf=min_leaf))


def test_presorted_fit_matches_reference_on_demand_history():
    config = default_scenario()
    X, y = build_training_sets(synth_history(config, 2, make_rng(8)), config)[7]
    assert_same_fit(X, y, GBTParams(rounds=5, max_depth=5, min_leaf=3))


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(1, 150),
    cols=st.integers(1, 6),
    levels=st.integers(1, 6),
    rounds=st.integers(25, 40),
    max_depth=st.integers(1, 5),
    min_leaf=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
def test_fit_reusing_nodes_over_many_rounds_matches_reference(
    rows, cols, levels, rounds, max_depth, min_leaf, seed
):
    """Over many rounds most searches land on a node an earlier round built;
    the fit must still equal the reference walk, which builds every node."""
    rng = make_rng(seed)
    X = rng.integers(0, levels, (rows, cols)).astype(np.float64)
    y = rng.integers(-3, 4, rows) + rng.uniform(0.0, 1.0, rows)
    assert_same_fit(X, y, GBTParams(rounds=rounds, max_depth=max_depth, min_leaf=min_leaf))


def _two_week_grid():
    config = default_scenario()
    return build_training_sets(synth_history(config, 2, make_rng(8)), config)[7]


def test_default_fit_matches_reference_on_two_weeks_of_demand_history():
    assert_same_fit(*_two_week_grid(), GBTParams())


def test_repeat_split_searches_reuse_the_node_structure(monkeypatch):
    """A node reached again in a later round reuses its candidates, so a
    default fit builds far fewer of them than it runs split searches."""
    builds, searches = [], []
    build, best_split = forecast._Node.build, forecast._best_split
    monkeypatch.setattr(
        forecast._Node, "build", lambda node, *a: builds.append(1) or build(node, *a)
    )
    monkeypatch.setattr(
        forecast, "_best_split", lambda *a: searches.append(1) or best_split(*a)
    )
    train_gbt(*_two_week_grid(), GBTParams())
    assert 0 < len(builds) < len(searches) / 2


@pytest.mark.parametrize(
    "kwargs",
    [
        {"min_leaf": 0},
        {"min_leaf": -2},
        {"rounds": -1},
        {"max_depth": -1},
        {"l2_reg": -0.5},
        {"l2_reg": math.nan},
        {"l2_reg": math.inf},
        {"shrinkage": 0.0},
        {"shrinkage": -0.1},
        {"shrinkage": math.nan},
        {"shrinkage": math.inf},
    ],
    ids=lambda kwargs: ",".join(f"{k}={v}" for k, v in kwargs.items()),
)
def test_gbt_params_rejected_when_built(kwargs):
    with pytest.raises(ConfigError):
        GBTParams(**kwargs)


def test_gbt_params_edge_values_accepted():
    GBTParams(rounds=0, max_depth=0, min_leaf=1, l2_reg=0.0, shrinkage=1e-9)


@pytest.mark.parametrize(
    "X, y",
    [
        (np.zeros(5), np.zeros(5)),
        (np.zeros((5, 2, 1)), np.zeros(5)),
        (np.zeros((5, 2)), np.zeros(4)),
        (np.zeros((5, 2)), np.zeros((5, 1))),
        (np.array([[0.0, np.nan]] * 5), np.zeros(5)),
        (np.array([[0.0, np.inf]] * 5), np.zeros(5)),
        (np.zeros((5, 2)), np.array([0.0, 1.0, np.nan, 0.0, 0.0])),
    ],
    ids=["X 1-D", "X 3-D", "length mismatch", "y 2-D", "nan in X", "inf in X", "nan in y"],
)
def test_train_gbt_refuses_bad_data(X, y):
    with pytest.raises(ConfigError):
        train_gbt(X, y, GBTParams(rounds=2))


@pytest.mark.parametrize("shrinkage", [1e308, 1e200])
def test_train_gbt_raises_when_its_arithmetic_overflows(shrinkage):
    """A shrinkage that overflows the fitted values fails the fit, with no
    RuntimeWarning on the way (tier-1 turns those into errors)."""
    X, y = _two_week_grid()
    with pytest.raises(NumericalError, match="round"):
        train_gbt(X, y, GBTParams(rounds=5, shrinkage=shrinkage))


def _saved_model_doc(tmp_path):
    config = default_scenario()
    models = train_demand_models(synth_history(config, 2, make_rng(9)), config, GBTParams(rounds=2))
    path = tmp_path / "gbt.json"
    save_demand_models(path, models)
    return path, json.loads(path.read_text())


def _corrupt(tree: dict, case: str) -> None:
    # The root of a depth-4 fit is an internal node whose children are 1 and
    # a later node; its last node is a leaf.
    if case == "unequal lengths":
        tree["value"].append(0.0)
    elif case == "no nodes":
        for key in tree:
            tree[key] = []
    elif case == "feature 9":
        tree["feature"][0] = 9
    elif case == "feature -2":
        tree["feature"][0] = -2
    elif case == "left 99":
        tree["left"][0] = 99
    elif case == "right before node":
        tree["right"][1 if tree["feature"][1] >= 0 else 0] = 0
    elif case == "left is itself":
        tree["left"][0] = 0
    elif case == "leaf with a child":
        tree["left"][-1] = len(tree["left"]) - 1
    elif case == "nan threshold":
        tree["threshold"][0] = math.nan
    elif case == "inf value":
        tree["value"][-1] = math.inf
    elif case == "missing value list":
        del tree["value"]
    elif case == "text threshold":
        tree["threshold"][0] = "high"
    elif case == "fractional feature":
        tree["feature"][0] = tree["feature"][0] + 0.7
    elif case == "boolean left":
        tree["left"][0] = True
    elif case == "text right":
        tree["right"][0] = str(tree["right"][0])
    else:
        raise KeyError(case)


@pytest.mark.parametrize(
    "case",
    [
        "unequal lengths",
        "no nodes",
        "feature 9",
        "feature -2",
        "left 99",
        "right before node",
        "left is itself",
        "leaf with a child",
        "nan threshold",
        "inf value",
        "missing value list",
        "text threshold",
        "fractional feature",
        "boolean left",
        "text right",
    ],
)
def test_corrupt_model_file_refused_at_load(tmp_path, case):
    path, doc = _saved_model_doc(tmp_path)
    tree = doc["grids"]["7"]["trees"][1]
    assert tree["feature"][0] >= 0 and tree["feature"][-1] == -1
    _corrupt(tree, case)
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_demand_models(path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("params.min_leaf", 0),
        ("params.rounds", 2.5),
        ("params.shrinkage", math.nan),
        ("base_score", math.inf),
        ("shrinkage", math.nan),
        ("shrinkage", 5.0),  # differs from params.shrinkage, 0.1
    ],
)
def test_model_file_numbers_checked_at_load(tmp_path, key, value):
    path, doc = _saved_model_doc(tmp_path)
    entry = doc["grids"]["8"]
    if key.startswith("params."):
        entry, key = entry["params"], key.split(".")[1]
    entry[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_demand_models(path)


def test_gbt_study_gives_the_same_runs_on_a_pool(monkeypatch):
    """Each forked worker holds its own copy of the memo; the runs equal a
    serial study's, in which later variants read rows the first stored."""
    config = default_scenario(seed=3)
    history = synth_history(config, 2, make_rng(12))
    models = train_demand_models(history, config, GBTParams(rounds=10))
    nets = {
        "strategic_dispatch": dispatch_qnet(config.fleet_size, rng=make_rng(13)),
        "strategic_steering": steering_qnet(rng=make_rng(14)),
    }
    variants = ("strategic", "strategic+steer")
    studies = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        studies.append(run_study(config, variants, nets, GbtDemand(models, config), 40, 2)[0])
        assert multiprocessing.active_children() == []
    serial, pooled = ({v: [r.to_dict() for r in runs[v]] for v in variants} for runs in studies)
    assert json.dumps(serial) == json.dumps(pooled)

"""Demand forecasting tests: lag windows, boosting, predictors."""

import math
from datetime import datetime, timedelta

import numpy as np
import pytest

from mealtwin.errors import ConfigError
from mealtwin.forecast import (
    F_DOW,
    F_HOUR,
    F_LAG1,
    GBTParams,
    GbtDemand,
    OracleDemand,
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
from mealtwin.scenario import TransactionRecord, default_scenario, make_rng, synth_history

from oracles import build_features

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
    assert lag_window_counts(counts, minute) == expected


def test_lag_window_counts_truncates_before_shift_start():
    counts = np.ones(120)
    # At minute 10 only shift minutes 0..10 exist, all inside the first
    # window (-5, 10]; windows entirely before the shift count zero.
    assert lag_window_counts(counts, 10) == (11.0, 0.0, 0.0, 0.0)
    assert lag_window_counts(counts, 0) == (1.0, 0.0, 0.0, 0.0)
    assert lag_window_counts(counts, 119) == (15.0, 15.0, 15.0, 15.0)


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
    pred = model.predict(np.zeros(2))
    assert abs(pred - 3.5) < 1e-9


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
    assert model.predict(np.zeros(2)) == 0.0
    # The unclamped raw prediction stays negative.
    assert model.raw_predict_batch(np.zeros((1, 2)))[0] < 0


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
    assert OracleDemand(config).predict(7, 30, None) == pytest.approx(2.1)


def test_gbt_demand_predictor_contract():
    config = default_scenario()
    history = synth_history(config, 4, make_rng(31))
    models = train_demand_models(history, config, GBTParams(rounds=10))
    predictor = GbtDemand(models, config)
    counts = np.zeros((25, 120))
    counts[7, 40:55] = 1.0
    value = predictor.predict(7, 55, counts)
    assert value >= 0.0
    assert predictor.predict(0, 55, counts) == 0.0  # no model for households
    with pytest.raises(ConfigError):
        predictor.predict(7, 55, None)


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

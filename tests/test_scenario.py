"""Scenario configuration, order sampling, and history generation tests."""

import math
from datetime import datetime

import numpy as np
import pytest

from mealtwin.errors import ConfigError
from mealtwin.hexgrid import default_region
from mealtwin.scenario import (
    DEFAULT_SHIFT_WEEKDAY,
    ScenarioConfig,
    TransactionRecord,
    default_scenario,
    load_scenario,
    make_rng,
    read_transactions,
    sample_orders,
    sample_prep,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    synth_history,
    write_transactions,
)


def test_default_scenario_rates_and_od():
    config = default_scenario()
    assert config.fleet_size == 25
    assert config.shift_start_hour == 19
    assert config.shift_minutes == 120
    full = {7, 9, 12, 13, 17, 19}
    for gid in config.region.restaurant_ids:
        expected = 4.2 if gid in (8, 14, 18) else 8.4
        assert gid in (full | {8, 14, 18})
        assert config.hourly_rates[gid] == {19: expected, 20: expected}
        row = config.od_probs[gid]
        assert set(row) == set(range(25))
        assert all(abs(p - 1 / 25) < 1e-12 for p in row.values())
    # 6 * 8.4 + 3 * 4.2 = 63 orders per hour in total.
    total = sum(config.hourly_rates[g][19] for g in config.region.restaurant_ids)
    assert abs(total - 63.0) < 1e-9


def test_hour_at_and_rate_for():
    config = default_scenario()
    assert config.hour_at(0) == 19
    assert config.hour_at(59) == 19
    assert config.hour_at(60) == 20
    assert config.hour_at(119) == 20
    assert config.rate_for(7, 19) == 8.4
    with pytest.raises(ConfigError):
        config.rate_for(7, 21)


def test_config_validation():
    region = default_region()
    with pytest.raises(ConfigError, match="fleet_size"):
        default_scenario(fleet_size=0)
    with pytest.raises(ConfigError, match="is not >= 0"):
        ScenarioConfig(region, {7: {19: -1.0}}, {7: {0: 1.0}})
    with pytest.raises(ConfigError, match="is not >= 0"):
        ScenarioConfig(region, {7: {19: math.nan}}, {7: {0: 1.0}})
    with pytest.raises(ConfigError, match="must be >= 0"):
        ScenarioConfig(region, {}, {7: {0: 1.5, 1: -0.5}})  # sums to 1
    with pytest.raises(ConfigError, match="must be >= 0"):
        ScenarioConfig(region, {}, {7: {0: math.nan, 1: 1.0}})
    with pytest.raises(ConfigError, match="rate table references unknown grid 99"):
        ScenarioConfig(region, {99: {19: 1.0}}, {})
    with pytest.raises(ConfigError, match="sum to 0.9"):
        ScenarioConfig(region, {}, {7: {0: 0.5, 1: 0.4}})
    with pytest.raises(ConfigError, match="shift_minutes"):
        ScenarioConfig(region, {}, {}, shift_minutes=0)
    # Inputs that used to pass here and fail partway through a shift.
    config = default_scenario()
    rates = dict(config.hourly_rates)
    od = dict(config.od_probs)
    with pytest.raises(ConfigError, match="od row of grid 7 references a grid outside"):
        ScenarioConfig(region, rates, {**od, 7: {99: 1.0}})
    with pytest.raises(ConfigError, match=r"grid 8 has no arrival rate for hours \[20\]"):
        ScenarioConfig(region, {**rates, 8: {19: 4.2}}, od)
    with pytest.raises(ConfigError, match="grid 9 has orders but no od probabilities"):
        ScenarioConfig(region, rates, {g: row for g, row in od.items() if g != 9})
    # A one-hour shift needs only its own hour; a grid without orders needs no od row.
    without_8 = {g: row for g, row in od.items() if g != 8}
    ScenarioConfig(region, {**rates, 8: {19: 0.0}}, without_8, shift_minutes=60)


def test_sample_prep_moments():
    config = default_scenario()
    rng = make_rng(123)
    draws = [sample_prep(config, rng) for _ in range(20000)]
    est = np.array([e for e, _ in draws])
    noise = np.array([a - e for e, a in draws])
    assert abs(est.mean() - 10.0) < 0.1  # se = sqrt(2)/sqrt(n) ~ 0.01
    assert abs(est.var() - 2.0) < 0.15
    assert abs(noise.var() - 1.0) < 0.1
    assert (est >= 0).all()


def test_sample_prep_clamps_at_zero():
    config = default_scenario()
    rigged = ScenarioConfig(
        region=config.region,
        hourly_rates=dict(config.hourly_rates),
        od_probs=dict(config.od_probs),
        prep_mean_min=-50.0,
    )
    est, actual = sample_prep(rigged, make_rng(0))
    assert est == 0.0
    assert actual >= 0.0


def test_sample_orders_fields_and_ids():
    config = default_scenario()
    rng = make_rng(7)
    next_id = 10
    restaurant_ids = set(config.region.restaurant_ids)
    seen = []
    for minute in range(120):
        orders = sample_orders(config, minute, rng, id_start=next_id)
        for o in orders:
            assert o.placed_at == minute
            assert o.restaurant in restaurant_ids
            assert 0 <= o.household < 25
            assert o.est_prep >= 0 and o.actual_prep >= 0
            assert o.est_ready == minute + o.est_prep
            assert o.ready_time == minute + o.actual_prep
            # Event details are JSON-serialized; numpy scalars must not leak.
            assert type(o.est_prep) is float and type(o.actual_prep) is float
            assert type(o.restaurant) is int and type(o.household) is int
        seen.extend(o.id for o in orders)
        next_id += len(orders)
    assert seen == list(range(10, next_id))
    # Two hours at 63 orders/hour; loose 5-sigma band.
    count = len(seen)
    assert abs(count - 126) < 5 * math.sqrt(126)


def test_sample_orders_respects_od_row():
    config = default_scenario()
    rates = {gid: {19: 0.0, 20: 0.0} for gid in config.region.restaurant_ids}
    rates[7] = {19: 60.0, 20: 60.0}
    pinned = ScenarioConfig(
        region=config.region,
        hourly_rates=rates,
        od_probs={7: {3: 1.0}},
    )
    rng = make_rng(9)
    orders = []
    for minute in range(60):
        orders.extend(sample_orders(pinned, minute, rng))
    assert len(orders) > 20
    assert all(o.restaurant == 7 and o.household == 3 for o in orders)


def test_sampling_is_deterministic_per_stream():
    config = default_scenario()
    a = sample_orders(config, 30, make_rng(1, 2), id_start=0)
    b = sample_orders(config, 30, make_rng(1, 2), id_start=0)
    c = sample_orders(config, 30, make_rng(1, 3), id_start=0)
    assert [(o.restaurant, o.household, o.actual_prep) for o in a] == [
        (o.restaurant, o.household, o.actual_prep) for o in b
    ]
    # A different stream key almost surely changes the draw sequence.
    assert a != c or [o.actual_prep for o in a] != [o.actual_prep for o in c]


def test_synth_history_lands_on_saturdays():
    config = default_scenario()
    records = synth_history(config, 3, make_rng(11))
    assert records
    days = sorted({r.when.date() for r in records})
    assert len(days) <= 3
    for day in days:
        assert day.weekday() == DEFAULT_SHIFT_WEEKDAY
    for rec in records:
        assert rec.when.hour in (19, 20)
    # Consecutive shift days are exactly a week apart.
    for a, b in zip(days, days[1:]):
        assert (b - a).days == 7


def test_transactions_round_trip(tmp_path):
    records = [
        TransactionRecord(datetime(2024, 1, 6, 19, 5), 7, 3),
        TransactionRecord(datetime(2024, 1, 6, 20, 59), 18, 24),
    ]
    path = tmp_path / "tx.csv"
    write_transactions(path, records)
    assert read_transactions(path) == records


def test_read_transactions_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope,nope\n")
    with pytest.raises(ConfigError):
        read_transactions(path)
    path.write_text("timestamp,restaurant,household\n2024-01-06T19:05,seven,3\n")
    with pytest.raises(ConfigError):
        read_transactions(path)


def test_scenario_round_trip(tmp_path):
    config = default_scenario(seed=42, fleet_size=10)
    path = tmp_path / "scenario.json"
    save_scenario(path, config)
    back = load_scenario(path)
    assert back.region.grids == config.region.grids
    assert back.region.restaurant_flags == config.region.restaurant_flags
    assert back.hourly_rates == config.hourly_rates
    assert back.od_probs == config.od_probs
    assert back.fleet_size == 10 and back.seed == 42
    assert scenario_to_dict(back) == scenario_to_dict(config)


def test_scenario_from_dict_rejects_bad_docs():
    with pytest.raises(ConfigError):
        scenario_from_dict({"schema": "other/1"})
    doc = scenario_to_dict(default_scenario())
    del doc["fleet_size"]
    with pytest.raises(ConfigError):
        scenario_from_dict(doc)


def test_make_rng_streams():
    assert make_rng(1, 2, 3).random() == make_rng(1, 2, 3).random()
    assert make_rng(1, 2, 3).random() != make_rng(1, 2, 4).random()

"""Scenario configuration, order sampling, and history generation tests."""

import json
import math
import pickle
from datetime import datetime

import numpy as np
import pytest
from oracles import minute_draws

from mealtwin import scenario
from mealtwin.errors import ConfigError
from mealtwin.hexgrid import DEFAULT_RESTAURANT_IDS, default_region, offset_rect_region
from mealtwin.scenario import (
    DEFAULT_SHIFT_WEEKDAY,
    MAX_HOURLY_RATE,
    ScenarioConfig,
    TransactionRecord,
    default_scenario,
    load_scenario,
    make_rng,
    read_transactions,
    round_half_up,
    sample_orders,
    sample_prep,
    save_scenario,
    scenario_to_dict,
    synth_history,
    write_transactions,
)
from mealtwin.simcore import MODE_STRATEGIC, SimState


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


@pytest.mark.parametrize(
    "key, value",
    [
        ("max_delivery_tasks", 0),
        ("prep_var", -1.0),
        ("prep_noise_var", -0.5),
        ("prep_mean_min", math.nan),
        ("prep_mean_min", -math.inf),
        ("idle_threshold_min", math.nan),
        ("idle_threshold_min", math.inf),
        ("overdue_limit_min", -1.0),
        ("overdue_limit_min", math.nan),
        ("fleet_size", 2.9),
        ("max_delivery_tasks", True),
        ("shift_minutes", 60.5),
        ("shift_start_hour", "19"),
        ("seed", -1),
    ],
)
def test_scenario_fields_are_checked_at_load(tmp_path, key, value):
    """Values that used to load and then fail at minute 0 (a zero task cap,
    a negative variance) or run a shift on nonsense (NaN, a negative limit)."""
    doc = scenario_to_dict(default_scenario())
    doc[key] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=key):
        load_scenario(path)


@pytest.mark.parametrize("rate", [math.inf, 1e30, MAX_HOURLY_RATE * 2])
def test_rates_above_the_cap_are_refused_at_load(tmp_path, rate):
    doc = scenario_to_dict(default_scenario())
    doc["hourly_rates"]["7"]["19"] = rate
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="rate .* for grid 7 hour 19 is above"):
        load_scenario(path)
    doc["hourly_rates"]["7"]["19"] = MAX_HOURLY_RATE
    path.write_text(json.dumps(doc))
    assert load_scenario(path).hourly_rates[7][19] == MAX_HOURLY_RATE


def test_shift_must_stay_within_the_clock_day():
    region = default_region()
    rates = {g: {h: 1.0 for h in range(25)} for g in region.restaurant_ids}
    od = {g: {0: 1.0} for g in region.restaurant_ids}
    for hour in (-1, 24):
        with pytest.raises(ConfigError, match="not in 0..23"):
            ScenarioConfig(region, rates, od, shift_start_hour=hour, shift_minutes=60)
    with pytest.raises(ConfigError, match="runs past midnight"):
        ScenarioConfig(region, rates, od, shift_start_hour=23, shift_minutes=61)
    # The last minute of the day still belongs to hour 23.
    ScenarioConfig(region, rates, od, shift_start_hour=23, shift_minutes=60)
    ScenarioConfig(region, rates, od, shift_start_hour=0, shift_minutes=24 * 60)


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


def test_sample_orders_fields():
    config = default_scenario()
    rng = make_rng(7)
    restaurant_ids = set(config.region.restaurant_ids)
    count = 0
    for minute in range(120):
        for draw in sample_orders(config, minute, rng):
            restaurant, household, est_prep, actual_prep = draw
            assert restaurant in restaurant_ids
            assert 0 <= household < 25
            assert est_prep >= 0 and actual_prep >= 0
            # Event details are JSON-serialized; numpy scalars must not leak.
            assert tuple(map(type, draw)) == (int, int, float, float)
            count += 1
    # Two hours at 63 orders/hour; loose 5-sigma band.
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
    draws = []
    for minute in range(60):
        draws.extend(sample_orders(pinned, minute, rng))
    assert len(draws) > 20
    assert all(draw[:2] == (7, 3) for draw in draws)


def test_sampling_is_deterministic_per_stream():
    config = default_scenario()
    a = sample_orders(config, 30, make_rng(1, 2))
    b = sample_orders(config, 30, make_rng(1, 2))
    c = sample_orders(config, 30, make_rng(1, 3))
    assert a == b
    # A different stream key almost surely changes the draw sequence.
    assert a != c


BOOK_SCENARIOS = {
    "default": lambda: default_scenario(seed=2),
    "zero rates": lambda: ScenarioConfig(
        default_region(), {g: {19: 0.0, 20: 0.0} for g in DEFAULT_RESTAURANT_IDS}, {}
    ),
    "busy late corner": lambda: ScenarioConfig(
        offset_rect_region(3, 2, (0, 4)),
        {0: {22: 600.0, 23: 90.0}, 4: {22: 30.0, 23: 0.0}},
        {0: {1: 0.25, 5: 0.75}, 4: {4: 1.0}},
        fleet_size=2,
        shift_start_hour=22,
        shift_minutes=75,
    ),
}


@pytest.mark.parametrize("seed_key", [(0,), (7, 3), (1000, 19)])
@pytest.mark.parametrize("name", BOOK_SCENARIOS)
def test_book_draws_equal_minute_by_minute_sampling(name, seed_key):
    config = BOOK_SCENARIOS[name]()
    book = config.shift_book(seed_key)
    expected = minute_draws(config, seed_key)
    counts = np.zeros((len(config.region), config.shift_minutes))
    next_id = 0
    for minute, orders in enumerate(expected):
        placed = book.orders(minute, next_id)
        assert placed == orders
        for o in placed:
            assert (type(o.restaurant), type(o.household)) == (int, int)
            assert (type(o.est_prep), type(o.actual_prep)) == (float, float)
            counts[o.restaurant, minute] += 1
        next_id += len(orders)
        assert book.orders(minute, 0) == book.orders(minute, 0)  # fresh, equal orders
    assert (next_id == 0) == (name == "zero rates")
    assert book.counts().tobytes() == counts.tobytes()


class RecordingPredictor:
    """Forecasts minute + 0.5 everywhere; keeps what every call saw."""

    def __init__(self):
        self.calls = []

    def predict(self, minute, counts):
        self.calls.append((minute, counts.shape, counts.flags.writeable, counts.copy()))
        return np.full(len(counts), minute + 0.5)


def test_book_asks_each_predictor_once_per_minute():
    config = default_scenario(seed=2)
    first, second = RecordingPredictor(), RecordingPredictor()
    for predictor in (first, first, second, first):
        sim = SimState(config, mode=MODE_STRATEGIC, predictor=predictor, seed_key=(5, 1))
        seen = []
        sim.run(lambda s, oid, remaining: seen.append((s.clock, s.rounded_demand[7])))
        assert sim.book is config.shift_book((5, 1))
        # Every sim reads the book's forecast: minute + 0.5, rounded half up.
        assert seen and all(demand == minute + 1 for minute, demand in seen)
    counts = config.shift_book((5, 1)).counts()
    for stub in (first, second):
        assert [minute for minute, *_ in stub.calls] == list(range(config.shift_minutes))
        for minute, shape, writeable, seen in stub.calls:
            assert shape == (len(config.region), minute + 1) and not writeable
            assert seen.tobytes() == counts[:, : minute + 1].tobytes()


@pytest.mark.parametrize("top", [0.0, 255.4, 255.5, 7e4, 3e9, 1e15])
def test_book_forecasts_are_whole_orders_of_any_size(top):
    """The book narrows its forecast table to the values it holds; every
    forecast still reads back as the int64 half-up rounding of the clamped
    prediction."""

    class Ramp:
        def predict(self, minute, counts):
            return np.linspace(-3.0, top, len(counts)) * (minute + 1) / 120

    config = default_scenario(seed=2)
    book = config.shift_book((4,))
    predictor = Ramp()
    for minute in (0, 1, 59, 119):
        expected = round_half_up(np.maximum(predictor.predict(minute, np.zeros((25, 1))), 0.0))
        demand = book.demand(predictor, minute)
        assert demand.dtype == np.int64 and demand.tolist() == expected.tolist()


def test_book_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(scenario, "BOOK_MEMO", 2)
    config = default_scenario(seed=2)
    first = config.shift_book((1, 0))
    assert config.shift_book([1, 0]) is first
    config.shift_book((2, 0))
    config.shift_book((3, 0))  # the memo was full: cleared first
    assert list(config._books) == [(3, 0)]
    again = config.shift_book((1, 0))
    assert again is not first
    assert [again.orders(t, 0) for t in range(120)] == [first.orders(t, 0) for t in range(120)]


def test_config_pickles_without_its_books():
    config = default_scenario(seed=2)
    predictor = RecordingPredictor()
    for i in range(3):
        config.shift_book((i,)).demand(predictor, 0)
    data = pickle.dumps(config)
    assert b"ShiftBook" not in data and b"RecordingPredictor" not in data
    copy = pickle.loads(data)
    assert copy == config and copy._books == {} and len(config._books) == 3
    assert copy.shift_book((1,)).orders(30, 0) == config.shift_book((1,)).orders(30, 0)


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


def test_scenario_from_dict_rejects_bad_docs(tmp_path):
    path = tmp_path / "scenario.json"
    doc = scenario_to_dict(default_scenario())
    del doc["fleet_size"]
    for bad in ({"schema": "other/1"}, doc, []):
        path.write_text(json.dumps(bad))
        with pytest.raises(ConfigError, match="scenario file"):
            load_scenario(path)


@pytest.mark.parametrize(
    "row, column, value, message",
    [
        (0, 3, "false", "restaurant flag 'false' of grid 0"),  # bool("false") is True
        (0, 3, 0, "restaurant flag 0 of grid 0"),
        (1, 0, 0, "grid ids must be 0..24, each once"),
        (1, 0, 25, "grid ids must be 0..24, each once"),
        (1, 1, 0.5, "q 0.5 is not a whole number"),
    ],
)
def test_malformed_layout_rows_are_refused(tmp_path, row, column, value, message):
    doc = scenario_to_dict(default_scenario())
    doc["layout"]["grids"][row][column] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=f"scenario file .*{message}"):
        load_scenario(path)


def test_make_rng_streams():
    assert make_rng(1, 2, 3).random() == make_rng(1, 2, 3).random()
    assert make_rng(1, 2, 3).random() != make_rng(1, 2, 4).random()

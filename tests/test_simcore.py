"""Simulation engine tests on small hand-computable setups.

Random arrivals are switched off (zero rates) and orders injected directly,
so every task milestone can be checked against explicit arithmetic.
"""

import numpy as np
import pytest

from mealtwin.errors import ConfigError, ContractError
from mealtwin.hexgrid import default_region
from mealtwin.scenario import Order, ScenarioConfig, default_scenario, round_half_up
from mealtwin.simcore import (
    IDLE,
    LEGAL_TRANSITIONS,
    MODE_MYOPIC,
    MODE_STRATEGIC,
    REALLOCATING,
    SimState,
    TO_DELIVERY,
    TO_PICKUP,
    WAITING,
    Event,
    events_from_csv,
    events_to_csv,
)

from oracles import assign


def quiet_config(fleet: int = 3) -> ScenarioConfig:
    region = default_region()
    rates = {g: {19: 0.0, 20: 0.0} for g in region.restaurant_ids}
    return ScenarioConfig(region=region, hourly_rates=rates, od_probs={}, fleet_size=fleet)


def noop(sim, oid, remaining) -> None:
    pass


def add_order(sim: SimState, restaurant: int, household: int, est: float, actual: float) -> Order:
    o = Order(
        id=sim.sampled,
        placed_at=sim.clock,
        restaurant=restaurant,
        household=household,
        est_prep=est,
        actual_prep=actual,
    )
    sim.place_order(o)
    return o


def logged(sim: SimState, o: Order, event: str) -> dict:
    """The detail of the order's one `event` entry in the event log."""
    (detail,) = [e.detail for e in sim.events if e.entity == f"order:{o.id}" and e.event == event]
    return detail


def make_sim(fleet: int = 3, mode: str = MODE_MYOPIC, grids=(0, 0, 0)) -> SimState:
    sim = SimState(quiet_config(fleet), mode=mode, seed_key=(0,))
    for c, g in zip(sim.couriers, grids):
        c.grid = g
    return sim


def tick(sim: SimState, minutes: int = 1) -> None:
    for _ in range(minutes):
        sim.step(noop)


def test_mode_and_placement():
    with pytest.raises(ConfigError):
        SimState(quiet_config(), mode="clairvoyant")
    a = SimState(quiet_config(5), seed_key=(3, 1))
    b = SimState(quiet_config(5), seed_key=(3, 1))
    assert [c.grid for c in a.couriers] == [c.grid for c in b.couriers]
    assert all(0 <= c.grid < 25 for c in a.couriers)
    assert a.events[0].event == "shift_start"


def test_transition_table_frozen():
    assert LEGAL_TRANSITIONS == {
        IDLE: {TO_PICKUP, REALLOCATING},
        TO_PICKUP: {WAITING, TO_DELIVERY},
        WAITING: {TO_DELIVERY},
        TO_DELIVERY: {IDLE, TO_PICKUP},
        REALLOCATING: {IDLE, TO_PICKUP},
    }


def test_delivery_milestones_exact():
    sim = make_sim()
    assert sim.region.distance(0, 7) == 3 and sim.region.distance(7, 24) == 3
    o = add_order(sim, restaurant=7, household=24, est=5.0, actual=5.0)
    assign(sim, o.id, 0)
    c = sim.couriers[0]
    # Travel 3 units at 3 min each; the meal (ready at 5.0) waits for nobody.
    assert c.arrive_time == 9.0
    assert c.pickup_time == 9.0
    assert c.done_time == 18.0
    assert o.status == "assigned"
    assigned = logged(sim, o, "assigned")
    assert (assigned["courier"], assigned["pickup_distance"], assigned["arrival"]) == (0, 3, 9.0)
    tick(sim, 9)
    assert c.status == TO_DELIVERY  # picked up at minute 9 exactly
    assert o.status == "picked_up" and logged(sim, o, "pickup")["time"] == 9.0
    tick(sim, 9)
    assert c.status == IDLE and c.grid == 24
    assert o.status == "delivered" and logged(sim, o, "delivered")["time"] == 18.0
    assert c.distance == 6 and c.served == 1
    assert c.idle_since == 18.0
    assert sim.delivered == 1


def test_waiting_interposed_when_meal_not_ready():
    sim = make_sim()
    o = add_order(sim, restaurant=7, household=24, est=12.0, actual=20.5)
    assign(sim, o.id, 0)
    c = sim.couriers[0]
    assert c.arrive_time == 9.0
    assert c.pickup_time == 20.5  # actual ready beats arrival
    assert c.done_time == 29.5
    tick(sim, 10)
    assert c.status == WAITING
    tick(sim, 11)
    assert c.status == TO_DELIVERY
    statuses = [
        (e.detail["from"], e.detail["to"], e.detail["time"])
        for e in sim.events
        if e.event == "status" and e.detail["courier"] == 0
    ]
    assert statuses[:3] == [
        (IDLE, TO_PICKUP, 0.0),
        (TO_PICKUP, WAITING, 9.0),
        (WAITING, TO_DELIVERY, 20.5),
    ]
    tick(sim, 9)
    assert c.status == IDLE and logged(sim, o, "delivered")["time"] == 29.5


def test_same_minute_zero_distance_delivery():
    sim = make_sim(grids=(7, 0, 0))
    o = add_order(sim, restaurant=7, household=7, est=0.0, actual=0.0)
    assign(sim, o.id, 0)
    c = sim.couriers[0]
    assert c.done_time == 0.0
    tick(sim)
    assert c.status == IDLE and c.grid == 7
    assert o.status == "delivered" and logged(sim, o, "delivered")["time"] == 0.0
    assert c.distance == 0 and c.idle_since == 0.0


def test_task_chaining_and_cap():
    sim = make_sim(grids=(7, 0, 0))
    a = add_order(sim, restaurant=7, household=24, est=0.0, actual=0.0)
    b = add_order(sim, restaurant=7, household=0, est=0.0, actual=0.0)
    assign(sim, a.id, 0)
    assign(sim, b.id, 0)
    c = sim.couriers[0]
    assert c.delivery_task_count() == 2
    third = add_order(sim, restaurant=7, household=1, est=0.0, actual=0.0)
    with pytest.raises(ContractError):
        assign(sim, third.id, 0)
    # First delivery lands at 9.0; the second leg starts exactly then.
    tick(sim, 10)
    assert c.status == TO_PICKUP and c.arrive_time == 9.0 + 3 * sim.region.distance(24, 7)
    assert c.active_from == 24
    # 24 -> 7 takes 9 minutes, then 7 -> 0 another 9.
    assert c.arrive_time == 18.0 and c.done_time == 27.0
    tick(sim, 9)  # clock 19: picked up at 18, still en route
    assert b.status == "picked_up" and logged(sim, b, "pickup")["time"] == 18.0
    tick(sim, 8)  # clock 27 == done_time
    assert c.status == IDLE and c.grid == 0
    assert c.served == 2 and c.distance == 9


def test_projected_arrival_matches_realized_times():
    sim = make_sim(grids=(0, 0, 0))
    a = add_order(sim, restaurant=7, household=13, est=4.0, actual=11.25)
    assign(sim, a.id, 0)
    # Projection for a follow-up order must reproduce the engine arithmetic,
    # actual prep times included.
    g, d, arrival = sim.projected_arrival(0, 18)
    assert g == 13
    assert d == sim.region.distance(13, 18)
    done_first = max(9.0, 11.25) + 3 * sim.region.distance(7, 13)
    assert arrival == done_first + 3 * d
    b = add_order(sim, restaurant=18, household=2, est=0.0, actual=0.0)
    assign(sim, b.id, 0)
    assert logged(sim, b, "assigned")["arrival"] == arrival
    final_done = arrival + 3 * sim.region.distance(18, 2)
    tick(sim, int(np.ceil(final_done)) + 1)
    c = sim.couriers[0]
    assert c.status == IDLE
    assert logged(sim, a, "delivered")["time"] == done_first
    assert logged(sim, b, "pickup")["time"] == max(arrival, b.ready_time)


def test_eta_idle_uses_kitchen_estimates():
    sim = make_sim()
    o = add_order(sim, restaurant=7, household=24, est=30.0, actual=3.0)
    assign(sim, o.id, 0)
    g, dt = sim.courier_eta_idle(0)
    assert g == 24
    # Policy-visible wait uses est_ready (30), not the realized 3.0.
    assert dt == max(9.0, 30.0) + 9.0
    g2, _, arr = sim.projected_arrival(0, 7)
    assert arr == max(9.0, 3.0) + 9.0 + 3 * sim.region.distance(24, 7)
    assert g2 == 24


def test_reallocation_mechanics():
    sim = make_sim(grids=(12, 0, 0))
    target = next(n for n in sim.region.neighbor_ids(12) if n is not None)
    sim.apply_reallocation(0, target)
    c = sim.couriers[0]
    assert c.status == REALLOCATING and c.done_time == 3.0
    with pytest.raises(ContractError):
        sim.apply_reallocation(0, target)  # no longer idle
    with pytest.raises(ContractError):
        sim.apply_reallocation(1, 24)  # not adjacent to grid 0
    assert None in sim.region.neighbor_ids(0)
    with pytest.raises(ContractError):
        sim.apply_reallocation(1, None)  # an out-of-region slot is no grid
    assert sim.couriers[1].status == IDLE and not sim.couriers[1].queue
    tick(sim, 3)
    assert c.status == IDLE and c.grid == target
    assert c.distance == 1 and c.idle_since == 3.0
    realloc = [e for e in sim.events if e.event == "realloc"]
    assert realloc[0].detail == {"courier": 0, "from": 12, "to": target}


def test_dispatch_queued_behind_reallocation():
    sim = make_sim(grids=(12, 0, 0))
    target = next(n for n in sim.region.neighbor_ids(12) if n is not None)
    sim.apply_reallocation(0, target)
    o = add_order(sim, restaurant=7, household=24, est=0.0, actual=0.0)
    assign(sim, o.id, 0)
    c = sim.couriers[0]
    assert [t.kind for t in c.queue] == ["reallocate", "delivery"]
    # Pickup leg starts at the reallocation finish, from the new grid.
    assert logged(sim, o, "assigned")["arrival"] == 3.0 + 3 * sim.region.distance(target, 7)
    tick(sim, 4)
    assert c.status == TO_PICKUP and c.active_from == target
    assert c.arrive_time == 3.0 + 3 * sim.region.distance(target, 7)


def test_postpone_and_overdue_mechanics():
    sim = make_sim()
    o = add_order(sim, restaurant=7, household=1, est=1.0, actual=1.0)
    sim.apply_postpone(o.id, remove_overdue=False)
    assert o.status == "pending" and o.id in sim.pending
    sim.apply_postpone(o.id, remove_overdue=True)
    assert o.status == "overdue" and o.id not in sim.pending
    assert sim.overdue == 1
    with pytest.raises(ContractError):
        sim.apply_postpone(o.id, remove_overdue=False)
    kinds = [e.event for e in sim.events if e.entity == f"order:{o.id}"]
    assert kinds == ["postponed", "overdue"]


def test_steering_eligibility_strictly_beyond_threshold():
    sim = make_sim(fleet=3, grids=(5, 6, 7))
    tick(sim, 5)
    assert sim.clock == 5
    assert sim.eligible_steering_ids() == []  # 5 - 0 is not > 5
    tick(sim)
    assert sim.eligible_steering_ids() == [0, 1, 2]
    o = add_order(sim, restaurant=7, household=1, est=9.0, actual=9.0)
    assign(sim, o.id, 1)
    assert sim.eligible_steering_ids() == [0, 2]


def test_current_gap_field():
    sim = make_sim(fleet=3, grids=(7, 7, 8))
    add_order(sim, restaurant=7, household=0, est=5.0, actual=5.0)
    add_order(sim, restaurant=14, household=0, est=5.0, actual=5.0)
    field = sim.gap_field()  # myopic: idle now minus pending now
    assert field[7] == 1  # two idle minus one pending
    assert field[8] == 1
    assert field[14] == -1
    assert field.sum() == 3 - 2
    assert sim.gap_field()[7] == 1
    assert sim.gap_field()[14] == -1


@pytest.mark.parametrize("first", ["dispatch", "reallocation"])
def test_idle_counts_are_taken_before_the_first_action(first):
    """The idle counts are taken before the first action on a courier, even
    when nothing has read them yet, so they see that courier leave idle."""
    sim = make_sim(fleet=3, grids=(7, 7, 8))
    if first == "dispatch":
        assign(sim, add_order(sim, restaurant=7, household=0, est=5.0, actual=5.0).id, 0)
    else:
        sim.apply_reallocation(0, next(g for g in sim.region.neighbor_ids(7) if g is not None))
    counts = sim.idle_counts()
    assert (counts[7], counts[8], counts.sum()) == (1, 1, 2)


class StubPredictor:
    """Fixed per-grid demand; records the minute of every call."""

    def __init__(self, values):
        self.values = values
        self.minutes = []

    def predict(self, minute, counts):
        self.minutes.append(minute)
        return np.array([self.values.get(g, 0.0) for g in range(len(counts))])


def test_anticipated_gap_field():
    sim = make_sim(fleet=3, mode=MODE_STRATEGIC, grids=(7, 7, 0))
    sim.predictor = StubPredictor({7: 1.6, 8: 0.5, 14: 0.49})
    assert sim.region.distance(7, 20) == 4
    far = add_order(sim, restaurant=7, household=20, est=4.0, actual=4.0)
    near = add_order(sim, restaurant=7, household=13, est=4.0, actual=4.0)
    assign(sim, far.id, 0)  # idle at 20 at minute 16, outside window
    assign(sim, near.id, 1)  # idle at 13 at minute 7, inside window
    sim.refresh_predictions()
    field = sim.gap_field()  # strategic: anticipated over 15 minutes
    assert field[0] == 1  # the only courier idle right now
    assert field[13] == 1  # eta 7 <= 15 counts as anticipated supply
    assert field[20] == 0  # eta 16 > 15 does not
    assert field[7] == -2  # round-half-up(1.6) demand, no supply
    assert field[8] == -1  # 0.5 rounds up
    assert field[14] == 0  # 0.49 rounds down
    assert sim.gap_field()[7] == -2
    assert sim.rounded_demand.dtype == np.int64
    assert sim.rounded_demand[[7, 8, 14]].tolist() == [2, 1, 0]


def test_predictor_called_once_per_strategic_minute():
    for mode, expected in ((MODE_STRATEGIC, list(range(120))), (MODE_MYOPIC, [])):
        sim = make_sim(fleet=2, mode=mode, grids=(7, 8))
        stub = StubPredictor({7: 1.6})
        sim.predictor = stub
        # Myopic mode holds zero demand even with a predictor set.
        sim.refresh_predictions()
        assert sim.rounded_demand.sum() == (2 if mode == MODE_STRATEGIC else 0)
        sim.run(noop)
        assert stub.minutes == expected
        with pytest.raises(ContractError, match="over"):
            sim.refresh_predictions()


def test_predictor_shape_is_checked():
    sim = make_sim(fleet=1, mode=MODE_STRATEGIC)
    sim.predictor = type("Short", (), {"predict": lambda self, m, c: np.zeros(3)})()
    with pytest.raises(ContractError, match="shape"):
        sim.refresh_predictions()


def test_round_half_up():
    assert round_half_up(0.5) == 1
    assert round_half_up(1.49) == 1
    assert round_half_up(2.5) == 3
    assert round_half_up(-0.5) == 0
    assert round_half_up(-0.51) == -1


def test_snapshot_and_summary_accounting():
    sim = make_sim(fleet=2, grids=(7, 8))
    o = add_order(sim, restaurant=7, household=9, est=2.0, actual=2.0)
    assign(sim, o.id, 0)
    while sim.clock < sim.config.shift_minutes:
        sim.step(noop)
    with pytest.raises(ContractError):
        sim.step(noop)
    sim.finish()
    snapshots = [e for e in sim.events if e.event == "snapshot"]
    assert len(snapshots) == 120
    assert all(len(e.detail["idle"]) == 25 for e in snapshots)
    summaries = [e for e in sim.events if e.event == "courier_summary"]
    assert len(summaries) == 2
    for e in summaries:
        total = (
            e.detail["delivery_minutes"]
            + e.detail["idle_minutes"]
            + e.detail["realloc_minutes"]
        )
        assert total == pytest.approx(120.0)
    busy = summaries[0].detail
    assert busy["served"] == 1 and busy["distance"] == sim.couriers[0].distance
    shift = [e for e in sim.events if e.event == "shift_summary"][0].detail
    assert shift == {"sampled": 1, "delivered": 1, "overdue": 0, "active": 0}
    sim.finish()  # idempotent
    assert sum(1 for e in sim.events if e.event == "shift_summary") == 1


def test_status_event_legality_over_a_random_shift():
    # Event-log replay of the transition machine over a busy random shift.
    config = default_scenario(seed=0, fleet_size=8)
    sim = SimState(config, mode=MODE_MYOPIC, seed_key=(99,))

    def greedy(s: SimState, oid: int, remaining) -> None:
        o = s.orders[oid]
        for c in s.couriers:
            if c.status == IDLE and c.delivery_task_count() < 2:
                assign(s, oid, c.id)
                return
        if s.clock - o.ready_time > s.config.overdue_limit_min:
            s.apply_postpone(oid, remove_overdue=True)
        else:
            s.apply_postpone(oid, remove_overdue=False)

    sim.run(greedy)
    last: dict = {}
    status_events = 0
    for e in sim.events:
        if e.event != "status":
            continue
        status_events += 1
        cid = e.detail["courier"]
        src, dst = e.detail["from"], e.detail["to"]
        assert last.get(cid, IDLE) == src
        assert dst in LEGAL_TRANSITIONS[src]
        last[cid] = dst
    assert status_events > 50
    delivered = [e for e in sim.events if e.event == "delivered"]
    assert sim.delivered == len(delivered) > 0


def test_minute_counts_track_placements():
    sim = SimState(default_scenario(seed=1), mode=MODE_MYOPIC, seed_key=(5,))
    tick(sim, 30)
    placed = [e for e in sim.events if e.event == "placed"]
    counts = sim.book.counts()[:, : sim.clock]
    assert counts.sum() == len(placed)
    for e in placed:
        assert counts[e.detail["restaurant"], e.minute] >= 1


def test_events_csv_round_trip(tmp_path):
    sim = make_sim()
    o = add_order(sim, restaurant=7, household=3, est=1.5, actual=2.25)
    assign(sim, o.id, 0)
    tick(sim, 2)
    path = tmp_path / "events.csv"
    events_to_csv(sim.events, path)
    assert events_from_csv(path) == sim.events


def test_events_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n")
    with pytest.raises(ConfigError):
        events_from_csv(path)
    path.write_text("minute,entity,event,detail\n0,x,y,{not json}\n")
    with pytest.raises(ConfigError):
        events_from_csv(path)
    path.write_text("minute,entity,event,detail\n")
    assert events_from_csv(path) == []


def test_all_event_details_json_safe(tmp_path):
    sim = SimState(default_scenario(seed=2, fleet_size=5), mode=MODE_MYOPIC, seed_key=(1,))

    def eager(s, oid, remaining):
        for c in s.couriers:
            if c.delivery_task_count() < 2:
                assign(s, oid, c.id)
                return

    tick_target = 40
    for _ in range(tick_target):
        sim.step(eager)
    path = tmp_path / "events.csv"
    events_to_csv(sim.events, path)  # json.dumps raises on numpy leakage
    assert path.read_text().startswith("minute,entity,event,detail")

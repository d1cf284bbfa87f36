"""Held courier rows against a fleet projection recomputed at every decision.

Each shift below checks, before every dispatch and steering decision, that
the rows, the held action mask, the idle and pending counts, the gap field,
every grid's gap, the dispatch state and the action mask are bitwise what a
fresh courier-by-courier computation gives; at a steering decision also the
eligible couriers, the courier's steering state and the reward of every
move it could make.  Several decisions fall in one minute, so a row (or the
gap field's share of it) that apply_dispatch or apply_reallocation failed
to rebuild shows up at the next one; rows live across minutes, so one the
engine failed to mark stale shows up at a later minute.  Further tests count
the projections each minute's refresh makes, and check that refused actions
leave every piece of held state as it was.
"""

import numpy as np
import pytest

from mealtwin.dispatch import (
    NearestIdlePolicy,
    apply_dispatch_decision,
    encode_dispatch_state,
)
from mealtwin.forecast import OracleDemand
from mealtwin.hexgrid import offset_rect_region
from mealtwin.scenario import ScenarioConfig, default_scenario
from mealtwin.errors import ContractError
from mealtwin.simcore import DELIVERY, IDLE, MODE_MYOPIC, MODE_STRATEGIC, WAITING, SimState
from mealtwin.steering import STAY, apply_steer_decision, encode_steer_state, reward_reallocate

from oracles import (
    fresh_dispatch_state,
    fresh_eligible_ids,
    fresh_gap_field,
    fresh_idle_counts,
    fresh_pending_counts,
    fresh_rows,
    fresh_steer_state,
    shifted_field_reward,
)

IN_FLIGHT = ("pending", "assigned", "picked_up")


def same_bits(got: np.ndarray, expected: np.ndarray) -> bool:
    return (
        got.dtype == expected.dtype
        and got.shape == expected.shape
        and got.tobytes() == expected.tobytes()
    )


def check_against_fresh(sim: SimState, oid=None, cid=None) -> None:
    """Compare everything read from the rows with the fresh oracle; oid is
    the order being decided, cid the courier at a steering decision."""
    # A reallocation is only ever queued on an idle courier, whose queue is
    # empty, so it can only be the head: delivery_task_count relies on it.
    assert all(t.kind == DELIVERY for c in sim.couriers for t in c.queue[1:])
    rows = sim.courier_rows()
    grid, eta, tasks = fresh_rows(sim)
    for held, fresh in zip((rows.grid, rows.eta), (grid, eta)):
        assert same_bits(held, fresh)
    assert same_bits(rows.mask, np.append(tasks < sim.config.max_delivery_tasks, True))
    assert same_bits(sim.idle_counts(), fresh_idle_counts(sim))
    assert same_bits(sim.pending_counts(), fresh_pending_counts(sim))
    field = fresh_gap_field(sim)
    assert same_bits(sim.gap_field(), field)
    if oid is None and sim.pending:
        oid = sim.pending[0]
    if oid is not None:
        s, mask = encode_dispatch_state(sim, oid)
        s_fresh, mask_fresh = fresh_dispatch_state(sim, oid)
        assert same_bits(s, s_fresh)
        assert same_bits(mask, mask_fresh)
    if cid is not None:
        assert sim.eligible_steering_ids() == fresh_eligible_ids(sim)
        origin = sim.couriers[cid].grid
        s, mask = encode_steer_state(sim, cid)
        s_fresh, mask_fresh = fresh_steer_state(sim.region, field, origin)
        assert same_bits(s, s_fresh)
        assert same_bits(mask, mask_fresh)
        for target in sim.region.neighbor_ids(origin):
            if target is not None:
                expected = shifted_field_reward(sim.region, field, origin, target)
                assert reward_reallocate(sim, origin, target) == expected


def run_checked_shift(config: ScenarioConfig, mode: str, steer: bool, seed: int) -> int:
    """One shift in which dispatch mixes nearest-idle and random valid actions
    (so queues chain), and steering moves eligible couriers at random;
    returns the number of steering decisions."""
    predictor = OracleDemand(config) if mode == MODE_STRATEGIC else None
    sim = SimState(config, mode=mode, predictor=predictor, seed_key=(seed,))
    rng = np.random.default_rng(seed)
    nearest = NearestIdlePolicy()
    decisions = [0, 0]

    def dispatch(s: SimState, oid: int, remaining) -> None:
        check_against_fresh(s, oid)
        decisions[0] += 1
        if rng.random() < 0.5:
            nearest(s, oid, remaining)
            return
        valid = np.flatnonzero(s.courier_rows().mask)
        apply_dispatch_decision(s, oid, int(rng.choice(valid)))

    def steer_fn(s: SimState, cid: int) -> None:
        check_against_fresh(s, cid=cid)
        decisions[1] += 1
        grid = s.couriers[cid].grid
        slots = [STAY] + [k + 1 for k, n in enumerate(s.region.neighbor_ids(grid)) if n is not None]
        apply_steer_decision(s, cid, int(rng.choice(slots)))

    sim.run(dispatch, steer_fn if steer else None)
    assert decisions[0] > 0
    in_flight = sum(1 for o in sim.orders.values() if o.status in IN_FLIGHT)
    assert sim.sampled == sim.delivered + sim.overdue + in_flight
    summary = sim.events[-1].detail
    assert summary["active"] == in_flight
    return decisions[1]


def large_region_config(fleet: int) -> ScenarioConfig:
    region = offset_rect_region(10, 10, (11, 17, 23, 34, 45, 46, 53, 54, 65, 76, 82, 88))
    rates = {g: {19: 9.0, 20: 6.0} for g in region.restaurant_ids}
    uniform = {d: 1.0 / len(region) for d in range(len(region))}
    od = {g: dict(uniform) for g in region.restaurant_ids}
    return ScenarioConfig(region=region, hourly_rates=rates, od_probs=od, fleet_size=fleet)


@pytest.mark.parametrize("steer", [False, True])
@pytest.mark.parametrize("mode", [MODE_STRATEGIC, MODE_MYOPIC])
@pytest.mark.parametrize("fleet", [1, 25, 60])
def test_held_rows_match_fresh_projection(fleet, mode, steer):
    config = default_scenario(seed=fleet, fleet_size=fleet)
    steered = run_checked_shift(config, mode, steer, seed=fleet)
    # A lone courier is never idle long enough to be steered.
    assert (steered > 0) == (steer and fleet > 1)


@pytest.mark.parametrize("steer", [False, True])
@pytest.mark.parametrize("mode", [MODE_STRATEGIC, MODE_MYOPIC])
def test_held_rows_match_fresh_projection_on_large_region(mode, steer):
    steered = run_checked_shift(large_region_config(fleet=40), mode, steer, seed=11)
    assert (steered > 0) == steer


def courier_signature(sim: SimState) -> list:
    return [
        (c.status, c.grid, tuple((t.kind, t.order_id, t.target) for t in c.queue))
        for c in sim.couriers
    ]


def test_refresh_projects_only_changed_and_waiting_couriers(monkeypatch):
    """At the first row query of each minute, courier_eta_idle runs once for
    every courier that changed since its row was last built, plus every
    courier waiting at a restaurant whose order's estimated ready minute is
    past, and for no other.  The first query projects every courier once."""
    config = default_scenario(seed=5)
    sim = SimState(config, mode=MODE_STRATEGIC, predictor=OracleDemand(config), seed_key=(5,))
    projected = []  # the courier id of every projection
    project = sim.courier_eta_idle

    def counting(cid):
        projected.append(cid)
        return project(cid)

    monkeypatch.setattr(sim, "courier_eta_idle", counting)
    rng = np.random.default_rng(5)
    nearest = NearestIdlePolicy()
    seen = [None]  # each courier's signature when its row was last built
    refreshed = [-1]
    counts = []  # (projections, changed, waiting) per refresh

    def refresh(s: SimState) -> None:
        if s.clock == refreshed[0]:
            return
        refreshed[0] = s.clock
        now = courier_signature(s)
        if seen[0] is None:
            expected = set(range(len(now)))
        else:
            expected = {cid for cid, sig in enumerate(now) if sig != seen[0][cid]}
        waiting = {
            c.id
            for c in s.couriers
            if c.status == WAITING and s.orders[c.queue[0].order_id].est_ready < s.clock
        }
        before = len(projected)
        s.courier_rows()
        new = projected[before:]
        counts.append((len(new), len(expected - waiting), len(waiting)))
        assert len(new) == len(expected | waiting)
        if seen[0] is None:
            assert sorted(new) == list(range(len(now)))

    def dispatch(s: SimState, oid: int, remaining) -> None:
        refresh(s)
        if rng.random() < 0.5:
            nearest(s, oid, remaining)
        else:
            valid = np.flatnonzero(s.courier_rows().mask)
            apply_dispatch_decision(s, oid, int(rng.choice(valid)))
        seen[0] = courier_signature(s)

    def steer_fn(s: SimState, cid: int) -> None:
        refresh(s)
        grid = s.couriers[cid].grid
        slots = [STAY] + [k + 1 for k, n in enumerate(s.region.neighbor_ids(grid)) if n is not None]
        apply_steer_decision(s, cid, int(rng.choice(slots)))
        seen[0] = courier_signature(s)

    sim.run(dispatch, steer_fn)
    assert counts[0][0] == config.fleet_size
    later = counts[1:]
    assert len(later) > 50
    # Both groups occur, and a refresh projects far fewer than the fleet.
    assert any(changed for _, changed, _ in later)
    assert any(waiting for _, _, waiting in later)
    assert sum(n for n, _, _ in later) < config.fleet_size * len(later) / 2


def held_state(sim: SimState) -> tuple:
    """Copies of everything a decision reads from held state, and the log."""
    rows = sim.courier_rows()
    return (
        rows.grid.copy(),
        rows.eta.copy(),
        rows.mask.copy(),
        sim.gap_field().copy(),
        sim.idle_counts().copy(),
        sim.pending_counts().copy(),
        list(sim.events),
    )


def assert_same_state(before: tuple, after: tuple) -> None:
    for old, new in zip(before[:-1], after[:-1]):
        assert same_bits(new, old)
    assert after[-1] == before[-1]


@pytest.mark.parametrize("mode", [MODE_STRATEGIC, MODE_MYOPIC])
def test_refused_actions_leave_held_state_unchanged(mode):
    """Part way through a shift, with rows and field built, each refused
    action raises ContractError and changes nothing a decision reads."""
    config = default_scenario(seed=3)
    predictor = OracleDemand(config) if mode == MODE_STRATEGIC else None
    sim = SimState(config, mode=mode, predictor=predictor, seed_key=(3,))
    nearest = NearestIdlePolicy()

    def odd_orders_wait(s: SimState, oid: int, remaining) -> None:
        if oid % 2 == 0:
            nearest(s, oid, remaining)

    for _ in range(40):
        sim.step(odd_orders_wait)
    sim.courier_rows()
    # Fill one courier to the cap so that a dispatch to it is refused.
    full = sim.couriers[0]
    while full.delivery_task_count() < config.max_delivery_tasks:
        sim.apply_dispatch(sim.pending[0], full.id)
    assert sim.pending
    done = next(o.id for o in sim.orders.values() if o.status != "pending")
    idle = next(c for c in sim.couriers if c.status == IDLE)
    busy = next(c for c in sim.couriers if c.status != IDLE)
    far = next(
        g for g in range(len(sim.region))
        if g != idle.grid and g not in sim.region.neighbor_ids(idle.grid)
    )
    refused = [
        lambda: sim.apply_dispatch(done, idle.id),
        lambda: sim.apply_dispatch(sim.pending[0], full.id),
        lambda: sim.apply_postpone(done, True),
        lambda: sim.apply_reallocation(busy.id, sim.region.neighborhoods[busy.grid][1]),
        lambda: sim.apply_reallocation(idle.id, far),
        lambda: sim.apply_reallocation(idle.id, None),
    ]
    before = held_state(sim)
    revision = sim.revision
    for act in refused:
        with pytest.raises(ContractError):
            act()
        assert_same_state(before, held_state(sim))
        assert sim.revision == revision
    field = sim.gap_field()
    with pytest.raises(ValueError):
        field[0] = 1
    assert_same_state(before, held_state(sim))

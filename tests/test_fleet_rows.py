"""Held courier rows against a fleet projection recomputed at every decision.

Each shift below checks, before every dispatch and steering decision, that
the rows, the gap field, every grid's gap, the dispatch state and the action
mask are bitwise what a fresh courier-by-courier computation gives.  Several
decisions fall in one minute, so a row that apply_dispatch or
apply_reallocation failed to rebuild shows up at the next one.
"""

import numpy as np
import pytest

from mealtwin.dispatch import (
    NearestIdlePolicy,
    apply_dispatch_decision,
    encode_dispatch_state,
    task_count_mask,
)
from mealtwin.forecast import OracleDemand
from mealtwin.hexgrid import offset_rect_region
from mealtwin.scenario import ScenarioConfig, default_scenario
from mealtwin.simcore import MODE_MYOPIC, MODE_STRATEGIC, SimState
from mealtwin.steering import STAY, apply_steer_decision

from oracles import fresh_dispatch_state, fresh_gap_field, fresh_rows

IN_FLIGHT = ("pending", "assigned", "picked_up")


def same_bits(got: np.ndarray, expected: np.ndarray) -> bool:
    return (
        got.dtype == expected.dtype
        and got.shape == expected.shape
        and got.tobytes() == expected.tobytes()
    )


def check_against_fresh(sim: SimState, oid=None) -> None:
    """Compare everything read from the rows with the fresh oracle; oid is
    the order being decided, or None at a steering decision."""
    rows = sim.courier_rows()
    grid, eta, tasks = fresh_rows(sim)
    for held, fresh in zip((rows.grid, rows.eta, rows.tasks), (grid, eta, tasks)):
        assert same_bits(held, fresh)
    field = fresh_gap_field(sim)
    assert same_bits(sim.gap_field(), field)
    assert [sim.supply_demand_gap(g) for g in range(len(sim.region))] == field.tolist()
    expected_mask = np.append(tasks < sim.config.max_delivery_tasks, True)
    assert same_bits(task_count_mask(sim), expected_mask)
    if oid is None and sim.pending:
        oid = sim.pending[0]
    if oid is not None:
        s, mask = encode_dispatch_state(sim, oid)
        s_fresh, mask_fresh = fresh_dispatch_state(sim, oid)
        assert same_bits(s, s_fresh)
        assert same_bits(mask, mask_fresh)


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
        valid = np.flatnonzero(task_count_mask(s))
        apply_dispatch_decision(s, oid, int(rng.choice(valid)))

    def steer_fn(s: SimState, cid: int) -> None:
        check_against_fresh(s)
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

"""Steering tests: local encodings, move rewards, and the greedy policy.

The interior-move constant -3/7 is frozen arithmetic: shifting one unit of
supply to an adjacent grid lowers the origin-neighborhood balance scores by 3
in total (7 grids lose the origin unit, 4 see the target unit arrive).
"""

import copy
from types import SimpleNamespace

import numpy as np
import pytest

from mealtwin import steering
from mealtwin.errors import ContractError
from mealtwin.hexgrid import default_region, offset_rect_region
from mealtwin.rlcore import select_action, steering_qnet
from mealtwin.scenario import Order, ScenarioConfig, make_rng
from mealtwin.simcore import MODE_MYOPIC, REALLOCATING, SimState
from mealtwin.steering import (
    NUM_SLOTS,
    STATE_DIM,
    STAY,
    SteerDdqnPolicy,
    apply_steer_decision,
    encode_from_field,
    encode_steer_state,
    reward_reallocate,
    slot_target,
)

from oracles import fresh_steer_state, grid_neighborhood, score_from_field, shifted_field_reward


def quiet_config(fleet: int = 3) -> ScenarioConfig:
    region = default_region()
    rates = {g: {19: 0.0, 20: 0.0} for g in region.restaurant_ids}
    return ScenarioConfig(region=region, hourly_rates=rates, od_probs={}, fleet_size=fleet)


def noop(sim, oid, remaining) -> None:
    pass


def make_idle_sim(grids, minutes: int = 6) -> SimState:
    """Couriers parked on the given grids, clock advanced past the idle bar."""
    sim = SimState(quiet_config(len(grids)), mode=MODE_MYOPIC, seed_key=(0,))
    for c, g in zip(sim.couriers, grids):
        c.grid = g
    for _ in range(minutes):
        sim.step(noop)
    return sim


def add_pending(sim: SimState, restaurant: int) -> Order:
    o = Order(
        id=sim.sampled,
        placed_at=sim.clock,
        restaurant=restaurant,
        household=0,
        est_prep=5.0,
        actual_prep=5.0,
    )
    sim.place_order(o)
    return o


def test_constants():
    assert STAY == 0
    assert NUM_SLOTS == 7
    assert STATE_DIM == 14


def test_grid_neighborhood_sizes():
    region = default_region()
    inner = region.neighborhoods[12]
    assert inner[0] == 12 and len(inner) == 7 and len(set(inner)) == 7
    assert set(inner[1:]) == {n for n in region.neighbor_ids(12) if n is not None}
    corner = region.neighborhoods[0]
    assert corner[0] == 0 and len(corner) < 7
    # Adjacency is symmetric, so membership must be too.
    for g in range(25):
        for n in region.neighborhoods[g][1:]:
            assert g in region.neighborhoods[n]
    # The held neighborhoods keep the slot order that score sums run in.
    for g in range(25):
        assert list(region.neighborhoods[g]) == grid_neighborhood(region, g)


def test_scores_sum_the_field():
    region = default_region()
    field = np.arange(25, dtype=float)
    for g in (0, 4, 12, 24):
        assert score_from_field(region, field, g) == sum(
            field[n] for n in grid_neighborhood(region, g)
        )
    sim = make_idle_sim([12, 12, 13], minutes=0)
    # All three couriers are inside 12's patch.
    assert score_from_field(sim.region, sim.gap_field(), 12) == 3.0


def test_eligibility_threshold_is_strict():
    sim = make_idle_sim([12, 13, 14], minutes=5)
    assert not any(sim.steering_eligible(c.id) for c in sim.couriers)
    sim.step(noop)
    assert all(sim.steering_eligible(c.id) for c in sim.couriers)
    with pytest.raises(ContractError):
        encode_steer_state(make_idle_sim([12], minutes=0), 0)


def test_encode_layout_interior():
    sim = make_idle_sim([12, 12, 13])
    field = sim.gap_field()
    s, mask = encode_steer_state(sim, 0)
    assert s.shape == (14,) and mask.all()
    assert s[0] == field[12]
    assert s[1] == score_from_field(sim.region, field, 12)
    for slot, nid in enumerate(sim.region.neighbor_ids(12), start=1):
        assert s[2 * slot] == field[nid]
        assert s[2 * slot + 1] == score_from_field(sim.region, field, nid)


def test_encode_masks_missing_neighbors():
    sim = make_idle_sim([0, 12, 12])
    s, mask = encode_steer_state(sim, 0)
    slots = sim.region.neighbor_ids(0)
    assert mask[STAY]
    for slot in range(1, 7):
        assert mask[slot] == (slots[slot - 1] is not None)
        if slots[slot - 1] is None:
            assert s[2 * slot] == 0.0 and s[2 * slot + 1] == 0.0
    assert mask.sum() == 1 + sum(1 for n in slots if n is not None)


def test_slot_target_mapping():
    sim = make_idle_sim([12])
    assert slot_target(sim, 12, STAY) is None
    for slot, nid in enumerate(sim.region.neighbor_ids(12), start=1):
        assert slot_target(sim, 12, slot) == nid
    off = next(
        i + 1 for i, n in enumerate(sim.region.neighbor_ids(0)) if n is None
    )
    with pytest.raises(ContractError):
        slot_target(sim, 0, off)


def test_stay_and_self_moves_are_free():
    sim = make_idle_sim([12, 13, 14])
    assert reward_reallocate(sim, 12, None) == 0.0
    assert reward_reallocate(sim, 12, 12) == 0.0


def test_interior_move_on_flat_field():
    sim = make_idle_sim([24, 24, 24], minutes=0)
    field = sim.gap_field()
    assert field[12] == 0.0 and field[13] == 0.0
    assert reward_reallocate(sim, 12, 13) == pytest.approx(-3.0 / 7.0)


def test_interior_move_hand_case():
    # Two idle couriers at 12, one pending order at 13: gap +2 vs -1.
    # Linear score shift keeps the neighborhood term at -3/7.
    sim = make_idle_sim([12, 12, 20])
    add_pending(sim, 13)
    field = sim.gap_field()
    assert field[12] == 2.0 and field[13] == -1.0
    assert reward_reallocate(sim, 12, 13) == pytest.approx(3.0 - 3.0 / 7.0)


def brute_reward(region, field, origin, target):
    shifted = field.copy()
    shifted[origin] -= 1.0
    shifted[target] += 1.0
    around = [origin] + [n for n in region.neighbor_ids(origin) if n is not None]
    total = 0.0
    for g in around:
        patch = [g] + [n for n in region.neighbor_ids(g) if n is not None]
        total += sum(shifted[p] for p in patch) - sum(field[p] for p in patch)
    return field[origin] - field[target] + total / len(around)


def test_reward_matches_brute_force_everywhere():
    sim = make_idle_sim([3, 7, 21])
    add_pending(sim, 13)
    add_pending(sim, 13)
    add_pending(sim, 19)
    field = sim.gap_field()
    region = sim.region
    checked = 0
    for origin in range(25):
        for nid in region.neighbor_ids(origin):
            if nid is None:
                continue
            expect = brute_reward(region, field.astype(float), origin, nid)
            assert reward_reallocate(sim, origin, nid) == pytest.approx(expect)
            checked += 1
    # 150 slots minus the 38 that fall off the 5x5 boundary.
    assert checked == 112


@pytest.mark.parametrize("cols,rows", [(1, 1), (2, 3), (5, 5), (10, 10)])
def test_region_tables_match_neighborhood_sums(cols, rows):
    """The region's neighborhood matrix, neighborhood overlaps and slot
    stencils against the neighborhoods, and the encoding and every move's
    reward read from them against the slot-by-slot state and the
    shifted-field sum, over random integer fields."""
    region = offset_rect_region(cols, rows, (0,))
    n = len(region)
    matrix = region.neighborhood_matrix
    assert matrix.dtype == np.int64 and matrix.shape == (n, n)
    hoods = [set(grid_neighborhood(region, g)) for g in range(n)]
    for g in range(n):
        assert np.flatnonzero(matrix[g]).tolist() == sorted(hoods[g])
        assert list(region.neighborhood_overlaps[g]) == [len(hoods[g] & h) for h in hoods]
    assert region.slot_stencils.shape == (n, 2 * NUM_SLOTS, n)
    rng = np.random.default_rng(cols * rows)
    pairs = 0
    for _ in range(5):
        field = rng.integers(-6, 7, size=n)
        sim = SimpleNamespace(region=region, gap_field=lambda: field)
        for origin in range(n):
            s, mask = encode_from_field(sim, field, origin)
            s_fresh, mask_fresh = fresh_steer_state(region, field, origin)
            assert s.tobytes() == s_fresh.tobytes() and mask.tolist() == mask_fresh.tolist()
            for target in region.neighbor_ids(origin):
                if target is not None:
                    pairs += 1
                    expected = shifted_field_reward(region, field, origin, target)
                    assert reward_reallocate(sim, origin, target) == expected
    # Each adjacent pair counted once per direction and field.
    assert pairs == 5 * int(matrix.sum() - n)


def test_apply_steer_stay_leaves_courier_alone():
    sim = make_idle_sim([12, 13, 14])
    reward, dest = apply_steer_decision(sim, 0, STAY)
    assert (reward, dest) == (0.0, 12)
    assert sim.couriers[0].status == "idle" and sim.couriers[0].grid == 12


def test_apply_steer_move_starts_reallocation():
    sim = make_idle_sim([12, 13, 14])
    slots = sim.region.neighbor_ids(12)
    action = next(i + 1 for i, n in enumerate(slots) if n == 13)
    expect = reward_reallocate(sim, 12, 13)
    reward, dest = apply_steer_decision(sim, 0, action)
    assert reward == pytest.approx(expect) and dest == 13
    c = sim.couriers[0]
    assert c.status == REALLOCATING and c.done_time == sim.clock + 3.0


def test_sequential_moves_see_updated_field():
    sim = make_idle_sim([12, 12, 24])
    slots = sim.region.neighbor_ids(12)
    action = next(i + 1 for i, n in enumerate(slots) if n == 13)
    first, _ = apply_steer_decision(sim, 0, action)
    second, _ = apply_steer_decision(sim, 1, action)
    # Courier 0 is mid-move: no longer supply at 12, not yet at 13.
    assert first == pytest.approx(2.0 - 3.0 / 7.0)
    assert second == pytest.approx(1.0 - 3.0 / 7.0)


def test_policy_greedy_and_trace():
    sim = make_idle_sim([12, 13, 24])
    net = steering_qnet(rng=make_rng(7))
    s, mask = encode_steer_state(sim, 0)
    q = net.forward(s)
    expect = int(np.where(mask, q, -np.inf).argmax())
    trace = []
    SteerDdqnPolicy(net, trace=trace)(sim, 0)
    row = trace[0]
    assert row["minute"] == sim.clock and row["courier"] == 0
    assert row["from"] == 12
    if expect == STAY:
        assert row["to"] == 12 and row["reward"] == 0.0
    else:
        assert row["to"] == sim.region.neighbor_ids(12)[expect - 1]
        assert sim.couriers[0].status == REALLOCATING


def stub_learner(epsilon: float) -> SimpleNamespace:
    """A fixed exploration rate; keeps every recorded (transition, raw reward)."""
    records = []

    def record(s, a, r, s2, done, mask2, raw_reward):
        t = SimpleNamespace(s=s, a=a, r=r, s2=s2, done=done, mask2=mask2)
        records.append((t, raw_reward))

    return SimpleNamespace(epsilon=lambda: epsilon, record=record, records=records)


def test_policy_learner_records_each_decision(monkeypatch):
    applied = []

    def spy(sim, cid, action):
        result = apply_steer_decision(sim, cid, action)
        applied.append((action, result))
        return result

    monkeypatch.setattr(steering, "apply_steer_decision", spy)
    net = steering_qnet(rng=make_rng(7))
    learner = stub_learner(1.0)
    policy = SteerDdqnPolicy(net, learner=learner)
    sim = make_idle_sim([12, 13, 24, 0])
    eligible = sim.eligible_steering_ids()
    assert eligible == [0, 1, 2, 3]
    for i, cid in enumerate(eligible):
        s, mask = encode_steer_state(sim, cid)
        rng = copy.deepcopy(sim.rng_policy)
        expect = select_action(net.forward(s), mask, 1.0, rng)
        policy(sim, cid)
        assert len(learner.records) == len(applied) == i + 1
        action, (raw, dest) = applied[-1]
        t, recorded_raw = learner.records[-1]
        assert action == expect == t.a
        assert sim.rng_policy.bit_generator.state == rng.bit_generator.state
        assert recorded_raw == raw and t.r == raw  # steering stores raw rewards
        np.testing.assert_array_equal(t.s, s)
        s2, mask2 = encode_from_field(sim, sim.gap_field(), dest)
        np.testing.assert_array_equal(t.s2, s2)
        np.testing.assert_array_equal(t.mask2, mask2)
        assert t.done is False
    last = make_idle_sim([12], minutes=sim.config.shift_minutes - 1)
    SteerDdqnPolicy(net, learner=learner)(last, 0)
    assert len(learner.records) == len(eligible) + 1
    assert learner.records[-1][0].done is True

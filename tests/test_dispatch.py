"""Dispatch decision tests: encoding, rewards, successor states, policies.

The three reward cases (92, 85, 105) are frozen hand calculations over the
component weights (-5, -1, -3, 5) and base 100.
"""

import copy
from types import SimpleNamespace

import numpy as np
import pytest

from mealtwin import dispatch
from mealtwin.dispatch import (
    BASE_REWARD,
    OVERDUE_REWARD,
    POSTPONE_REWARD,
    REWARD_SCALE,
    RHO,
    ConvDdqnPolicy,
    DispatchRewardParams,
    NearestIdlePolicy,
    apply_dispatch_decision,
    dispatch_next_state,
    encode_dispatch_state,
    reward_assign,
    reward_postpone,
    tick_courier_timers,
)
from mealtwin.errors import ContractError
from mealtwin.hexgrid import default_region
from mealtwin.rlcore import dispatch_qnet, select_action
from mealtwin.forecast import OracleDemand
from mealtwin.scenario import Order, ScenarioConfig, default_scenario, make_rng
from mealtwin.simcore import IDLE, MODE_MYOPIC, MODE_STRATEGIC, SimState
from mealtwin.trainer import TrainingPlan, _Learner

from oracles import assign, fresh_dispatch_state


def quiet_config(fleet: int = 3) -> ScenarioConfig:
    region = default_region()
    rates = {g: {19: 0.0, 20: 0.0} for g in region.restaurant_ids}
    return ScenarioConfig(region=region, hourly_rates=rates, od_probs={}, fleet_size=fleet)


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


def make_sim(fleet: int = 3, grids=(0, 0, 0)) -> SimState:
    sim = SimState(quiet_config(fleet), mode=MODE_MYOPIC, seed_key=(0,))
    for c, g in zip(sim.couriers, grids):
        c.grid = g
    return sim


def noop(sim, oid, remaining) -> None:
    pass


def test_weights_frozen():
    assert RHO == (-5.0, -1.0, -3.0, 5.0)
    assert BASE_REWARD == 100.0
    assert POSTPONE_REWARD == -10.0
    assert OVERDUE_REWARD == -100.0
    assert REWARD_SCALE == 0.01
    p = DispatchRewardParams()
    assert (p.base, p.rho, p.postpone, p.overdue) == (100.0, RHO, -10.0, -100.0)


def test_encode_layout_and_mask():
    sim = make_sim(grids=(8, 7, 0))
    o = add_order(sim, restaurant=7, household=24, est=6.5, actual=9.0)
    busy = add_order(sim, restaurant=14, household=1, est=0.0, actual=0.0)
    assign(sim, busy.id, 2)
    assign(sim, add_order(sim, 14, 2, 0.0, 0.0).id, 2)  # courier 2 at cap
    s, mask = encode_dispatch_state(sim, o.id)
    assert s.shape == (10,) and mask.shape == (4,)
    assert s[0] == 6.5  # est_ready - clock
    field = sim.gap_field()
    # Courier 0: idle at 8, one grid from the restaurant.
    assert (s[1], s[2], s[3]) == (0.0, 1.0, field[8])
    # Courier 1: idle at the restaurant itself.
    assert (s[4], s[5], s[6]) == (0.0, 0.0, field[7])
    # Courier 2: busy, timers from its estimated idle point.
    g2, dt2 = sim.courier_eta_idle(2)
    assert (s[7], s[8], s[9]) == (dt2, sim.region.distance(g2, 7), field[g2])
    assert mask.tolist() == [True, True, False, True]
    assert np.array_equal(sim.courier_rows().mask, mask)
    with pytest.raises(ContractError):
        encode_dispatch_state(sim, busy.id)  # not pending any more


def test_reward_92_idle_courier_one_grid_out():
    # Courier idle one grid away, meal ready exactly on arrival, local
    # supply-demand gap zero: 100 - 3*1 - 5 = 92.
    sim = make_sim(grids=(8, 24, 24))
    add_order(sim, restaurant=8, household=0, est=3.0, actual=3.0)  # zeroes gap at 8
    o = add_order(sim, restaurant=7, household=13, est=3.0, actual=3.0)
    assert sim.gap_field()[8] == 0.0
    reward, audit = reward_assign(sim, o.id, sim.projected_arrival(0, o.restaurant))
    assert reward == 92.0
    assert audit == {"sd_gap": 0.0, "reward": 92.0}


def test_reward_85_busy_courier_late_arrival():
    # Courier frees up at the restaurant two minutes after the meal is ready,
    # gap there negative: 100 - 5*2 - 5 = 85.
    sim = make_sim(grids=(7, 24, 24))
    first = add_order(sim, restaurant=7, household=7, est=2.0, actual=2.0)
    assign(sim, first.id, 0)  # done at minute 2, still at grid 7
    o = add_order(sim, restaurant=7, household=13, est=0.0, actual=0.0)
    reward, audit = reward_assign(sim, o.id, sim.projected_arrival(0, o.restaurant))
    assert reward == 85.0
    assert audit["sd_gap"] == -1.0  # no idle supply at 7, one pending order


def test_reward_105_surplus_grid():
    # Two idle couriers at the restaurant, one pending order: gap +1, zero
    # distance, on-time arrival: 100 + 5 = 105.
    sim = make_sim(grids=(7, 7, 24))
    o = add_order(sim, restaurant=7, household=13, est=0.0, actual=0.0)
    reward, audit = reward_assign(sim, o.id, sim.projected_arrival(0, o.restaurant))
    assert reward == 105.0
    assert audit["sd_gap"] == 1.0


def test_reward_early_arrival_component():
    # Meal ready 4 minutes after a zero-distance arrival: early penalty -1*4.
    sim = make_sim(grids=(7, 7, 24))
    o = add_order(sim, restaurant=7, household=13, est=4.0, actual=4.0)
    reward, _ = reward_assign(sim, o.id, sim.projected_arrival(0, o.restaurant))
    assert reward == 100.0 - 4.0 + 5.0


def test_reward_reads_the_gap_where_the_courier_would_start():
    """A busy courier's rebalancing term reads the gap at the grid where its
    queued work ends, which is its entry in the dispatch state, not at the
    grid it stands on."""
    sim = make_sim(grids=(7, 7, 7))
    assign(sim, add_order(sim, restaurant=7, household=13, est=0.0, actual=0.0).id, 0)
    o = add_order(sim, restaurant=7, household=1, est=0.0, actual=0.0)
    projection = sim.projected_arrival(0, o.restaurant)
    assert projection[0] == 13 and sim.couriers[0].grid == 7
    assert (sim.gap_field()[7], sim.gap_field()[13]) == (1, 0)
    _, audit = reward_assign(sim, o.id, projection)
    s, _ = encode_dispatch_state(sim, o.id)
    assert audit["sd_gap"] == s[3] == 0.0


def test_postpone_boundary_exactly_at_limit():
    sim = make_sim()
    o = add_order(sim, restaurant=7, household=1, est=2.0, actual=2.0)
    for _ in range(12):
        sim.step(noop)
    assert sim.clock - o.ready_time == 10.0
    reward, removed = reward_postpone(sim, o.id)
    assert (reward, removed) == (-10.0, False)
    sim.step(noop)
    reward, removed = reward_postpone(sim, o.id)
    assert (reward, removed) == (-100.0, True)
    assert o.status == "pending"  # reward_postpone only computes


def test_apply_dispatch_decision_assign():
    sim = make_sim(grids=(7, 7, 24))
    o = add_order(sim, restaurant=7, household=13, est=0.0, actual=0.0)
    reward, removed = apply_dispatch_decision(sim, o.id, 0)
    assert (reward, removed) == (105.0, False)
    assert o.status == "assigned"
    detail = [e for e in sim.events if e.event == "assigned"][0].detail
    assert detail["courier"] == 0
    assert detail["sd_gap"] == 1.0 and detail["reward"] == 105.0


def test_apply_dispatch_decision_postpone_paths():
    sim = make_sim()
    o = add_order(sim, restaurant=7, household=1, est=0.0, actual=0.0)
    reward, removed = apply_dispatch_decision(sim, o.id, sim.config.fleet_size)
    assert (reward, removed) == (-10.0, False)
    assert o.status == "pending"
    stale = add_order(sim, restaurant=7, household=1, est=0.0, actual=-15.0)
    reward, removed = apply_dispatch_decision(sim, stale.id, sim.config.fleet_size)
    assert (reward, removed) == (-100.0, True)
    assert stale.status == "overdue" and sim.overdue == 1


def test_tick_courier_timers_only_touches_timers():
    s = np.array([7.0, 5.0, 2.0, -1.0, 0.5, 3.0, 4.0, 0.0, 1.0, 2.0])
    out = tick_courier_timers(s, 3)
    assert out.tolist() == [7.0, 4.0, 2.0, -1.0, 0.0, 3.0, 4.0, 0.0, 1.0, 2.0]
    assert s[1] == 5.0  # input untouched


def test_next_state_postponed_kept():
    sim = make_sim(grids=(7, 8, 24))
    o = add_order(sim, restaurant=7, household=1, est=9.0, actual=9.0)
    s, _ = encode_dispatch_state(sim, o.id)
    reward, removed = apply_dispatch_decision(sim, o.id, 3)
    s2, mask2, done = dispatch_next_state(sim, s, 3, removed, [])
    assert s2[0] == s[0] - 1.0
    assert not done
    assert mask2.tolist() == [True, True, True, True]
    np.testing.assert_array_equal(s2[1:], tick_courier_timers(s, 3)[1:])


def test_next_state_next_ranked_order():
    sim = make_sim(grids=(7, 8, 24))
    a = add_order(sim, restaurant=7, household=1, est=0.0, actual=0.0)
    b = add_order(sim, restaurant=14, household=2, est=5.0, actual=5.0)
    s, _ = encode_dispatch_state(sim, a.id)
    reward, removed = apply_dispatch_decision(sim, a.id, 0)
    s2, mask2, done = dispatch_next_state(sim, s, 0, removed, [b.id])
    expect, expect_mask = encode_dispatch_state(sim, b.id)
    np.testing.assert_array_equal(s2, expect)
    np.testing.assert_array_equal(mask2, expect_mask)


def test_next_state_dummy_when_queue_empty():
    sim = make_sim(grids=(7, 8, 24))
    a = add_order(sim, restaurant=7, household=1, est=0.0, actual=0.0)
    s, _ = encode_dispatch_state(sim, a.id)
    _, removed = apply_dispatch_decision(sim, a.id, 0)
    s2, _, done = dispatch_next_state(sim, s, 0, removed, [])
    np.testing.assert_array_equal(s2, tick_courier_timers(s, 3))
    assert not done


def test_next_state_done_on_last_minute():
    sim = make_sim()
    for _ in range(sim.config.shift_minutes - 1):
        sim.step(noop)
    assert sim.clock == 119
    o = add_order(sim, restaurant=7, household=1, est=0.0, actual=0.0)
    s, _ = encode_dispatch_state(sim, o.id)
    _, removed = apply_dispatch_decision(sim, o.id, 0)
    _, _, done = dispatch_next_state(sim, s, 0, removed, [])
    assert done


def test_nearest_idle_prefers_closest():
    sim = make_sim(grids=(0, 8, 24))
    o = add_order(sim, restaurant=7, household=1, est=0.0, actual=0.0)
    policy = NearestIdlePolicy()
    assert policy.decide(sim, o.id) == 1  # distance 1 beats 3 and 3


def test_nearest_idle_tie_break_uses_policy_stream():
    config = quiet_config(fleet=2)
    picks = set()
    for key in range(30):
        sim = SimState(config, mode=MODE_MYOPIC, seed_key=(key,))
        sim.couriers[0].grid = 8
        sim.couriers[1].grid = 8
        o = add_order(sim, restaurant=7, household=1, est=0.0, actual=0.0)
        picks.add(NearestIdlePolicy().decide(sim, o.id))
    assert picks == {0, 1}


def test_nearest_idle_postpones_without_idle_couriers():
    sim = make_sim(fleet=2, grids=(7, 7))
    for hh in (1, 2):
        assign(sim, add_order(sim, 7, hh, 0.0, 0.0).id, hh - 1)
    o = add_order(sim, restaurant=7, household=3, est=0.0, actual=0.0)
    trace = []
    policy = NearestIdlePolicy(trace=trace)
    policy(sim, o.id, [])
    assert o.status == "pending"
    assert trace == [
        {"minute": 0, "order": o.id, "action": 2, "reward": -10.0, "q_max": ""}
    ]


def test_conv_policy_greedy_matches_network_argmax():
    sim = make_sim(grids=(8, 7, 0))
    o = add_order(sim, restaurant=7, household=24, est=6.5, actual=9.0)
    net = dispatch_qnet(3, rng=make_rng(42))
    s, mask = encode_dispatch_state(sim, o.id)
    q = net.forward(s)
    expect = int(np.where(mask, q, -np.inf).argmax())
    trace = []
    policy = ConvDdqnPolicy(net, trace=trace)
    policy(sim, o.id, [])
    assert trace[0]["action"] == expect
    assert trace[0]["q_max"] == pytest.approx(float(q[expect]))
    if expect < 3:
        detail = [e for e in sim.events if e.event == "assigned"][0].detail
        # The audit gap is the chosen courier's entry in the encoded state.
        assert detail["sd_gap"] == s[3 + 3 * expect]


def test_conv_policy_greedy_leaves_policy_stream_untouched():
    sim = make_sim(grids=(8, 7, 0))
    o = add_order(sim, restaurant=7, household=24, est=0.0, actual=0.0)
    before = sim.rng_policy.bit_generator.state["state"]["state"]
    ConvDdqnPolicy(dispatch_qnet(3, rng=make_rng(1))).decide(sim, o.id)
    after = sim.rng_policy.bit_generator.state["state"]["state"]
    assert before == after


def stub_learner(epsilon: float) -> SimpleNamespace:
    """A fixed exploration rate; keeps every recorded (transition, raw reward)."""
    records = []

    def record(s, a, r, s2, done, mask2, raw_reward):
        t = SimpleNamespace(s=s, a=a, r=r, s2=s2, done=done, mask2=mask2)
        records.append((t, raw_reward))

    return SimpleNamespace(epsilon=lambda: epsilon, record=record, records=records)


def test_conv_policy_learner_records_each_decision(monkeypatch):
    applied = []

    def spy(*args, **kwargs):
        result = apply_dispatch_decision(*args, **kwargs)
        applied.append((args[2], result))
        return result

    monkeypatch.setattr(dispatch, "apply_dispatch_decision", spy)
    sim = make_sim(grids=(8, 7, 0))
    for restaurant, household in ((7, 24), (13, 1), (19, 3), (8, 4)):
        add_order(sim, restaurant, household, est=4.0, actual=5.0)
    net = dispatch_qnet(3, rng=make_rng(42))
    learner = stub_learner(0.5)
    policy = ConvDdqnPolicy(net, learner=learner)
    ranked = sim.pending_orders_ranked()
    for i, oid in enumerate(ranked):
        s, mask = encode_dispatch_state(sim, oid)
        rng = copy.deepcopy(sim.rng_policy)
        expect = select_action(net.forward(s), mask, 0.5, rng)
        policy(sim, oid, ranked[i + 1 :])
        assert len(learner.records) == len(applied) == i + 1
        action, (raw, removed) = applied[-1]
        t, recorded_raw = learner.records[-1]
        assert action == expect == t.a
        assert sim.rng_policy.bit_generator.state == rng.bit_generator.state
        assert recorded_raw == raw
        assert t.r == pytest.approx(raw * REWARD_SCALE)
        np.testing.assert_array_equal(t.s, s)
        s2, mask2, done = dispatch_next_state(sim, s, action, removed, ranked[i + 1 :])
        np.testing.assert_array_equal(t.s2, s2)
        np.testing.assert_array_equal(t.mask2, mask2)
        assert t.done == done
    assert {t.a for t, _ in learner.records} != {3}  # not every order was postponed


def test_conv_policy_learner_stores_scaled_reward(monkeypatch):
    """Through the trainer's learner, the replay row holds the raw reward
    times REWARD_SCALE and the episode return adds up the raw rewards."""
    raws = []

    def spy(*args, **kwargs):
        result = apply_dispatch_decision(*args, **kwargs)
        raws.append(result[0])
        return result

    monkeypatch.setattr(dispatch, "apply_dispatch_decision", spy)
    sim = make_sim(grids=(8, 7, 0))
    for restaurant, household in ((7, 24), (13, 1), (19, 3)):
        add_order(sim, restaurant, household, est=4.0, actual=5.0)
    net = dispatch_qnet(3, rng=make_rng(42))
    learner = _Learner(net, TrainingPlan(), 0, 0.5)
    policy = ConvDdqnPolicy(net, learner=learner)
    ranked = sim.pending_orders_ranked()
    for i, oid in enumerate(ranked):
        policy(sim, oid, ranked[i + 1 :])
    assert len(learner.buffer) == len(raws) == 3
    assert learner.buffer.r[:3].tolist() == [raw * REWARD_SCALE for raw in raws]
    assert learner.episode_return == sum(raws)


class CheckedNet:
    """A net whose forward first checks the state it is given against the
    oracle encoding of the order being decided."""

    def __init__(self, net, deciding):
        self.net = net
        self.deciding = deciding  # [sim, order] of the decision under way

    def forward(self, s):
        sim, oid = self.deciding
        expected, _ = fresh_dispatch_state(sim, oid)
        assert s.tobytes() == expected.tobytes()
        return self.net.forward(s)


def counting_encoder(monkeypatch) -> list:
    calls = [0]
    encode = dispatch.encode_dispatch_state

    def counted(sim, oid):
        calls[0] += 1
        return encode(sim, oid)

    monkeypatch.setattr(dispatch, "encode_dispatch_state", counted)
    return calls


@pytest.mark.parametrize("mode", [MODE_STRATEGIC, MODE_MYOPIC])
def test_conv_policy_learner_encodes_each_order_once(monkeypatch, mode):
    """While a learner records, the successor encoding of the next ranked
    order is that order's decision state: each decision is encoded once,
    and every state a decision uses is the fresh encoding."""
    encodes = counting_encoder(monkeypatch)
    config = default_scenario(seed=6)
    predictor = OracleDemand(config) if mode == MODE_STRATEGIC else None
    sim = SimState(config, mode=mode, predictor=predictor, seed_key=(6,))
    deciding = [None, None]
    learner = stub_learner(0.3)
    policy = ConvDdqnPolicy(
        CheckedNet(dispatch_qnet(config.fleet_size, rng=make_rng(8)), deciding), learner=learner
    )
    successors = [0]  # successors that encode the next ranked order

    def decide(s: SimState, oid: int, remaining) -> None:
        deciding[:] = [s, oid]
        policy(s, oid, remaining)
        if remaining and s.orders[oid].status != "pending":
            successors[0] += 1

    sim.run(decide)
    decisions = len(learner.records)
    assert decisions > 100 and successors[0] > 50
    assert encodes[0] == decisions


def test_conv_policy_encodes_again_after_the_sim_changed(monkeypatch):
    """A successor is not reused once an apply_* call changed the state."""
    encodes = counting_encoder(monkeypatch)
    sim = make_sim(grids=(8, 7, 12))
    first = add_order(sim, restaurant=7, household=24, est=4.0, actual=5.0)
    second = add_order(sim, restaurant=13, household=1, est=6.0, actual=6.0)
    deciding = [sim, first.id]
    policy = ConvDdqnPolicy(
        CheckedNet(dispatch_qnet(3, rng=make_rng(3)), deciding), learner=stub_learner(0.0)
    )
    policy(sim, first.id, [second.id])
    assert encodes[0] == 2  # the decision and its successor
    mover = next(c for c in sim.couriers if c.status == IDLE)
    sim.apply_reallocation(mover.id, sim.region.neighborhoods[mover.grid][1])
    deciding[1] = second.id
    policy(sim, second.id, [])
    assert encodes[0] == 3

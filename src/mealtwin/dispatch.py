"""Order-dispatching decisions: state encoding, rewards, policies.

Each pending order becomes one decision: assign it to one of the couriers or
postpone it.  The state is the order's remaining estimated prep time followed
by one (minutes-to-idle, pickup distance, supply-demand gap) triple per
courier, in fixed id order.  Rewards trade off courier lateness, early
arrival, pickup distance and fleet rebalancing; postponing costs a small
penalty until the order has sat ready for more than the overdue limit, at
which point it is dropped with a large one.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import ContractError
from .rlcore import QNet, select_action
from .simcore import IDLE, SimState

# Weights of the reward components: late arrival per minute, early arrival
# per minute, pickup distance per grid unit, rebalancing sign bonus.
RHO = (-5.0, -1.0, -3.0, 5.0)
BASE_REWARD = 100.0
POSTPONE_REWARD = -10.0
OVERDUE_REWARD = -100.0

# Raw rewards are ~100 in magnitude; buffer entries are scaled down so the
# small value networks fit targets of order one.  A positive rescaling leaves
# the greedy policy unchanged.
REWARD_SCALE = 0.01


@dataclass(frozen=True)
class DispatchRewardParams:
    base: float = BASE_REWARD
    rho: Tuple[float, float, float, float] = RHO
    postpone: float = POSTPONE_REWARD
    overdue: float = OVERDUE_REWARD


def encode_dispatch_state(sim: SimState, oid: int) -> Tuple[np.ndarray, np.ndarray]:
    """State vector and action-validity mask for one pending order.

    Layout: [est_ready - clock, (dt_1, d_1, sd_1), ..., (dt_F, d_F, sd_F)].
    Couriers already holding the delivery-task cap are masked out; the
    postpone action (index F) is always valid.
    """
    o = sim.orders[oid]
    if o.status != "pending":
        raise ContractError(f"order {oid} is not pending")
    rows = sim.courier_rows()
    s = np.empty(1 + 3 * sim.config.fleet_size, dtype=np.float64)
    s[0] = o.est_ready - sim.clock
    s[1::3] = rows.eta
    s[2::3] = sim.region.distances[o.restaurant][rows.grid]  # distances are symmetric
    s[3::3] = sim.gap_field()[rows.grid]
    return s, rows.mask.copy()


def reward_assign(
    sim: SimState,
    oid: int,
    projection: Tuple[int, int, float],
    params: DispatchRewardParams = DispatchRewardParams(),
) -> Tuple[float, dict]:
    """Reward for assigning the order to the courier whose
    `projected_arrival` for the order's restaurant is `projection`, computed
    at decision time from that arrival and the order's actual ready time
    (which the environment knows but the state does not expose).  The
    rebalancing term reads the gap field at the grid the courier starts
    from, which is the courier's entry in the dispatch state."""
    o = sim.orders[oid]
    g_future, d, arrival = projection
    sd_gap = float(sim.gap_field()[g_future])
    gap = arrival - o.ready_time
    rho = params.rho
    balance = 1.0 if sd_gap > 0 else -1.0
    reward = (
        params.base
        + rho[0] * max(gap, 0.0)
        + rho[1] * max(-gap, 0.0)
        + rho[2] * d
        + rho[3] * balance
    )
    audit = {"sd_gap": sd_gap, "reward": reward}
    return reward, audit


def reward_postpone(
    sim: SimState, oid: int, params: DispatchRewardParams = DispatchRewardParams()
) -> Tuple[float, bool]:
    """Penalty for postponing; orders sitting ready past the overdue limit
    are removed with the large penalty.  Exactly at the limit they are kept."""
    o = sim.orders[oid]
    removed = (sim.clock - o.ready_time) > sim.config.overdue_limit_min
    return (params.overdue if removed else params.postpone), removed


def apply_dispatch_decision(
    sim: SimState,
    oid: int,
    action: int,
    params: DispatchRewardParams = DispatchRewardParams(),
) -> Tuple[float, bool]:
    """Execute one dispatch action and return (raw reward, order removed)."""
    fleet = sim.config.fleet_size
    if action == fleet:
        reward, removed = reward_postpone(sim, oid, params)
        sim.apply_postpone(oid, removed)
        return reward, removed
    projection = sim.projected_arrival(action, sim.orders[oid].restaurant)
    reward, audit = reward_assign(sim, oid, projection, params)
    sim.apply_dispatch(oid, action, projection, audit)
    return reward, False


def tick_courier_timers(s: np.ndarray, fleet: int) -> np.ndarray:
    """Copy of the state with every courier's minutes-to-idle one lower,
    clamped at zero; distances and gaps untouched."""
    s2 = s.copy()
    idx = 1 + 3 * np.arange(fleet)
    s2[idx] = np.maximum(s2[idx] - 1.0, 0.0)
    return s2


def dispatch_next_state(
    sim: SimState,
    s: np.ndarray,
    action: int,
    removed: bool,
    remaining: List[int],
) -> Tuple[np.ndarray, np.ndarray, bool]:
    """Successor state for the replay buffer, after the decision is applied.

    A postponed (kept) order advances its own and every courier's timer by
    one minute.  Otherwise the next ranked pending order is encoded fresh;
    with none left a dummy successor advances only the courier timers.
    """
    fleet = sim.config.fleet_size
    done = sim.clock == sim.config.shift_minutes - 1
    if action == fleet and not removed:
        s2 = tick_courier_timers(s, fleet)
        s2[0] = s[0] - 1.0
        return s2, sim.courier_rows().mask.copy(), done
    if remaining:
        s2, mask2 = encode_dispatch_state(sim, remaining[0])
        return s2, mask2, done
    return tick_courier_timers(s, fleet), sim.courier_rows().mask.copy(), done


class NearestIdlePolicy:
    """Assign each order to the closest currently idle courier, breaking ties
    uniformly at random; postpone when nobody is idle."""

    def __init__(
        self,
        params: DispatchRewardParams = DispatchRewardParams(),
        trace: Optional[list] = None,
    ):
        self.params = params
        self.trace = trace

    def decide(self, sim: SimState, oid: int) -> int:
        o = sim.orders[oid]
        idle = [c for c in sim.couriers if c.status == IDLE]
        if not idle:
            return sim.config.fleet_size
        row = sim.region.distance_rows[o.restaurant]  # distances are symmetric
        dists = [row[c.grid] for c in idle]
        best = min(dists)
        candidates = [c.id for c, d in zip(idle, dists) if d == best]
        return candidates[int(sim.rng_policy.integers(len(candidates)))]

    def __call__(self, sim: SimState, oid: int, remaining: List[int]) -> None:
        action = self.decide(sim, oid)
        reward, _ = apply_dispatch_decision(sim, oid, action, self.params)
        if self.trace is not None:
            self.trace.append(
                {
                    "minute": sim.clock,
                    "order": oid,
                    "action": action,
                    "reward": reward,
                    "q_max": "",
                }
            )


class ConvDdqnPolicy:
    """Dispatching from a value network.

    Without a learner the policy is greedy.  With one it explores with the
    learner's current epsilon and hands each decision's transition, its
    reward scaled by `REWARD_SCALE`, and the raw reward to `learner.record`:
    this is how the network is trained.  A successor that encodes the next
    ranked order is also that order's decision state, so the next decision
    takes it instead of encoding the order again, as long as the simulation
    has not changed since (same `SimState.revision`).
    """

    def __init__(
        self,
        net: QNet,
        params: DispatchRewardParams = DispatchRewardParams(),
        learner=None,
        trace: Optional[list] = None,
    ):
        self.net = net
        self.params = params
        self.learner = learner
        self.trace = trace
        # (simulation, revision, order, state, mask) of the last successor
        # that encoded the next ranked order; the simulation is held weakly.
        self._successor: Optional[tuple] = None

    def decide(self, sim: SimState, oid: int) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        held, self._successor = self._successor, None
        if held is not None and held[0]() is sim and held[1:3] == (sim.revision, oid):
            s, mask = held[3], held[4]
        else:
            s, mask = encode_dispatch_state(sim, oid)
        q = self.net.forward(s)
        epsilon = 0.0 if self.learner is None else self.learner.epsilon()
        action = select_action(q, mask, epsilon, sim.rng_policy)
        return action, s, mask, q

    def __call__(self, sim: SimState, oid: int, remaining: List[int]) -> None:
        action, s, mask, q = self.decide(sim, oid)
        reward, removed = apply_dispatch_decision(sim, oid, action, self.params)
        if self.learner is not None:
            s2, mask2, done = dispatch_next_state(sim, s, action, removed, remaining)
            self.learner.record(s, action, reward * REWARD_SCALE, s2, done, mask2, reward)
            if remaining and (action < sim.config.fleet_size or removed):
                self._successor = (weakref.ref(sim), sim.revision, remaining[0], s2, mask2)
        if self.trace is not None:
            self.trace.append(
                {
                    "minute": sim.clock,
                    "order": oid,
                    "action": action,
                    "reward": reward,
                    "q_max": float(np.where(mask, q, -np.inf).max()),
                }
            )

"""Idle-courier steering: local supply-demand states, rewards, policy.

A courier idle for more than the threshold gets one decision per minute:
stay, or move to an adjacent grid.  The state is local: for the courier's own
grid and each of its six neighbor slots, the supply-demand gap and a
neighborhood balance score (the sum of gaps over that grid's own
neighborhood).  Rewards favor moves from over- to under-supplied areas, plus the
average balance-score improvement around the origin.

Both read tables the service region builds once, on first use.  A state is
the center grid's int64 slot stencil times the integer gap field: one
product gives every slot's gap and its neighborhood sum, exactly.  The
balance-score term of a move's reward does not read the field at all.  One
unit of supply leaving the origin lowers the score of every grid in
N(origin) by one, and arriving at the target raises those of them that also
lie in N(target), so the term is |N(origin) & N(target)| - |N(origin)|,
averaged over N(origin), read from the region's neighborhood overlaps.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .errors import ContractError
from .rlcore import QNet, select_action
from .simcore import SimState

STAY = 0
NUM_SLOTS = 7  # self plus the six canonical neighbor directions
STATE_DIM = 2 * NUM_SLOTS


def encode_from_field(
    sim: SimState, field: np.ndarray, center: int
) -> Tuple[np.ndarray, np.ndarray]:
    """(gap, score) pairs for the center grid and its six neighbor slots;
    absent slots are zero-filled and masked invalid."""
    region = sim.region
    s = (region.slot_stencils[center] @ field).astype(np.float64)
    return s, region.slot_mask[center].copy()


def encode_steer_state(sim: SimState, cid: int) -> Tuple[np.ndarray, np.ndarray]:
    if not sim.steering_eligible(cid):
        raise ContractError(f"courier {cid} is not eligible for steering")
    return encode_from_field(sim, sim.gap_field(), sim.couriers[cid].grid)


def slot_target(sim: SimState, gid: int, action: int) -> Optional[int]:
    """Destination grid for an action taken at gid; None means stay."""
    if action == STAY:
        return None
    target = sim.region.neighbor_ids(gid)[action - 1]
    if target is None:
        raise ContractError(f"slot {action} is outside the region from grid {gid}")
    return target


def reward_reallocate(sim: SimState, origin: int, target: Optional[int]) -> float:
    """Zero for staying.  For a move: gap(origin) - gap(target) plus the mean
    change, over the origin's neighborhood, of each grid's balance score when
    one unit of supply shifts from origin to target."""
    if target is None or target == origin:
        return 0.0
    region = sim.region
    field = sim.gap_field()
    size = len(region.neighborhoods[origin])
    improvement = region.neighborhood_overlaps[origin][target] - size
    return float(field[origin] - field[target]) + improvement / size


def apply_steer_decision(sim: SimState, cid: int, action: int) -> Tuple[float, int]:
    """Execute one steering action; returns (reward, destination grid)."""
    origin = sim.couriers[cid].grid
    target = slot_target(sim, origin, action)
    reward = reward_reallocate(sim, origin, target)
    if target is not None:
        sim.apply_reallocation(cid, target)
    return reward, origin if target is None else target


class SteerDdqnPolicy:
    """Steering from a value network.

    Without a learner the policy is greedy.  With one it explores with the
    learner's current epsilon and hands each decision's transition, and the
    raw reward, to `learner.record`: this is how the network is trained.
    """

    def __init__(self, net: QNet, learner=None, trace: Optional[list] = None):
        self.net = net
        self.learner = learner
        self.trace = trace

    def decide(self, sim: SimState, cid: int) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        s, mask = encode_steer_state(sim, cid)
        q = self.net.forward(s)
        epsilon = 0.0 if self.learner is None else self.learner.epsilon()
        action = select_action(q, mask, epsilon, sim.rng_policy)
        return action, s, mask, q

    def __call__(self, sim: SimState, cid: int) -> None:
        origin = sim.couriers[cid].grid
        action, s, mask, q = self.decide(sim, cid)
        reward, dest = apply_steer_decision(sim, cid, action)
        if self.learner is not None:
            s2, mask2 = encode_from_field(sim, sim.gap_field(), dest)
            done = sim.clock == sim.config.shift_minutes - 1
            self.learner.record(s, action, reward, s2, done, mask2, reward)
        if self.trace is not None:
            self.trace.append(
                {
                    "minute": sim.clock,
                    "courier": cid,
                    "from": origin,
                    "to": dest,
                    "reward": reward,
                }
            )

"""The decision path against its references, bit for bit.

A decision runs one state through `QNet.forward` (the layers on the 1-D
vector) and picks with `select_action` (one argmax over every action).
Both must give what the batch forward and the valid-subset argmax give,
whatever the machine: the forward on random inputs for every kind of net
the program runs, the selection on ties, masked maxima, -inf and NaN, and
whole seeded shifts, whose event logs must be byte-identical under the
library policies and under reference policies built from
`forward_batch(s[None])`, the oracle encodings and the valid-subset argmax.
"""

import copy
import io
from pathlib import Path

import numpy as np
import pytest

from mealtwin.dispatch import ConvDdqnPolicy, apply_dispatch_decision
from mealtwin.errors import ContractError
from mealtwin.forecast import OracleDemand
from mealtwin.rlcore import dispatch_qnet, load_qnet, select_action, steering_qnet
from mealtwin.scenario import default_scenario, make_rng
from mealtwin.simcore import MODE_MYOPIC, MODE_STRATEGIC, SimState, events_to_csv
from mealtwin.steering import SteerDdqnPolicy, apply_steer_decision

from oracles import (
    fresh_dispatch_state,
    fresh_gap_field,
    fresh_steer_state,
    reference_select_action,
)

PINNED_NETS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"


def net_cases():
    cases = [
        ("dispatch-25", lambda: dispatch_qnet(25, rng=make_rng(1))),
        ("dispatch-1", lambda: dispatch_qnet(1, rng=make_rng(2))),
        ("steering", lambda: steering_qnet(rng=make_rng(3))),
    ]
    for run in ("strategic", "myopic", "city"):
        for kind in ("dispatch", "steering"):
            path = PINNED_NETS / run / f"{kind}.json"
            cases.append((f"{run}/{kind}", lambda path=path: load_qnet(path)[0]))
    return cases


@pytest.mark.parametrize("make_net", [m for _, m in net_cases()], ids=[n for n, _ in net_cases()])
def test_forward_is_bitwise_the_batch_forward(make_net):
    net = make_net()
    rng = make_rng(17)
    k = net.spec.input_dim
    # State-like magnitudes, plus exact zeros and negative entries.
    X = rng.normal(scale=8.0, size=(10_000, k))
    X[rng.random(X.shape) < 0.2] = 0.0
    for x in X:
        q = net.forward(x)
        row, _ = net.forward_batch(x[None])
        assert q.shape == (net.num_actions,) and q.dtype == np.float64
        assert q.tobytes() == row[0].tobytes()


def test_forward_refuses_wrong_shapes():
    net = dispatch_qnet(3, rng=make_rng(0))
    for bad in (np.zeros(9), np.zeros(11), np.zeros((1, 10)), np.zeros(())):
        with pytest.raises(ContractError):
            net.forward(bad)
    with pytest.raises(ContractError):
        net.forward_batch(np.zeros(10))


SELECTION_CASES = [
    ([1.0, 5.0, 5.0, -2.0], [1, 1, 1, 1]),  # tie: lowest index
    ([1.0, 5.0, 5.0, -2.0], [1, 0, 1, 1]),  # the first of a tie masked
    ([1.0, 5.0, 5.0, -2.0], [1, 0, 0, 1]),  # every maximum masked
    ([10.0, 0.0], [0, 1]),
    ([-np.inf, -np.inf, -np.inf], [0, 1, 1]),  # valid entries all -inf
    ([-np.inf, -np.inf, 3.0], [1, 1, 0]),
    ([np.inf, 2.0, np.inf], [0, 1, 1]),
    ([1.0, np.nan, 2.0], [1, 1, 1]),  # NaN wins an argmax
    ([1.0, np.nan, 2.0], [1, 0, 1]),  # a masked NaN
    ([np.nan, np.nan, 0.0], [0, 1, 1]),
    ([np.nan, np.nan], [1, 1]),
    ([0.0], [1]),
]


@pytest.mark.parametrize("q,mask", SELECTION_CASES)
@pytest.mark.parametrize("eps", [0.0, 0.3, 1.0])
def test_select_action_matches_valid_subset_reference(q, mask, eps):
    q = np.array(q, dtype=np.float64)
    mask = np.array(mask, dtype=bool)
    for seed in range(20):
        rng, ref_rng = make_rng(seed), make_rng(seed)
        assert select_action(q, mask, eps, rng) == reference_select_action(q, mask, eps, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_select_action_matches_reference_on_random_values():
    rng = make_rng(5)
    for trial in range(5_000):
        n = int(rng.integers(1, 9))
        # Few distinct values, so that ties and masked maxima are common.
        q = rng.integers(-2, 3, size=n).astype(np.float64)
        q[rng.random(n) < 0.1] = -np.inf
        q[rng.random(n) < 0.05] = np.nan
        mask = rng.random(n) < 0.6
        eps = (0.0, 0.5)[trial % 2]
        draw, ref_draw = make_rng(trial), make_rng(trial)
        if not mask.any():
            with pytest.raises(ContractError):
                select_action(q, mask, eps, draw)
            with pytest.raises(ContractError):
                reference_select_action(q, mask, eps, ref_draw)
        else:
            got = select_action(q, mask, eps, draw)
            assert got == reference_select_action(q, mask, eps, ref_draw)
            assert mask[got]
        assert draw.bit_generator.state == ref_draw.bit_generator.state


def reference_dispatch(net):
    def decide(sim: SimState, oid: int, remaining) -> None:
        s, mask = fresh_dispatch_state(sim, oid)
        q = net.forward_batch(s[None])[0][0]
        action = reference_select_action(q, mask, 0.0, sim.rng_policy)
        sd = float(s[3 + 3 * action]) if action < sim.config.fleet_size else None
        apply_dispatch_decision(sim, oid, action, sd_gap=sd)

    return decide


def reference_steer(net):
    def decide(sim: SimState, cid: int) -> None:
        field = fresh_gap_field(sim)
        s, mask = fresh_steer_state(sim.region, field, sim.couriers[cid].grid)
        q = net.forward_batch(s[None])[0][0]
        apply_steer_decision(sim, cid, reference_select_action(q, mask, 0.0, sim.rng_policy))

    return decide


def shift_log(config, mode: str, dispatch_fn, steer_fn) -> str:
    predictor = OracleDemand(config) if mode == MODE_STRATEGIC else None
    sim = SimState(config, mode=mode, predictor=predictor, seed_key=(13,))
    sim.run(dispatch_fn, steer_fn)
    buf = io.StringIO()
    events_to_csv(sim.events, buf)
    return buf.getvalue()


@pytest.mark.parametrize("mode", [MODE_STRATEGIC, MODE_MYOPIC])
def test_library_policies_match_reference_policies(mode):
    config = default_scenario(seed=4)
    dispatch_net = dispatch_qnet(config.fleet_size, rng=make_rng(21))
    steering_net = steering_qnet(rng=make_rng(22))
    got = shift_log(config, mode, ConvDdqnPolicy(dispatch_net), SteerDdqnPolicy(steering_net))
    expected = shift_log(
        config,
        mode,
        reference_dispatch(copy.deepcopy(dispatch_net)),
        reference_steer(copy.deepcopy(steering_net)),
    )
    assert got == expected
    # The nets assign, postpone and move, so every branch ran.
    assert ",assigned," in got and ",postponed," in got and ",realloc," in got

"""Neural Q-learning machinery tests against small hand-checkable cases."""

import math

import numpy as np
import pytest

from mealtwin.errors import ConfigError, ContractError, NumericalError
from mealtwin.rlcore import (
    ACT_LINEAR,
    ACT_RELU,
    Adam,
    Batch,
    MASKED_Q,
    NetSpec,
    QNet,
    ReplayBuffer,
    Transition,
    dispatch_qnet,
    epsilon_schedule,
    learn,
    load_qnet,
    loss_and_grad,
    maybe_sync_target,
    save_qnet,
    select_action,
    steering_qnet,
    sync_target,
    td_targets,
)
from mealtwin.scenario import make_rng

import oracles
from oracles import (
    bandit_mdp,
    batch_loss,
    chain_mdp,
    ddqn_toy_train,
    finite_difference_grad,
    preactivation_margin,
    tabular_q_learning,
)


def tiny_net() -> QNet:
    """2 -> 2 relu -> 2 linear with hand-set weights."""
    net = QNet(NetSpec(input_dim=2, layer_dims=(2, 2), activations=(ACT_RELU, ACT_LINEAR)))
    net.weights[0][:] = [[1.0, -1.0], [0.0, 2.0]]
    net.biases[0][:] = [0.5, -0.5]
    net.weights[1][:] = [[1.0, 0.0], [1.0, 1.0]]
    net.biases[1][:] = [0.0, 0.25]
    return net


def test_forward_hand_computed():
    net = tiny_net()
    # x = (1, 1): pre1 = (1.5, 0.5), relu keeps both, out = (2.0, 0.75).
    assert net.forward(np.array([1.0, 1.0])) == pytest.approx([2.0, 0.75])
    # x = (1, 0): pre1 = (1.5, -1.5) -> relu (1.5, 0), out = (1.5, 0.25).
    assert net.forward(np.array([1.0, 0.0])) == pytest.approx([1.5, 0.25])


def test_param_vector_layout_and_views():
    net = tiny_net()
    # weights/biases are views into the flat vector, row-major per layer.
    expect = [1.0, -1.0, 0.0, 2.0, 0.5, -0.5, 1.0, 0.0, 1.0, 1.0, 0.0, 0.25]
    assert net.params.tolist() == expect
    net.params[0] = 9.0
    assert net.weights[0][0, 0] == 9.0


def test_embedding_front_shared_weights():
    net = dispatch_qnet(fleet_size=2, hidden=4)
    net.embed[:] = [1.0, 2.0, 3.0]
    x = np.array([5.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0])
    _, cache = net.forward_batch(x[None, :], want_cache=True)
    # Dense input = [head, t1 . beta, t2 . beta] with one shared beta.
    assert cache["inputs"][0][0].tolist() == [5.0, 6.0, 2.0]
    # Embedding parameters occupy the first three slots of the flat vector.
    assert net.params[:3].tolist() == [1.0, 2.0, 3.0]


def test_embedding_spec_validation():
    with pytest.raises(ConfigError):
        NetSpec(input_dim=8, layer_dims=(4,), activations=(ACT_LINEAR,), head_dim=1,
                embed_groups=2)  # needs 1 + 3*2 = 7
    with pytest.raises(ConfigError):
        NetSpec(input_dim=2, layer_dims=(2,), activations=("tanh",))
    with pytest.raises(ConfigError):
        NetSpec(input_dim=2, layer_dims=(2, 2), activations=(ACT_RELU,))


def test_glorot_init_bounds():
    rng = make_rng(0)
    net = dispatch_qnet(fleet_size=25, rng=rng)
    assert np.abs(net.embed).max() <= math.sqrt(6.0 / 4.0)
    for (din, dout), w, b in zip(net._shapes, net.weights, net.biases):
        assert np.abs(w).max() <= math.sqrt(6.0 / (din + dout))
        assert (b == 0).all()
    # Steering stack is the published 14 -> 32 -> 16 -> 7.
    snet = steering_qnet(rng=rng)
    assert [w.shape for w in snet.weights] == [(14, 32), (32, 16), (16, 7)]
    assert snet.embed is None


def test_clone_is_independent():
    net = tiny_net()
    other = net.clone()
    other.params[:] = 0.0
    assert net.params.any()
    assert not other.params.any()


def test_forward_rejects_bad_shapes():
    net = tiny_net()
    with pytest.raises(ContractError):
        net.forward_batch(np.zeros((3, 5)))


def test_gradient_matches_finite_differences_quick():
    rng = make_rng(13)
    for net in (dispatch_qnet(3, hidden=5, rng=rng), steering_qnet(rng=rng)):
        X = rng.normal(size=(4, net.spec.input_dim))
        if preactivation_margin(net, X) < 1e-3:
            X = X + 0.05
        actions = rng.integers(net.num_actions, size=4)
        targets = rng.normal(size=4)
        _, analytic = loss_and_grad(net, X, actions, targets)
        numeric = finite_difference_grad(net, X, actions, targets)
        denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
        assert (np.abs(analytic - numeric) / denom).max() < 1e-5


def per_parameter_finite_differences(net, X, actions, targets, h=1e-5):
    """Reference oracle: perturb one parameter at a time, two batch_loss calls each."""
    base = net.params.copy()
    grad = np.zeros_like(base)
    for j in range(base.size):
        net.params[j] = base[j] + h
        lp = batch_loss(net, X, actions, targets)
        net.params[j] = base[j] - h
        lm = batch_loss(net, X, actions, targets)
        net.params[j] = base[j]
        grad[j] = (lp - lm) / (2.0 * h)
    return grad


@pytest.mark.parametrize("block", [None, 1], ids=["default-chunks", "one-param-chunks"])
@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("kind", ["dispatch", "steering"])
def test_batched_finite_differences_match_per_parameter_loop(kind, batch, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(oracles, "_FD_BLOCK_ELEMENTS", block)
    rng = make_rng(29)
    net = dispatch_qnet(25, rng=rng) if kind == "dispatch" else steering_qnet(rng=rng)
    X = rng.normal(size=(batch, net.spec.input_dim))
    actions = rng.integers(net.num_actions, size=batch)
    targets = rng.normal(size=batch)
    expected = per_parameter_finite_differences(net.clone(), X, actions, targets)
    before = net.params.copy()
    net.params.flags.writeable = False
    got = finite_difference_grad(net, X, actions, targets)
    assert np.array_equal(net.params, before)
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-9)


def test_preactivation_margin():
    net = tiny_net()
    # x = (1, 1) gives pre-activations (1.5, 0.5) at the relu layer.
    assert preactivation_margin(net, np.array([[1.0, 1.0]])) == pytest.approx(0.5)
    linear = QNet(NetSpec(input_dim=2, layer_dims=(2,), activations=(ACT_LINEAR,)))
    assert preactivation_margin(linear, np.zeros((1, 2))) == np.inf


def test_adam_reference_steps():
    params = np.array([1.0])
    adam = Adam(1, lr=0.1)
    g1, g2 = np.array([0.4]), np.array([-0.2])
    adam.step(params, g1)
    adam.step(params, g2)
    # Independent recompute of two bias-corrected steps.
    p, m, v = 1.0, 0.0, 0.0
    for t, g in ((1, 0.4), (2, -0.2)):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        p -= 0.1 * (m / (1 - 0.9**t)) / (math.sqrt(v / (1 - 0.999**t)) + 1e-8)
    assert params[0] == pytest.approx(p, abs=1e-12)


def test_learn_matches_reference_pipeline():
    rng = make_rng(17)
    spec = NetSpec(input_dim=3, layer_dims=(4, 2), activations=(ACT_RELU, ACT_LINEAR))
    net = QNet(spec, make_rng(3))
    ref = net.clone()
    target = net.clone()
    adam = Adam(net.params.size, lr=1e-2)
    ref_adam = Adam(net.params.size, lr=1e-2)
    for _ in range(5):
        batch = Batch(
            s=rng.normal(size=(6, 3)),
            a=rng.integers(2, size=6),
            r=rng.normal(size=6) * 50.0,  # big targets force gradient clipping
            s2=rng.normal(size=(6, 3)),
            done=rng.random(6) < 0.5,
            mask2=np.ones((6, 2), dtype=bool),
        )
        learn(net, target, batch, adam, gamma=0.8, grad_clip=0.5)
        # Reference: targets from the frozen net, clip THEN Adam.
        q2, _ = target.forward_batch(batch.s2)
        y = batch.r + 0.8 * q2.max(axis=1) * (~batch.done)
        _, grad = loss_and_grad(ref, batch.s, batch.a, y)
        assert np.abs(grad).max() > 0.5  # clipping is actually exercised
        ref_adam.step(ref.params, np.clip(grad, -0.5, 0.5))
        assert np.allclose(net.params, ref.params, atol=0, rtol=0)


def test_learn_raises_on_nonfinite():
    net = tiny_net()
    target = net.clone()
    adam = Adam(net.params.size)
    batch = Batch(
        s=np.ones((2, 2)),
        a=np.zeros(2, dtype=np.int64),
        r=np.array([np.inf, 0.0]),
        s2=np.ones((2, 2)),
        done=np.array([True, True]),
        mask2=np.ones((2, 2), dtype=bool),
    )
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
        learn(net, target, batch, adam)


def test_replay_buffer_fifo_ring_and_sampling():
    buf = ReplayBuffer(capacity=3)
    mask = np.ones(2, dtype=bool)
    for i in range(5):
        buf.push(Transition(np.array([float(i)]), 0, float(i), np.array([0.0]), True, mask))
    assert len(buf) == 3
    kept = sorted(t.r for t in buf._data)
    assert kept == [2.0, 3.0, 4.0]  # the two oldest were overwritten in order
    batch = buf.sample(10, make_rng(0))  # with replacement: more than stored
    assert len(batch.r) == 10
    assert set(batch.r.tolist()) <= {2.0, 3.0, 4.0}
    with pytest.raises(ContractError):
        ReplayBuffer(2).sample(1, make_rng(0))


def test_epsilon_schedule_frozen_points():
    assert epsilon_schedule(0) == pytest.approx(0.95)
    # 0.99^100 * 0.95 recomputed through logs as an independent path.
    expected = math.exp(100 * math.log(0.99)) * 0.95
    assert epsilon_schedule(100) == pytest.approx(expected)
    assert epsilon_schedule(100) == pytest.approx(0.3477, abs=5e-5)
    assert epsilon_schedule(10_000) == 0.005


def test_select_action_greedy_ties_and_masking():
    rng = make_rng(1)
    q = np.array([1.0, 5.0, 5.0, -2.0])
    mask = np.array([True, True, True, True])
    assert select_action(q, mask, 0.0, rng) == 1  # lowest index among ties
    mask = np.array([True, False, True, True])
    assert select_action(q, mask, 0.0, rng) == 2
    # The best action being masked must never leak through.
    q2 = np.array([10.0, 0.0])
    assert select_action(q2, np.array([False, True]), 0.0, rng) == 1
    with pytest.raises(ContractError):
        select_action(q, np.zeros(4, dtype=bool), 0.5, rng)


def test_select_action_exploration_uniform_over_valid():
    rng = make_rng(2)
    q = np.zeros(3)
    mask = np.array([True, False, True])
    picks = {select_action(q, mask, 1.0, rng) for _ in range(100)}
    assert picks == {0, 2}


def test_select_action_greedy_consumes_no_randomness():
    q = np.array([0.0, 1.0])
    mask = np.ones(2, dtype=bool)
    rng = make_rng(3)
    select_action(q, mask, 0.0, rng)
    after_greedy = rng.random()
    assert after_greedy == make_rng(3).random()


def test_td_targets_hand_case():
    spec = NetSpec(input_dim=2, layer_dims=(2,), activations=(ACT_LINEAR,))
    target = QNet(spec)
    target.biases[0][:] = [3.0, 7.0]  # zero weights: q2 = biases everywhere
    batch = Batch(
        s=np.zeros((3, 2)),
        a=np.zeros(3, dtype=np.int64),
        r=np.array([1.0, 1.0, 1.0]),
        s2=np.zeros((3, 2)),
        done=np.array([True, False, False]),
        mask2=np.array([[True, True], [True, True], [True, False]]),
    )
    y = td_targets(target, batch, gamma=0.8)
    assert y == pytest.approx([1.0, 1.0 + 0.8 * 7.0, 1.0 + 0.8 * 3.0])
    assert MASKED_Q == -1e9


def test_target_sync_cadence():
    value = tiny_net()
    target = value.clone()
    value.params[:] += 1.0
    assert not maybe_sync_target(value, target, 0)
    assert not maybe_sync_target(value, target, 99)
    assert maybe_sync_target(value, target, 100)
    assert (target.params == value.params).all()
    value.params[:] += 1.0
    assert not maybe_sync_target(value, target, 150)
    assert maybe_sync_target(value, target, 200)
    sync_target(value, target)
    assert (target.params == value.params).all()


def test_qnet_round_trip(tmp_path):
    net = dispatch_qnet(4, rng=make_rng(5))
    path = tmp_path / "net.json"
    save_qnet(path, net, meta={"kind": "dispatch", "seed": 5})
    back, meta = load_qnet(path)
    assert meta == {"kind": "dispatch", "seed": 5}
    assert (back.params == net.params).all()
    assert back.spec == net.spec
    x = make_rng(6).normal(size=net.spec.input_dim)
    assert back.forward(x) == pytest.approx(net.forward(x))


def test_load_qnet_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_qnet(path)
    path.write_text('{"schema": "other/1"}')
    with pytest.raises(ConfigError):
        load_qnet(path)
    net = steering_qnet(rng=make_rng(7))
    save_qnet(path, net)
    import json

    doc = json.loads(path.read_text())
    doc["layers"][0]["w"] = [[1.0, 2.0]]
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_qnet(path)


def test_tabular_oracle_on_chain():
    mdp = chain_mdp(3)
    q = tabular_q_learning(mdp, episodes=3000, rng=make_rng(8))
    # Analytic optimum with gamma 0.8: advancing dominates everywhere.
    expected_advance = [0.64, 0.8, 1.0]
    for s in range(3):
        assert q[s].argmax() == 0
        assert q[s, 0] == pytest.approx(expected_advance[s], abs=0.1)


def test_ddqn_learns_bandit_quickly():
    mdp = bandit_mdp((1.0, 0.0))
    net = ddqn_toy_train(mdp, make_rng(9), updates=400)
    q = net.forward(np.array([1.0]))
    assert q.argmax() == 0
    tab = tabular_q_learning(mdp, episodes=2000, rng=make_rng(10))
    assert tab[0].argmax() == 0
    assert q[0] == pytest.approx(1.0, abs=0.2)

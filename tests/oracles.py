"""Reference implementations that the tests check the library against.

None of this runs in a training or evaluation: toy MDPs with a tabular
Q-learning oracle and a full DDQN loop over them, the finite-difference
gradient of the TD loss, and lag features built straight from transaction
records.  Tests import it as ``from oracles import ...``.
"""

from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Callable, Sequence, Tuple

import numpy as np

from mealtwin.errors import ContractError
from mealtwin.forecast import NUM_LAGS, WINDOW_MIN
from mealtwin.rlcore import (
    ACT_LINEAR,
    ACT_RELU,
    GAMMA,
    Adam,
    NetSpec,
    QNet,
    ReplayBuffer,
    Transition,
    epsilon_schedule,
    learn,
    select_action,
    sync_target,
)
from mealtwin.scenario import TransactionRecord

# ---------------------------------------------------------------- gradients


def preactivation_margin(net: QNet, X: np.ndarray) -> float:
    """Smallest |pre-activation| across relu layers; guards gradient checks."""
    _, cache = net.forward_batch(X, want_cache=True)
    margins = [
        np.abs(z).min()
        for z, act in zip(cache["pre"], net.spec.activations)
        if act == ACT_RELU
    ]
    return float(min(margins)) if margins else np.inf


def batch_loss(net: QNet, X: np.ndarray, actions: np.ndarray, targets: np.ndarray) -> float:
    q, _ = net.forward_batch(X)
    pred = q[np.arange(len(actions)), actions]
    return float(np.mean((pred - targets) ** 2))


def _stacked_batch_loss(
    net: QNet, P: np.ndarray, X: np.ndarray, actions: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """batch_loss of `net`'s architecture at each row of P, a (R, n) stack of
    flat parameter vectors laid out like QNet.params; returns shape (R,)."""
    spec = net.spec
    offset = 0
    if spec.embed_groups:
        triples = X[:, spec.head_dim :].reshape(len(X), spec.embed_groups, 3)
        embedded = np.einsum("bgk,rk->rbg", triples, P[:, 0:3])
        head = np.broadcast_to(X[:, : spec.head_dim], (len(P), len(X), spec.head_dim))
        a = np.concatenate([head, embedded], axis=2)
        offset = 3
    else:
        a = X  # (B, din) broadcasts against the (R, din, dout) weight stack
    for (din, dout), act in zip(net._shapes, spec.activations):
        w = P[:, offset : offset + din * dout].reshape(len(P), din, dout)
        offset += din * dout
        b = P[:, offset : offset + dout]
        offset += dout
        z = np.matmul(a, w) + b[:, None, :]
        a = np.maximum(z, 0.0) if act == ACT_RELU else z
    pred = a[:, np.arange(len(actions)), actions]
    return np.mean((pred - targets) ** 2, axis=1)


# float64 entries per block of stacked parameter vectors and activations, so
# that the oracle's peak memory stays near 16 MB whatever the net's size.
_FD_BLOCK_ELEMENTS = 1 << 21


def finite_difference_grad(
    net: QNet, X: np.ndarray, actions: np.ndarray, targets: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Central finite differences of batch_loss over every parameter.

    Computes the same (batch_loss(p + h e_j) - batch_loss(p - h e_j)) / 2h for
    every parameter j as perturbing one parameter at a time, but stacks the +h
    and -h copies of a chunk of parameters into a matrix and evaluates them as
    one batched forward per chunk.  Uses forward passes only and never writes
    to net.params.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.spec.input_dim:
        raise ContractError(f"expected input shape (B, {net.spec.input_dim})")
    actions = np.asarray(actions)
    targets = np.asarray(targets, dtype=np.float64)
    base = net.params
    n = base.size
    widest = max((net.spec.input_dim,) + net.spec.layer_dims)
    chunk = min(n, max(1, _FD_BLOCK_ELEMENTS // (2 * (n + len(X) * widest))))
    P = np.tile(base, (2 * chunk, 1))
    grad = np.empty_like(base)
    for start in range(0, n, chunk):
        idx = np.arange(start, min(start + chunk, n))
        m = len(idx)
        plus, minus = np.arange(m), np.arange(m, 2 * m)
        P[plus, idx] = base[idx] + h
        P[minus, idx] = base[idx] - h
        losses = _stacked_batch_loss(net, P[: 2 * m], X, actions, targets)
        P[plus, idx] = base[idx]
        P[minus, idx] = base[idx]
        grad[idx] = (losses[:m] - losses[m:]) / (2.0 * h)
    return grad


# ---------------------------------------------------------------- toy MDPs


@dataclass(frozen=True)
class ToyMDP:
    n_states: int
    n_actions: int
    start: int
    step: Callable[[int, int, np.random.Generator], Tuple[int, float, bool]]


def bandit_mdp(rewards: Sequence[float] = (1.0, 0.0)) -> ToyMDP:
    """Single-state bandit; every action ends the episode with its fixed reward."""
    rewards = tuple(rewards)

    def step(s: int, a: int, rng: np.random.Generator) -> Tuple[int, float, bool]:
        return 0, rewards[a], True

    return ToyMDP(n_states=1, n_actions=len(rewards), start=0, step=step)


def chain_mdp(length: int = 3) -> ToyMDP:
    """Deterministic chain: action 0 advances (reward 1 on leaving the last
    state, which ends the episode), action 1 stays for nothing."""

    def step(s: int, a: int, rng: np.random.Generator) -> Tuple[int, float, bool]:
        if a == 0:
            if s + 1 == length:
                return s, 1.0, True
            return s + 1, 0.0, False
        return s, 0.0, False

    return ToyMDP(n_states=length, n_actions=2, start=0, step=step)


def tabular_q_learning(
    mdp: ToyMDP,
    episodes: int,
    rng: np.random.Generator,
    alpha: float = 0.1,
    gamma: float = GAMMA,
    epsilon: float = 0.1,
    max_steps: int = 100,
) -> np.ndarray:
    """Plain epsilon-greedy tabular Q-learning; the reference learner."""
    q = np.zeros((mdp.n_states, mdp.n_actions), dtype=np.float64)
    for _ in range(episodes):
        s = mdp.start
        for _ in range(max_steps):
            if rng.random() < epsilon:
                a = int(rng.integers(mdp.n_actions))
            else:
                a = int(np.argmax(q[s]))
            s2, r, done = mdp.step(s, a, rng)
            target = r if done else r + gamma * float(q[s2].max())
            q[s, a] += alpha * (target - q[s, a])
            s = s2
            if done:
                break
    return q


def ddqn_toy_train(
    mdp: ToyMDP,
    rng: np.random.Generator,
    updates: int = 2000,
    hidden: int = 16,
    batch_size: int = 32,
    capacity: int = 500,
    sync_every: int = 50,
    gamma: float = GAMMA,
    max_steps: int = 100,
) -> QNet:
    """Run the full DDQN loop (replay, target net, clipped Adam) on a toy MDP."""
    spec = NetSpec(
        input_dim=mdp.n_states,
        layer_dims=(hidden, mdp.n_actions),
        activations=(ACT_RELU, ACT_LINEAR),
    )
    value = QNet(spec, rng)
    target = value.clone()
    adam = Adam(value.params.size)
    buffer = ReplayBuffer(capacity)
    mask = np.ones(mdp.n_actions, dtype=bool)
    learn_count = 0
    onehot = np.eye(mdp.n_states, dtype=np.float64)
    while learn_count < updates:
        s = mdp.start
        for _ in range(max_steps):
            eps = epsilon_schedule(learn_count)
            a = select_action(value.forward(onehot[s]), mask, eps, rng)
            s2, r, done = mdp.step(s, a, rng)
            buffer.push(Transition(onehot[s], a, r, onehot[s2], done, mask.copy()))
            if len(buffer) >= batch_size:
                learn(value, target, buffer.sample(batch_size, rng), adam, gamma)
                learn_count += 1
                if learn_count % sync_every == 0:
                    sync_target(value, target)
                if learn_count >= updates:
                    break
            s = s2
            if done:
                break
    return value


# ---------------------------------------------------------------- lag features


@dataclass(frozen=True)
class LagFeatures:
    """Input features for one forecast: calendar position plus lagged counts."""

    day_of_week: int  # 0=Monday .. 6=Sunday
    hour_of_day: int
    lags: Tuple[float, float, float, float]
    truncated: bool = False  # true when the lag horizon predates the history

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.day_of_week, self.hour_of_day, *self.lags], dtype=np.float64
        )


def build_features(
    history: Sequence[TransactionRecord], grid: int, t: datetime
) -> LagFeatures:
    """Lag features for a grid at wall-clock time t from transaction records."""
    lags = [0.0] * NUM_LAGS
    horizon = t - timedelta(minutes=NUM_LAGS * WINDOW_MIN)
    covered = False
    for rec in history:
        if rec.restaurant != grid:
            continue
        if rec.when <= horizon:
            covered = True
            continue
        if rec.when > t:
            continue
        back = (t - rec.when).total_seconds() / 60.0
        lags[int(back // WINDOW_MIN)] += 1.0
    return LagFeatures(
        day_of_week=t.weekday(),
        hour_of_day=t.hour,
        lags=tuple(lags),
        truncated=not covered,
    )

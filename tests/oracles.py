"""Reference implementations that the tests check the library against.

None of this runs in a training or evaluation: toy MDPs with a tabular
Q-learning oracle and a full DDQN loop over them, the replay ring as a list
of per-transition records, the finite-difference gradient of the TD loss,
epsilon-greedy selection over the valid subset of actions, a shift's orders
drawn minute by minute with its own Poisson and od draws, lag features
built straight from transaction records, the forecaster's per-node split
search with a fresh sort per feature, the scalar walk of its trees, the hex
distance formula, a fleet projection (its own walk over each queue, on that
formula), gap field, idle and pending counts, dispatch and steering
encodings recomputed from the couriers at each call, and the steering reward
summed over a shifted gap field.  Tests import it as ``from oracles import
...``.
"""

from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from mealtwin.errors import ContractError
from mealtwin.forecast import NUM_LAGS, WINDOW_MIN, GBTEnsemble, GBTParams, RegressionTree
from mealtwin.rlcore import (
    ACT_LINEAR,
    ACT_RELU,
    GAMMA,
    Adam,
    NetSpec,
    QNet,
    Batch,
    ReplayBuffer,
    epsilon_schedule,
    learn,
    select_action,
    sync_target,
)
from mealtwin.hexgrid import MINUTES_PER_UNIT, HexCoord, ServiceRegion
from mealtwin.scenario import (
    DEFAULT_SHIFT_WEEKDAY,
    Order,
    ScenarioConfig,
    TransactionRecord,
    make_rng,
    sample_prep,
)
from mealtwin.simcore import (
    ANTICIPATION_MIN,
    DELIVERY,
    IDLE,
    MODE_MYOPIC,
    REALLOCATE,
    TO_DELIVERY,
    WAITING,
    Courier,
    SimState,
)

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


class ListReplayBuffer:
    """The replay ring as a list of per-transition tuples, re-stacked into a
    Batch at every sample; same constructor, push and draw as the library's
    array ring, whose samples must equal these."""

    def __init__(self, capacity: int, state_dim: int = 0, num_actions: int = 0):
        self.capacity = capacity
        self._data: List[tuple] = []
        self._next = 0

    def __len__(self) -> int:
        return len(self._data)

    def push(self, s, a, r, s2, done, mask2) -> None:
        row = (s, a, r, s2, done, mask2)
        if len(self._data) < self.capacity:
            self._data.append(row)
        else:
            self._data[self._next] = row
        self._next = (self._next + 1) % self.capacity

    def sample(self, batch_size: int, rng: np.random.Generator) -> Batch:
        if len(self._data) == 0:
            raise ContractError("cannot sample from an empty replay buffer")
        idx = rng.integers(0, len(self._data), size=batch_size)
        rows = [self._data[int(i)] for i in idx]
        return Batch(
            s=np.stack([t[0] for t in rows]),
            a=np.array([t[1] for t in rows], dtype=np.int64),
            r=np.array([t[2] for t in rows], dtype=np.float64),
            s2=np.stack([t[3] for t in rows]),
            done=np.array([t[4] for t in rows], dtype=bool),
            mask2=np.stack([t[5] for t in rows]),
        )


def reference_select_action(
    q: np.ndarray, mask: np.ndarray, eps: float, rng: np.random.Generator
) -> int:
    """Epsilon-greedy with the greedy argmax taken over the valid subset
    only; the draws and the choice `select_action` must reproduce."""
    valid = np.flatnonzero(mask)
    if valid.size == 0:
        raise ContractError("action mask leaves no valid action")
    if eps > 0.0 and rng.random() < eps:
        return int(valid[rng.integers(valid.size)])
    return int(valid[np.argmax(q[valid])])


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
    buffer = ReplayBuffer(capacity, mdp.n_states, mdp.n_actions)
    mask = np.ones(mdp.n_actions, dtype=bool)
    learn_count = 0
    onehot = np.eye(mdp.n_states, dtype=np.float64)
    while learn_count < updates:
        s = mdp.start
        for _ in range(max_steps):
            eps = epsilon_schedule(learn_count)
            a = select_action(value.forward(onehot[s]), mask, eps, rng)
            s2, r, done = mdp.step(s, a, rng)
            buffer.push(onehot[s], a, r, onehot[s2], done, mask)
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


# ------------------------------------------------------------------ orders


def minute_draws(config: ScenarioConfig, seed_key: Sequence[int]) -> List[List[Order]]:
    """Each minute's orders of the shift under this seed key, drawn minute by
    minute on the order stream (*seed_key, 0), with ids running on from 0.
    In a minute each restaurant grid, in id order, draws a Poisson count at
    its rate / 60 (none where that is not positive) and each order's
    household from its cumulative od row; then every order draws its prep
    times in turn."""
    rng = make_rng(*seed_key, 0)
    minutes: List[List[Order]] = []
    next_id = 0
    for minute in range(config.shift_minutes):
        hour = config.shift_start_hour + minute // 60
        arrivals = []
        for gid, is_restaurant in enumerate(config.region.restaurant_flags):
            lam = config.hourly_rates[gid][hour] / 60.0 if is_restaurant else 0.0
            if not lam > 0:
                continue
            row = config.od_probs[gid]
            dests = sorted(row)
            cum = np.cumsum([row[d] for d in dests])
            for _ in range(rng.poisson(lam)):
                arrivals.append((gid, dests[np.searchsorted(cum, rng.random(), side="right")]))
        orders = []
        for gid, household in arrivals:
            orders.append(Order(next_id, minute, gid, household, *sample_prep(config, rng)))
            next_id += 1
        minutes.append(orders)
    return minutes


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


# ------------------------------------------------------------- tree fitting


def reference_best_split(
    X: np.ndarray, residual: np.ndarray, params: GBTParams
) -> Optional[Tuple[int, float, float]]:
    """Best (feature, threshold, gain) of one node, one feature at a time,
    each with a fresh stable argsort of the node's rows.  Ties resolve to
    the lowest feature, then the lowest threshold."""
    n = len(residual)
    if n < 2 * params.min_leaf:
        return None
    lam = params.l2_reg
    total = residual.sum()
    parent_score = total * total / (n + lam)
    best: Optional[Tuple[int, float, float]] = None
    for feat in range(X.shape[1]):
        order = np.argsort(X[:, feat], kind="stable")
        xs = X[order, feat]
        prefix = np.cumsum(residual[order])
        # Candidate split after sorted position i: left = [0..i], right = rest.
        i = np.arange(params.min_leaf - 1, n - params.min_leaf)
        valid = xs[i] != xs[i + 1]
        if not valid.any():
            continue
        n_left = (i + 1).astype(np.float64)
        left_sum = prefix[i]
        right_sum = total - left_sum
        gains = (
            left_sum**2 / (n_left + lam)
            + right_sum**2 / (n - n_left + lam)
            - parent_score
        )
        gains[~valid] = -np.inf
        pos = int(np.argmax(gains))
        gain = float(gains[pos])
        if gain > 1e-12 and (best is None or gain > best[2]):
            thr = float((xs[i[pos]] + xs[i[pos] + 1]) / 2.0)
            best = (feat, thr, gain)
    return best


def _reference_grow(
    tree: RegressionTree,
    X: np.ndarray,
    residual: np.ndarray,
    rows: np.ndarray,
    fitted: np.ndarray,
    depth: int,
    params: GBTParams,
) -> int:
    node = tree._new_node()
    split = reference_best_split(X, residual, params) if depth < params.max_depth else None
    if split is None:
        tree.value[node] = float(residual.sum() / (len(residual) + params.l2_reg))
        fitted[rows] = tree.value[node]
        return node
    feat, thr, _ = split
    mask = X[:, feat] <= thr
    tree.feature[node] = feat
    tree.threshold[node] = thr
    tree.left[node] = _reference_grow(
        tree, X[mask], residual[mask], rows[mask], fitted, depth + 1, params
    )
    tree.right[node] = _reference_grow(
        tree, X[~mask], residual[~mask], rows[~mask], fitted, depth + 1, params
    )
    return node


def reference_train_gbt(X: np.ndarray, y: np.ndarray, params: GBTParams) -> GBTEnsemble:
    """`train_gbt` with the split search above: the node-by-node walk the
    presorted fit must reproduce bit for bit."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    model = GBTEnsemble(base_score=float(y.mean()), shrinkage=params.shrinkage, params=params)
    current = np.full(len(y), model.base_score, dtype=np.float64)
    rows = np.arange(len(y))
    fitted = np.empty(len(y), dtype=np.float64)
    for _ in range(params.rounds):
        residual = y - current
        tree = RegressionTree()
        _reference_grow(tree, X, residual, rows, fitted, 0, params)
        model.trees.append(tree)
        current += params.shrinkage * fitted
        model.train_losses.append(float(np.mean((y - current) ** 2)))
    return model


# ------------------------------------------------------------- tree forecasts


def tree_predict(tree: RegressionTree, x: np.ndarray) -> float:
    """Leaf value of one tree for one float64 feature row, node by node."""
    node = 0
    while tree.feature[node] >= 0:
        if x[tree.feature[node]] <= tree.threshold[node]:
            node = tree.left[node]
        else:
            node = tree.right[node]
    return tree.value[node]


def ensemble_predict(model: GBTEnsemble, x: np.ndarray) -> float:
    """base + shrinkage * leaf, tree by tree in Python floats, clamped at 0."""
    raw = model.base_score
    for tree in model.trees:
        raw += model.shrinkage * tree_predict(tree, x)
    return max(raw, 0.0)


def scalar_lag_counts(counts: np.ndarray, minute: int) -> Tuple[float, ...]:
    """Window k sums shift minutes (minute-15k, minute-15(k-1)], one grid."""
    lags = []
    for k in range(1, NUM_LAGS + 1):
        lo_idx = max(minute - WINDOW_MIN * k + 1, 0)
        hi_idx = min(minute - WINDOW_MIN * (k - 1), len(counts) - 1)
        lags.append(float(counts[lo_idx : hi_idx + 1].sum()) if hi_idx >= lo_idx else 0.0)
    return tuple(lags)


def grid_forecasts(
    models: Dict[int, GBTEnsemble], config: ScenarioConfig, minute: int, counts: np.ndarray
) -> np.ndarray:
    """Per-grid forecasts one grid and one tree at a time; zero for grids
    without a model."""
    out = np.zeros(len(config.region), dtype=np.float64)
    for gid in config.region.restaurant_ids:
        if gid in models:
            lags = scalar_lag_counts(counts[gid], minute)
            x = np.array([DEFAULT_SHIFT_WEEKDAY, config.hour_at(minute), *lags], dtype=np.float64)
            out[gid] = ensemble_predict(models[gid], x)
    return out


# ------------------------------------------------------------ fleet geometry


def hex_distance(a: HexCoord, b: HexCoord) -> int:
    """Lattice distance: (|dq| + |dr| + |dq+dr|) / 2."""
    dq = a.q - b.q
    dr = a.r - b.r
    return (abs(dq) + abs(dr) + abs(dq + dr)) // 2


def grid_neighborhood(region: ServiceRegion, gid: int) -> List[int]:
    """The grid itself plus its in-region neighbors, from the slot table."""
    return [gid] + [nid for nid in region.neighbor_ids(gid) if nid is not None]


def score_from_field(region: ServiceRegion, field: Sequence[float], gid: int) -> float:
    """Balance score of a grid: the sum of gaps over its neighborhood, in
    neighborhood order."""
    return float(sum(field[g] for g in region.neighborhoods[gid]))


def shifted_field_reward(
    region: ServiceRegion, field: np.ndarray, origin: int, target: int
) -> float:
    """The steering reward of a move by its definition: gap(origin) -
    gap(target) plus the mean change, over the origin's neighborhood, of
    each grid's balance score when one unit of supply shifts from origin to
    target, summed over the shifted field."""
    before = field.astype(np.float64)
    after = before.copy()
    after[origin] -= 1.0
    after[target] += 1.0
    around = region.neighborhoods[origin]
    before_list, after_list = before.tolist(), after.tolist()
    improvement = sum(
        score_from_field(region, after_list, g) - score_from_field(region, before_list, g)
        for g in around
    )
    return float(before[origin] - before[target] + improvement / len(around))


def grid_distance(region: ServiceRegion, a: int, b: int) -> int:
    return hex_distance(region.grids[a], region.grids[b])


def project_courier(sim: SimState, c: Courier) -> Tuple[int, float]:
    """Grid and absolute minute at which the courier's queued work ends,
    with kitchen estimates for every prep time not yet known: the head task
    from the courier's status and milestone times, then each queued delivery
    in turn, on the hex distance formula."""
    region = sim.region
    now = float(sim.clock)
    if c.status == IDLE:
        return c.grid, now
    head = c.queue[0]
    if head.kind == REALLOCATE:
        g, t = head.target, c.done_time
    else:
        o = sim.orders[head.order_id]
        if c.status == TO_DELIVERY:
            t = c.done_time
        else:
            arrive = now if c.status == WAITING else c.arrive_time
            t = max(arrive, o.est_ready) + MINUTES_PER_UNIT * grid_distance(
                region, o.restaurant, o.household
            )
        g = o.household
    for task in c.queue[1:]:
        o = sim.orders[task.order_id]
        arrive = t + MINUTES_PER_UNIT * grid_distance(region, g, o.restaurant)
        t = max(arrive, o.est_ready) + MINUTES_PER_UNIT * grid_distance(
            region, o.restaurant, o.household
        )
        g = o.household
    return g, t


def queued_deliveries(c: Courier) -> int:
    return sum(1 for task in c.queue if task.kind == DELIVERY)


def fresh_rows(sim: SimState) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(idle grid, minutes until idle, delivery tasks) of every courier,
    projected afresh from its queue."""
    grid, eta, tasks = [], [], []
    for c in sim.couriers:
        g, t = project_courier(sim, c)
        grid.append(g)
        eta.append(t - float(sim.clock))
        tasks.append(queued_deliveries(c))
    return (
        np.array(grid, dtype=np.int64),
        np.array(eta, dtype=np.float64),
        np.array(tasks, dtype=np.int64),
    )


def fresh_idle_counts(sim: SimState) -> np.ndarray:
    """Idle couriers per grid, counted courier by courier."""
    counts = np.zeros(len(sim.region), dtype=np.int64)
    for c in sim.couriers:
        if c.status == IDLE:
            counts[c.grid] += 1
    return counts


def fresh_pending_counts(sim: SimState) -> np.ndarray:
    """Pending orders per restaurant grid, counted order by order."""
    counts = np.zeros(len(sim.region), dtype=np.int64)
    for o in sim.orders.values():
        if o.status == "pending":
            counts[o.restaurant] += 1
    return counts


def fresh_gap_field(sim: SimState) -> np.ndarray:
    """The supply-demand gap of every grid, counted courier by courier."""
    if sim.mode == MODE_MYOPIC:
        return fresh_idle_counts(sim) - fresh_pending_counts(sim)
    supply = np.zeros(len(sim.region), dtype=np.int64)
    for c in sim.couriers:
        g, t = project_courier(sim, c)
        if t - float(sim.clock) <= ANTICIPATION_MIN:
            supply[g] += 1
    return supply - sim.rounded_demand


def fresh_eligible_ids(sim: SimState) -> List[int]:
    """Couriers idle strictly longer than the idle threshold, in id order."""
    return [
        c.id
        for c in sim.couriers
        if c.status == IDLE and sim.clock - c.idle_since > sim.config.idle_threshold_min
    ]


def fresh_steer_state(region: ServiceRegion, field: np.ndarray, center: int):
    """The steering state and mask at a grid, slot by slot: each slot's gap
    and its balance score summed over the grid's neighborhood."""
    s = np.zeros(14, dtype=np.float64)
    mask = np.zeros(7, dtype=bool)
    values = field.tolist()
    for slot, gid in enumerate((center,) + region.neighbor_ids(center)):
        if gid is None:
            continue
        mask[slot] = True
        s[2 * slot] = values[gid]
        s[2 * slot + 1] = score_from_field(region, values, gid)
    return s, mask


def fresh_dispatch_state(sim: SimState, oid: int) -> Tuple[np.ndarray, np.ndarray]:
    """The dispatch state and mask of one pending order, courier by courier."""
    o = sim.orders[oid]
    field = fresh_gap_field(sim)
    grid, eta, tasks = fresh_rows(sim)
    s = np.zeros(1 + 3 * len(sim.couriers), dtype=np.float64)
    s[0] = o.est_ready - sim.clock
    for cid in range(len(sim.couriers)):
        g = int(grid[cid])
        s[1 + 3 * cid] = eta[cid]
        s[2 + 3 * cid] = hex_distance(sim.region.grids[g], sim.region.grids[o.restaurant])
        s[3 + 3 * cid] = field[g]
    mask = np.append(tasks < sim.config.max_delivery_tasks, True)
    return s, mask

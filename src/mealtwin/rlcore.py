"""From-scratch deep Q-learning machinery on numpy float64.

Value networks are small dense stacks, optionally fronted by a shared
courier-embedding layer: a single weight triple applied window-3/stride-3
without bias across the courier section of the input, producing one scalar
embedding per courier.  Forward, backward, Adam, replay and the TD update are
all implemented here; no autograd framework is involved.  The TD target takes
the frozen target net's masked max over the next state (the Nature-DQN
target), not the double-DQN target, where the online net picks the action;
ROADMAP item 2 plans that change.

Replay is a ring of preallocated arrays, one per transition field: a push
writes one row, and a sample gathers every field at one draw of row indices
into a `Batch`, the only transition record type.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import ConfigError, ContractError, NumericalError, load_document, whole

QNET_SCHEMA = "mealtwin-qnet/1"
MASKED_Q = -1e9  # huge negative stands in for invalid actions

# Published training hyperparameters.
LEARNING_RATE = 5e-4
GAMMA = 0.8
REPLAY_CAPACITY = 1000
BATCH_SIZE = 300
TARGET_SYNC_DECISIONS = 100
LEARN_PERIOD_STEPS = 5
GRAD_CLIP = 0.5
EPSILON_START = 0.95
EPSILON_DECAY = 0.99
EPSILON_FLOOR = 0.005

ACT_RELU = "relu"
ACT_LINEAR = "linear"


@dataclass(frozen=True)
class NetSpec:
    """Architecture description; serialized alongside weights."""

    input_dim: int
    layer_dims: Tuple[int, ...]
    activations: Tuple[str, ...]
    head_dim: int = 0  # passthrough scalars ahead of the embedded triples
    embed_groups: int = 0  # courier triples consumed by the shared embedding

    def __post_init__(self) -> None:
        if len(self.layer_dims) != len(self.activations):
            raise ConfigError("layer_dims and activations must align")
        for act in self.activations:
            if act not in (ACT_RELU, ACT_LINEAR):
                raise ConfigError(f"unknown activation {act!r}")
        if self.embed_groups:
            expected = self.head_dim + 3 * self.embed_groups
            if self.input_dim != expected:
                raise ConfigError(
                    f"embedding front expects input_dim {expected}, got {self.input_dim}"
                )

    @property
    def dense_input_dim(self) -> int:
        return self.head_dim + self.embed_groups if self.embed_groups else self.input_dim


class QNet:
    """Dense Q-value network with parameters stored in one flat float64 vector."""

    def __init__(self, spec: NetSpec, rng: Optional[np.random.Generator] = None):
        self.spec = spec
        shapes = []
        din = spec.dense_input_dim
        for dout in spec.layer_dims:
            shapes.append((din, dout))
            din = dout
        self._shapes = shapes
        n = (3 if spec.embed_groups else 0) + sum(a * b + b for a, b in shapes)
        self.params = np.zeros(n, dtype=np.float64)
        self._build_views()
        if rng is not None:
            self.init_params(rng)

    def _build_views(self) -> None:
        offset = 0
        if self.spec.embed_groups:
            self.embed = self.params[0:3]
            offset = 3
        else:
            self.embed = None
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        for din, dout in self._shapes:
            self.weights.append(self.params[offset : offset + din * dout].reshape(din, dout))
            offset += din * dout
            self.biases.append(self.params[offset : offset + dout])
            offset += dout

    def init_params(self, rng: np.random.Generator) -> None:
        """Glorot-uniform weights, zero biases; embedding treated as fan 3 -> 1."""
        if self.embed is not None:
            limit = np.sqrt(6.0 / 4.0)
            self.embed[:] = rng.uniform(-limit, limit, size=3)
        for (din, dout), w, b in zip(self._shapes, self.weights, self.biases):
            limit = np.sqrt(6.0 / (din + dout))
            w[:] = rng.uniform(-limit, limit, size=(din, dout))
            b[:] = 0.0

    def clone(self) -> "QNet":
        other = QNet(self.spec)
        other.params[:] = self.params
        return other

    @property
    def num_actions(self) -> int:
        return self.spec.layer_dims[-1]

    def forward_batch(
        self, X: np.ndarray, want_cache: bool = False
    ) -> Tuple[np.ndarray, Optional[dict]]:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.spec.input_dim:
            raise ContractError(f"expected input shape (B, {self.spec.input_dim})")
        return self._layers(X, want_cache)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Action values of one state.  The layers run on the 1-D vector, so
        each is one matrix-vector product."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.spec.input_dim,):
            raise ContractError(f"expected input shape ({self.spec.input_dim},)")
        q, _ = self._layers(x, False)
        return q

    def _layers(self, X: np.ndarray, want_cache: bool) -> Tuple[np.ndarray, Optional[dict]]:
        """The embedding and the dense stack over the last axis of X, for a
        single state or a batch."""
        cache: Optional[dict] = {"inputs": [], "pre": []} if want_cache else None
        if self.spec.embed_groups:
            head = X[..., : self.spec.head_dim]
            triples = X[..., self.spec.head_dim :].reshape(
                X.shape[:-1] + (self.spec.embed_groups, 3)
            )
            a = np.concatenate([head, triples @ self.embed], axis=-1)
            if cache is not None:
                cache["triples"] = triples
        else:
            a = X
        for w, b, act in zip(self.weights, self.biases, self.spec.activations):
            z = a @ w
            z += b
            if cache is not None:
                cache["inputs"].append(a)
                cache["pre"].append(z)
            if act == ACT_RELU:
                # Without a cache nothing else reads z, so relu may overwrite it.
                a = np.maximum(z, 0.0, out=None if cache is not None else z)
            else:
                a = z
        return a, cache

    def backward(self, cache: dict, dQ: np.ndarray) -> np.ndarray:
        """Gradient of whatever loss produced dQ, as a flat vector over params."""
        grad = np.zeros_like(self.params)
        offset_embed = 3 if self.spec.embed_groups else 0
        g_weights: List[np.ndarray] = []
        g_biases: List[np.ndarray] = []
        da = dQ
        for idx in range(len(self.weights) - 1, -1, -1):
            z = cache["pre"][idx]
            dz = da * (z > 0.0) if self.spec.activations[idx] == ACT_RELU else da
            g_weights.append(cache["inputs"][idx].T @ dz)
            g_biases.append(dz.sum(axis=0))
            da = dz @ self.weights[idx].T
        g_weights.reverse()
        g_biases.reverse()
        offset = offset_embed
        for gw, gb in zip(g_weights, g_biases):
            grad[offset : offset + gw.size] = gw.ravel()
            offset += gw.size
            grad[offset : offset + gb.size] = gb
            offset += gb.size
        if self.spec.embed_groups:
            d_embedded = da[:, self.spec.head_dim :]
            grad[0:3] = np.einsum("bg,bgk->k", d_embedded, cache["triples"])
        return grad


class Adam:
    """Adam with bias correction, operating in place on a flat parameter vector."""

    def __init__(
        self,
        n_params: int,
        lr: float = LEARNING_RATE,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros(n_params, dtype=np.float64)
        self.v = np.zeros(n_params, dtype=np.float64)

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        params -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class Batch:
    s: np.ndarray
    a: np.ndarray
    r: np.ndarray
    s2: np.ndarray
    done: np.ndarray
    mask2: np.ndarray


class ReplayBuffer:
    """Fixed-capacity FIFO ring with one preallocated array per transition
    field; sampling is uniform with replacement."""

    def __init__(self, capacity: int, state_dim: int, num_actions: int):
        self.capacity = capacity
        self.s = np.zeros((capacity, state_dim), dtype=np.float64)
        self.a = np.zeros(capacity, dtype=np.int64)
        self.r = np.zeros(capacity, dtype=np.float64)
        self.s2 = np.zeros((capacity, state_dim), dtype=np.float64)
        self.done = np.zeros(capacity, dtype=bool)
        self.mask2 = np.zeros((capacity, num_actions), dtype=bool)
        self._size = 0
        self._next = 0

    def __len__(self) -> int:
        return self._size

    def push(
        self, s: np.ndarray, a: int, r: float, s2: np.ndarray, done: bool, mask2: np.ndarray
    ) -> None:
        """Write one transition over the oldest row once the ring is full."""
        i = self._next
        self.s[i] = s
        self.a[i] = a
        self.r[i] = r
        self.s2[i] = s2
        self.done[i] = done
        self.mask2[i] = mask2
        self._next = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> Batch:
        if self._size == 0:
            raise ContractError("cannot sample from an empty replay buffer")
        idx = rng.integers(0, self._size, size=batch_size)
        return Batch(
            s=self.s[idx],
            a=self.a[idx],
            r=self.r[idx],
            s2=self.s2[idx],
            done=self.done[idx],
            mask2=self.mask2[idx],
        )


def epsilon_schedule(learn_steps: int, start: float = EPSILON_START) -> float:
    return max(EPSILON_DECAY**learn_steps * start, EPSILON_FLOOR)


def select_action(
    q: np.ndarray, mask: np.ndarray, eps: float, rng: np.random.Generator
) -> int:
    """Epsilon-greedy over valid actions; greedy ties go to the lowest index.

    The greedy pick is one argmax over every action.  Only when that winner
    is masked does it fall back to the argmax over the valid subset, so a
    degenerate net (all -inf values) still never yields a masked action.
    Where the winner is valid the two agree: it is the first index holding
    the maximum (or the first NaN), hence also the first valid one.
    """
    if eps > 0.0:
        valid = _valid_actions(mask)
        if rng.random() < eps:
            return int(valid[rng.integers(valid.size)])
    best = int(q.argmax())
    if mask[best]:
        return best
    valid = _valid_actions(mask)
    return int(valid[np.argmax(q[valid])])


def _valid_actions(mask: np.ndarray) -> np.ndarray:
    valid = np.flatnonzero(mask)
    if valid.size == 0:
        raise ContractError("action mask leaves no valid action")
    return valid


def sync_target(value: QNet, target: QNet) -> None:
    target.params[:] = value.params


def maybe_sync_target(
    value: QNet, target: QNet, decisions: int, every: int = TARGET_SYNC_DECISIONS
) -> bool:
    """Hard-sync after every `every`-th decision of the owning policy."""
    if decisions > 0 and decisions % every == 0:
        sync_target(value, target)
        return True
    return False


def loss_and_grad(
    net: QNet, X: np.ndarray, actions: np.ndarray, targets: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Mean squared TD-error over the batch and its analytic gradient."""
    q, cache = net.forward_batch(X, want_cache=True)
    rows = np.arange(len(actions))
    diff = q[rows, actions] - targets
    loss = float(np.mean(diff**2))
    dq = np.zeros_like(q)
    dq[rows, actions] = 2.0 * diff / len(actions)
    return loss, net.backward(cache, dq)


def td_targets(target_net: QNet, batch: Batch, gamma: float = GAMMA) -> np.ndarray:
    q2, _ = target_net.forward_batch(batch.s2)
    best = np.where(batch.mask2, q2, MASKED_Q).max(axis=1)
    return batch.r + gamma * best * (~batch.done).astype(np.float64)


def learn(
    value: QNet,
    target: QNet,
    batch: Batch,
    adam: Adam,
    gamma: float = GAMMA,
    grad_clip: float = GRAD_CLIP,
) -> float:
    """One TD update: targets from the frozen net, elementwise-clipped Adam step."""
    y = td_targets(target, batch, gamma)
    loss, grad = loss_and_grad(value, batch.s, batch.a, y)
    if not np.isfinite(loss) or not np.isfinite(grad).all():
        raise NumericalError(f"non-finite TD loss or gradient (loss={loss})")
    np.clip(grad, -grad_clip, grad_clip, out=grad)
    adam.step(value.params, grad)
    return loss


def dispatch_qnet(
    fleet_size: int,
    hidden: int = 32,
    output_activation: str = ACT_LINEAR,
    rng: Optional[np.random.Generator] = None,
) -> QNet:
    """Order-dispatching net: shared courier embedding, one hidden relu layer,
    |fleet|+1 action values (couriers plus postpone)."""
    spec = NetSpec(
        input_dim=1 + 3 * fleet_size,
        layer_dims=(hidden, fleet_size + 1),
        activations=(ACT_RELU, output_activation),
        head_dim=1,
        embed_groups=fleet_size,
    )
    return QNet(spec, rng)


def steering_qnet(
    output_activation: str = ACT_LINEAR, rng: Optional[np.random.Generator] = None
) -> QNet:
    """Idle-steering net: 14 -> 32 -> 16 -> 7 (stay plus six neighbor slots)."""
    spec = NetSpec(
        input_dim=14,
        layer_dims=(32, 16, 7),
        activations=(ACT_RELU, ACT_RELU, output_activation),
    )
    return QNet(spec, rng)


def save_qnet(path: Path, net: QNet, meta: Optional[Dict] = None) -> None:
    doc = {
        "schema": QNET_SCHEMA,
        "spec": {
            "input_dim": net.spec.input_dim,
            "layer_dims": list(net.spec.layer_dims),
            "activations": list(net.spec.activations),
            "head_dim": net.spec.head_dim,
            "embed_groups": net.spec.embed_groups,
        },
        "embed": net.embed.tolist() if net.embed is not None else None,
        "layers": [
            {"w": w.tolist(), "b": b.tolist()}
            for w, b in zip(net.weights, net.biases)
        ],
        "meta": meta or {},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def _weights(value, shape: Tuple[int, ...], name: str) -> np.ndarray:
    """A saved weight array of this shape: JSON numbers, not booleans or
    strings, which float64 would take, and all finite."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != shape:
        raise ConfigError(f"{name} has shape {arr.shape}, expected {shape}")
    cells = value if len(shape) == 1 else [v for row in value for v in row]
    if not {type(v) for v in cells} <= {int, float}:
        raise ConfigError(f"{name} holds a value that is not a number")
    if not np.isfinite(arr).all():
        raise ConfigError(f"{name} holds a value that is not finite")
    return arr


def _qnet_from_dict(doc: dict) -> Tuple[QNet, Dict]:
    spec = NetSpec(
        input_dim=whole(doc["spec"]["input_dim"], "input_dim"),
        layer_dims=tuple(whole(d, "layer dim") for d in doc["spec"]["layer_dims"]),
        activations=tuple(doc["spec"]["activations"]),
        head_dim=whole(doc["spec"]["head_dim"], "head_dim"),
        embed_groups=whole(doc["spec"]["embed_groups"], "embed_groups"),
    )
    net = QNet(spec)
    if spec.embed_groups:
        net.embed[:] = _weights(doc["embed"], (3,), "embedding")
    if len(doc["layers"]) != len(net.weights):
        raise ConfigError("layer count mismatch")
    for i, ((din, dout), view_w, view_b, layer) in enumerate(
        zip(net._shapes, net.weights, net.biases, doc["layers"])
    ):
        view_w[:] = _weights(layer["w"], (din, dout), f"layer {i} w")
        view_b[:] = _weights(layer["b"], (dout,), f"layer {i} b")
    return net, dict(doc.get("meta", {}))


def load_qnet(path: Path) -> Tuple[QNet, Dict]:
    return load_document(path, QNET_SCHEMA, "weights", _qnet_from_dict)

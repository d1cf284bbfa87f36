"""Short-horizon demand forecasting with hand-rolled gradient-boosted trees.

Per restaurant grid, a squared-error boosting ensemble maps calendar features
plus four lagged 15-minute order counts to the order count of the next 15
minutes.  Windowed counts y(t1, t2) with t1 > t2 cover the half-open interval
(t2, t1]: an order stamped exactly at t-15 belongs to the second lag window,
not the first.

`GbtDemand` memoizes its clamped forecast per feature row (grid, hour, four lag
counts; the weekday is fixed), a pure function of the row alone.  Whole lag
counts below 2**LAG_BITS pack with grid and hour into one exact int64 key; any
other row is walked and not stored.  The memo holds at most MEMO_ROWS rows and
is cleared when full.  Matched shifts replay the same counts under every
strategic-mode variant, so a study walks each distinct row once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, NumericalError, load_document, number, whole
from .scenario import DEFAULT_SHIFT_WEEKDAY, ScenarioConfig, TransactionRecord, fork_map

GBT_SCHEMA = "mealtwin-gbt/1"
NUM_LAGS = 4
WINDOW_MIN = 15
# Feature vector layout.
F_DOW, F_HOUR, F_LAG1 = 0, 1, 2
NUM_FEATURES = 2 + NUM_LAGS
# GbtDemand's memo: rows held before it is cleared, and the bits per lag count
# in its keys.
MEMO_ROWS = 1 << 15
LAG_BITS = 10


def lag_window_counts(counts: np.ndarray, minute) -> np.ndarray:
    """Lagged window sums over the last axis of per-minute counts of a shift,
    at one minute or an array of minutes: shape counts.shape[:-1] +
    np.shape(minute) + (NUM_LAGS,).  Training and prediction both build
    their lag features here.

    Window k (k=1..4) covers shift minutes (minute-15k, minute-15(k-1)];
    minutes outside the shift contribute zero.  Each window is a difference
    of cumulative counts; counts are whole numbers, so every sum is exact.
    """
    n = counts.shape[-1]
    cumulative = np.zeros(counts.shape[:-1] + (n + 1,), dtype=np.float64)
    cumulative[..., 1:] = counts
    cumulative.cumsum(axis=-1, out=cumulative)
    # Edge k is the count through minute - 15k, so window k is edge k-1 minus edge k.
    at = np.add.outer(minute, 1 - WINDOW_MIN * np.arange(NUM_LAGS + 1))
    edges = cumulative.take(np.minimum(np.maximum(at, 0), n), axis=-1)
    return edges[..., :-1] - edges[..., 1:]


@dataclass(frozen=True)
class GBTParams:
    rounds: int = 100
    max_depth: int = 4
    min_leaf: int = 5
    l2_reg: float = 1.0
    shrinkage: float = 0.1

    def __post_init__(self):
        if self.rounds < 0 or self.max_depth < 0 or self.min_leaf < 1:
            raise ConfigError(
                f"gbt needs rounds >= 0, max_depth >= 0 and min_leaf >= 1, got {self.rounds}, "
                f"{self.max_depth} and {self.min_leaf}"
            )
        if not (math.isfinite(self.l2_reg) and self.l2_reg >= 0.0):
            raise ConfigError(f"gbt l2_reg must be finite and >= 0, got {self.l2_reg}")
        if not (math.isfinite(self.shrinkage) and self.shrinkage > 0.0):
            raise ConfigError(f"gbt shrinkage must be finite and > 0, got {self.shrinkage}")


@dataclass
class RegressionTree:
    """Flat-array binary tree; feature -1 marks a leaf."""

    feature: List[int] = field(default_factory=list)
    threshold: List[float] = field(default_factory=list)
    left: List[int] = field(default_factory=list)
    right: List[int] = field(default_factory=list)
    value: List[float] = field(default_factory=list)

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1


class _Node:
    """A node of the trees one fit grows, reached by one path of splits.

    Every round grows its tree on the same rows and features; only the
    residuals change.  So a node reached by the same splits holds the same
    rows, per-feature sort and candidate splits in every round, and keeps
    them for the whole fit: the candidates are built at the node's first
    search, and each split's children when the node first takes it.
    """

    __slots__ = ("rows", "order", "at", "feat", "threshold", "left_den", "right_den", "children")

    def __init__(self, rows: np.ndarray, order: Optional[np.ndarray]):
        self.rows = rows  # ascending row ids
        # features x rows: the rows sorted by each feature, as a stable
        # argsort of the node's rows would; None where no search runs.
        self.order = order
        self.at: Optional[np.ndarray] = None  # candidates, as flat prefix-sum positions
        self.children: Dict[Tuple[int, float], Tuple[_Node, _Node]] = {}

    def build(self, XT: np.ndarray, params: GBTParams) -> None:
        """The candidate splits: after sorted position i of feature f (left =
        [0..i], right = the rest), wherever the value changes from i to i + 1
        and both sides keep min_leaf rows.  np.flatnonzero lists them
        feature-major, so argmax ties resolve to the lowest feature index,
        then the lowest threshold."""
        features, n = self.order.shape
        lo, hi = params.min_leaf - 1, n - params.min_leaf
        self.at = np.empty(0, dtype=np.intp)
        if hi > lo:
            width = XT.shape[1]
            xs = XT.take(self.order + np.arange(0, features * width, width)[:, None])
            feat, i = np.divmod(np.flatnonzero(xs[:, lo:hi] != xs[:, lo + 1 : hi + 1]), hi - lo)
            i += lo
            self.at = feat * n + i
            self.feat = feat
            self.threshold = (xs.take(self.at) + xs.take(self.at + 1)) / 2.0
            n_left = (i + 1).astype(np.float64)
            self.left_den = n_left + params.l2_reg
            self.right_den = n - n_left + params.l2_reg
        if not len(self.at):
            self.order = None  # never searched again

    def part(self, side: np.ndarray, searched: bool) -> _Node:
        """The child holding the rows where `side` is true, with their sort
        if it will be `searched`.  Filtering each sorted row keeps it sorted,
        ties still by row id."""
        order = None
        if searched:
            order = self.order[side[self.order]].reshape(len(self.order), -1)
        return _Node(self.rows[side[self.rows]], order)


def _best_split(
    node: _Node, XT: np.ndarray, residual: np.ndarray, total: float, params: GBTParams
) -> Optional[Tuple[int, float]]:
    """Best (feature, threshold) of `node` by L2-regularized variance
    reduction, or None when no split gains more than 1e-12; `total` is the
    node's residual sum.  All features are scored in one pass over the
    node's candidates, built at its first search."""
    if node.at is None:
        node.build(XT, params)
    if not len(node.at):
        return None
    n = len(node.rows)
    parent_score = total * total / (n + params.l2_reg)
    left_sum = residual.take(node.order).cumsum(axis=1).take(node.at)
    right_sum = total - left_sum
    gains = left_sum**2 / node.left_den + right_sum**2 / node.right_den - parent_score
    pos = int(gains.argmax())
    if gains[pos] <= 1e-12:
        return None
    return int(node.feat[pos]), float(node.threshold[pos])


def _grow(
    tree: RegressionTree,
    XT: np.ndarray,
    residual: np.ndarray,
    node: _Node,
    fitted: np.ndarray,
    depth: int,
    params: GBTParams,
) -> int:
    """Grow a subtree over the training rows of `node`, writing each row's
    leaf value into `fitted`.  A row lands in the leaf that predicting it
    would reach, because both take the same `<=` comparisons on the same
    values."""
    index = tree._new_node()
    rows = node.rows
    total = residual[rows].sum()
    split = _best_split(node, XT, residual, total, params) if depth < params.max_depth else None
    if split is None:
        tree.value[index] = float(total / (len(rows) + params.l2_reg))
        fitted[rows] = tree.value[index]
        return index
    tree.feature[index], tree.threshold[index] = split
    children = node.children.get(split)
    if children is None:
        go_left = XT[split[0]] <= split[1]
        searched = depth + 1 < params.max_depth
        children = node.children[split] = (
            node.part(go_left, searched),
            node.part(~go_left, searched),
        )
    tree.left[index] = _grow(tree, XT, residual, children[0], fitted, depth + 1, params)
    tree.right[index] = _grow(tree, XT, residual, children[1], fitted, depth + 1, params)
    return index


@dataclass
class GBTEnsemble:
    """base_score plus the params.shrinkage-weighted sum of regression trees."""

    base_score: float
    trees: List[RegressionTree] = field(default_factory=list)
    params: GBTParams = field(default_factory=GBTParams)
    train_losses: List[float] = field(default_factory=list)

    def raw_predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Unclamped forecasts for the rows of a float64 feature matrix."""
        return PackedForest([self]).raw_predict(X, np.zeros(len(X), dtype=np.intp))


class PackedForest:
    """The trees of several ensembles in flat node arrays.

    Node arrays hold every tree of every ensemble back to back; `roots`
    (ensembles x trees) indexes each tree's root, and `live` marks the
    trees an ensemble really has.  A leaf points to itself on both sides,
    so a walk of `depth` levels, the deepest tree's depth, ends on a leaf
    in every tree.
    """

    def __init__(self, models: Sequence[GBTEnsemble]):
        trees = [t for m in models for t in m.trees]
        sizes = np.array([len(t.feature) for t in trees], dtype=np.intp)
        starts = np.cumsum(sizes) - sizes

        def flat(attr: str, dtype) -> np.ndarray:
            values = chain.from_iterable(getattr(t, attr) for t in trees)
            return np.fromiter(values, dtype=dtype, count=int(sizes.sum()))

        self.feature = flat("feature", np.intp)
        leaves = np.flatnonzero(self.feature < 0)
        self.feature[leaves] = 0
        offset = np.repeat(starts, sizes)
        self.left = flat("left", np.intp) + offset
        self.left[leaves] = leaves
        self.right = flat("right", np.intp) + offset
        self.right[leaves] = leaves
        self.threshold = flat("threshold", np.float64)
        self.value = flat("value", np.float64)
        counts = np.array([len(m.trees) for m in models], dtype=np.intp)
        width = int(counts.max()) if len(models) else 0
        self.live = np.arange(width) < counts[:, None]
        self.roots = np.zeros((len(models), width), dtype=np.intp)
        self.roots[self.live] = starts
        self.base = np.array([m.base_score for m in models], dtype=np.float64)
        self.shrinkage = np.array([m.params.shrinkage for m in models], dtype=np.float64)
        self.depth = 0
        frontier = starts
        while True:
            frontier = frontier[self.left[frontier] != frontier]  # drop leaves
            if not len(frontier):
                break
            frontier = np.concatenate((self.left[frontier], self.right[frontier]))
            self.depth += 1

    def raw_predict(self, X: np.ndarray, which: np.ndarray) -> np.ndarray:
        """Unclamped forecast of row i of X by ensemble which[i].

        Sums base + shrinkage * leaf tree by tree in the ensemble's order, as
        a sequential accumulate: a pairwise sum would change the last bits.
        """
        rows = np.arange(len(X))[:, None]
        node = self.roots[which]
        for _ in range(self.depth):
            go_left = X[rows, self.feature[node]] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        terms = np.zeros((len(X), node.shape[1] + 1), dtype=np.float64)
        terms[:, 0] = self.base[which]
        np.multiply(
            self.shrinkage[which, None], self.value[node], out=terms[:, 1:], where=self.live[which]
        )
        return np.add.accumulate(terms, axis=1)[:, -1]


@np.errstate(over="ignore", invalid="ignore")
def train_gbt(
    X: np.ndarray, y: np.ndarray, params: GBTParams = GBTParams()
) -> GBTEnsemble:
    """Fit a boosting ensemble; each round fits a tree to current residuals.

    Each feature that varies is sorted once per fit; a node's sort is its
    parent's, filtered to the rows the node keeps.  The nodes, with their
    candidate splits and children, live until the fit returns.  Overflowing
    arithmetic raises NumericalError at the first round whose loss is not
    finite, as every non-finite leaf or fitted value makes it.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or len(X) != len(y):
        raise ConfigError(
            f"training data needs an (n, features) X and n targets, got {X.shape} and {y.shape}"
        )
    if len(X) == 0:
        raise ConfigError("cannot train a forecaster on an empty dataset")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ConfigError("training data holds non-finite values")
    model = GBTEnsemble(base_score=float(y.mean()), params=params)
    current = np.full(len(y), model.base_score, dtype=np.float64)
    # A feature constant over the training rows never splits, so only the
    # varying ones are sorted and searched; ids[f] maps a searched feature
    # back to its column, and ids[-1] keeps a leaf's -1.
    varying = np.flatnonzero((X != X[:1]).any(axis=0))
    ids = varying.tolist() + [-1]
    XT = np.ascontiguousarray(X[:, varying].T)
    root = _Node(np.arange(len(y)), np.argsort(XT, axis=1, kind="stable"))
    fitted = np.empty(len(y), dtype=np.float64)
    for k in range(params.rounds):
        residual = y - current
        tree = RegressionTree()
        _grow(tree, XT, residual, root, fitted, 0, params)
        tree.feature = [ids[f] for f in tree.feature]
        model.trees.append(tree)
        current += params.shrinkage * fitted
        loss = float(np.mean((y - current) ** 2))
        if not math.isfinite(loss):
            raise NumericalError(f"gbt fit diverged: training loss {loss} in round {k + 1}")
        model.train_losses.append(loss)
    return model


def evaluate(model: GBTEnsemble, X: np.ndarray, y: np.ndarray) -> Tuple[float, float]:
    """(MAE, RMSE) of the clamped forecasts over a holdout set."""
    pred = np.maximum(model.raw_predict_batch(np.asarray(X, dtype=np.float64)), 0.0)
    err = pred - np.asarray(y, dtype=np.float64)
    return float(np.mean(np.abs(err))), float(math.sqrt(np.mean(err**2)))


def persistence_eval(X: np.ndarray, y: np.ndarray) -> Tuple[float, float]:
    """Baseline that forecasts the next window with the most recent lag window."""
    pred = np.asarray(X, dtype=np.float64)[:, F_LAG1]
    err = pred - np.asarray(y, dtype=np.float64)
    return float(np.mean(np.abs(err))), float(math.sqrt(np.mean(err**2)))


def oracle_predictor(config: ScenarioConfig, grid: int, minute: int) -> float:
    """Ground-truth expected 15-minute demand from the configured rate table."""
    if not config.region.restaurant_flags[grid]:
        return 0.0
    return config.rate_for(grid, config.hour_at(minute)) * (WINDOW_MIN / 60.0)


def build_training_sets(
    history: Sequence[TransactionRecord], config: ScenarioConfig
) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """Per-grid (X, y) pairs from transaction history.

    One sample per shift minute per observed shift-day: features are built at
    minute t, the target is the order count of window (t, t+15] of the same
    day, truncated at the end of the shift exactly as live prediction is.
    """
    if not history:
        raise ConfigError("cannot build a training set from an empty history")
    n_minutes = config.shift_minutes
    start = config.shift_start_hour
    by_day: Dict = {}
    for rec in history:
        minute = (rec.when.hour - start) * 60 + rec.when.minute
        if not 0 <= minute < n_minutes:
            raise ConfigError(f"record {rec} falls outside the configured shift")
        counts = by_day.setdefault(rec.when.date(), {})
        row = counts.setdefault(rec.restaurant, np.zeros(n_minutes))
        row[minute] += 1.0
    datasets: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    t = np.arange(n_minutes)
    for gid in config.region.restaurant_ids:
        day_X, day_y = [], []
        for day in sorted(by_day):
            counts = by_day[day].get(gid)
            if counts is None:
                counts = np.zeros(n_minutes)
            weekday = np.full(n_minutes, float(day.weekday()))
            hour = (start + t // 60).astype(np.float64)
            day_X.append(np.column_stack((weekday, hour, lag_window_counts(counts, t))))
            # The next window, (t, t+15], is window 1 at minute t+15.
            day_y.append(lag_window_counts(counts, t + WINDOW_MIN)[:, 0])
        datasets[gid] = (np.concatenate(day_X), np.concatenate(day_y))
    return datasets


class OracleDemand:
    """Demand predictor backed directly by the scenario's rate table."""

    def __init__(self, config: ScenarioConfig):
        self._config = config

    def predict(self, minute: int, counts: Optional[np.ndarray]) -> np.ndarray:
        """Expected 15-minute demand of every grid, indexed by grid id."""
        demand = np.zeros(len(self._config.region), dtype=np.float64)
        for gid in self._config.region.restaurant_ids:
            demand[gid] = oracle_predictor(self._config, gid, minute)
        return demand


class GbtDemand:
    """Demand predictor backed by per-grid trained ensembles, packed into one
    forest that forecasts every modelled restaurant grid in one walk."""

    def __init__(self, models: Dict[int, GBTEnsemble], config: ScenarioConfig):
        self._config = config
        grids = [g for g in config.region.restaurant_ids if g in models]
        self._grids = np.array(grids, dtype=np.intp)
        self._forest = PackedForest([models[g] for g in grids])
        # Key = ((slot * 24 + hour) << 4 * LAG_BITS) + packed lags, in int64.
        self._keyable = len(grids) * 24 < 1 << (63 - NUM_LAGS * LAG_BITS)
        self._slot_keys = np.arange(len(grids), dtype=np.int64) * (24 << NUM_LAGS * LAG_BITS)
        self._lag_weights = 1 << LAG_BITS * np.arange(NUM_LAGS, dtype=np.int64)
        self._memo: Dict[int, float] = {}

    def predict(self, minute: int, counts: Optional[np.ndarray]) -> np.ndarray:
        """Clamped 15-minute forecast of every grid, indexed by grid id; grids
        without a model get zero.  Rows in the memo are not walked again."""
        if counts is None:
            raise ConfigError("gbt demand prediction needs the current shift counts")
        hour = self._config.hour_at(minute)
        lags = lag_window_counts(counts[self._grids], minute)
        fits = ((lags == np.floor(lags)) & (lags >= 0) & (lags < 1 << LAG_BITS)).all(axis=1)
        fits &= self._keyable and 0 <= hour < 24
        codes = np.where(fits[:, None], lags, 0).astype(np.int64) @ self._lag_weights
        # A row that does not fit gets key -1, which is never stored; hour % 24
        # only keeps the discarded keys of other hours inside int64.
        base = self._slot_keys + (hour % 24 << NUM_LAGS * LAG_BITS)
        keys = np.where(fits, base + codes, -1).tolist()
        memo = self._memo
        values = [memo.get(k) for k in keys]
        if None in values:
            miss = [i for i, v in enumerate(values) if v is None]
            X = np.empty((len(miss), NUM_FEATURES), dtype=np.float64)
            X[:, F_DOW] = DEFAULT_SHIFT_WEEKDAY
            X[:, F_HOUR] = hour
            X[:, F_LAG1:] = lags[miss]
            raw = self._forest.raw_predict(X, np.array(miss, dtype=np.intp))
            for i, v in zip(miss, np.maximum(raw, 0.0).tolist()):
                values[i] = v
                if keys[i] >= 0:
                    if len(memo) >= MEMO_ROWS:
                        memo.clear()
                    memo[keys[i]] = v
        demand = np.zeros(len(self._config.region), dtype=np.float64)
        demand[self._grids] = values
        return demand


def train_demand_models(
    history: Sequence[TransactionRecord],
    config: ScenarioConfig,
    params: GBTParams = GBTParams(),
) -> Dict[int, GBTEnsemble]:
    """One ensemble per restaurant grid, keyed in grid order.

    The grids fit through `fork_map`, one task per grid: each fit is a pure
    function of its grid's data, so every process count gives the same
    models bit for bit.
    """
    datasets = build_training_sets(history, config)
    grids = sorted(datasets)
    fits = fork_map(lambda i: train_gbt(*datasets[grids[i]], params), len(grids))
    return dict(zip(grids, fits))


def _tree_to_dict(tree: RegressionTree) -> dict:
    return {
        "feature": tree.feature,
        "threshold": tree.threshold,
        "left": tree.left,
        "right": tree.right,
        "value": tree.value,
    }


def _tree_from_dict(doc: dict, where: str) -> RegressionTree:
    """A tree from its saved node lists, checked to be one that the packed
    walk can take: children come after their node in preorder, leaves have
    none, and every feature index and number is usable."""
    tree = RegressionTree(
        feature=[whole(v, "feature") for v in doc["feature"]],
        threshold=[number(v, "threshold") for v in doc["threshold"]],
        left=[whole(v, "left") for v in doc["left"]],
        right=[whole(v, "right") for v in doc["right"]],
        value=[number(v, "value") for v in doc["value"]],
    )
    n = len(tree.feature)
    if not n or any(len(v) != n for v in (tree.threshold, tree.left, tree.right, tree.value)):
        raise ConfigError(f"{where}: node lists must be non-empty and of equal length")
    feature, left, right = (np.array(v) for v in (tree.feature, tree.left, tree.right))
    leaf = feature == -1
    if not (leaf | ((feature >= 0) & (feature < NUM_FEATURES))).all():
        raise ConfigError(f"{where}: feature index outside -1 and 0..{NUM_FEATURES - 1}")
    node = np.arange(n)
    inner_ok = (node < left) & (left < n) & (node < right) & (right < n)
    if not np.where(leaf, (left == -1) & (right == -1), inner_ok).all():
        raise ConfigError(f"{where}: a child index is out of range or not after its node")
    if not (np.isfinite(tree.threshold).all() and np.isfinite(tree.value).all()):
        raise ConfigError(f"{where}: thresholds and values must be finite")
    return tree


def save_demand_models(path: Path, models: Dict[int, GBTEnsemble]) -> None:
    doc = {
        "schema": GBT_SCHEMA,
        "grids": {
            str(gid): {
                "base_score": model.base_score,
                "shrinkage": model.params.shrinkage,
                "params": {
                    "rounds": model.params.rounds,
                    "max_depth": model.params.max_depth,
                    "min_leaf": model.params.min_leaf,
                    "l2_reg": model.params.l2_reg,
                    "shrinkage": model.params.shrinkage,
                },
                "trees": [_tree_to_dict(t) for t in model.trees],
            }
            for gid, model in sorted(models.items())
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def _models_from_dict(doc: dict) -> Dict[int, GBTEnsemble]:
    models = {}
    for gid, entry in doc["grids"].items():
        params = GBTParams(
            rounds=whole(entry["params"]["rounds"], "rounds"),
            max_depth=whole(entry["params"]["max_depth"], "max_depth"),
            min_leaf=whole(entry["params"]["min_leaf"], "min_leaf"),
            l2_reg=number(entry["params"]["l2_reg"], "l2_reg"),
            shrinkage=number(entry["params"]["shrinkage"], "shrinkage"),
        )
        if number(entry["shrinkage"], "shrinkage") != params.shrinkage:
            raise ConfigError(f"grid {gid}: shrinkage and params.shrinkage differ")
        model = GBTEnsemble(
            base_score=number(entry["base_score"], "base_score"),
            trees=[
                _tree_from_dict(t, f"grid {gid} tree {k}") for k, t in enumerate(entry["trees"])
            ],
            params=params,
        )
        if not math.isfinite(model.base_score):
            raise ConfigError(f"grid {gid}: base score must be finite")
        models[int(gid)] = model
    return models


def load_demand_models(path: Path) -> Dict[int, GBTEnsemble]:
    return load_document(path, GBT_SCHEMA, "forecast model", _models_from_dict)

"""Short-horizon demand forecasting with hand-rolled gradient-boosted trees.

Per restaurant grid, a squared-error boosting ensemble maps calendar features
plus four lagged 15-minute order counts to the order count of the next 15
minutes.  Windowed counts y(t1, t2) with t1 > t2 cover the half-open interval
(t2, t1]: an order stamped exactly at t-15 belongs to the second lag window,
not the first.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError
from .scenario import DEFAULT_SHIFT_WEEKDAY, ScenarioConfig, TransactionRecord

GBT_SCHEMA = "mealtwin-gbt/1"
NUM_LAGS = 4
WINDOW_MIN = 15
# Feature vector layout.
F_DOW, F_HOUR, F_LAG1 = 0, 1, 2
NUM_FEATURES = 2 + NUM_LAGS


def lag_window_counts(counts: np.ndarray, minute: int) -> np.ndarray:
    """Lagged window sums over the last axis of per-minute counts of the
    current shift, shape counts.shape[:-1] + (NUM_LAGS,).

    Window k (k=1..4) covers shift minutes (minute-15k, minute-15(k-1)];
    minutes before the start of the shift contribute zero.  Counts are whole
    numbers, so every slice sum is exact.
    """
    lags = np.zeros(counts.shape[:-1] + (NUM_LAGS,), dtype=np.float64)
    for k in range(1, NUM_LAGS + 1):
        lo_idx = max(minute - WINDOW_MIN * k + 1, 0)
        hi_idx = min(minute - WINDOW_MIN * (k - 1), counts.shape[-1] - 1)
        if hi_idx >= lo_idx:
            lags[..., k - 1] = counts[..., lo_idx : hi_idx + 1].sum(axis=-1)
    return lags


@dataclass(frozen=True)
class GBTParams:
    rounds: int = 100
    max_depth: int = 4
    min_leaf: int = 5
    l2_reg: float = 1.0
    shrinkage: float = 0.1


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


def _best_split(
    X: np.ndarray, residual: np.ndarray, params: GBTParams
) -> Optional[Tuple[int, float, float]]:
    """Best (feature, threshold, gain) by L2-regularized variance reduction.

    Ties resolve to the lowest feature index, then the lowest threshold:
    thresholds are scanned in ascending order per feature (argmax keeps the
    first maximum) and only a strictly larger gain replaces the incumbent
    across features.
    """
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


def _grow(
    tree: RegressionTree,
    X: np.ndarray,
    residual: np.ndarray,
    rows: np.ndarray,
    fitted: np.ndarray,
    depth: int,
    params: GBTParams,
) -> int:
    """Grow a subtree over the training rows `rows`, writing each row's leaf
    value into `fitted`.  A row lands in the leaf that predicting it would
    reach, because both take the same `<=` comparisons on the same values."""
    node = tree._new_node()
    split = _best_split(X, residual, params) if depth < params.max_depth else None
    if split is None:
        tree.value[node] = float(residual.sum() / (len(residual) + params.l2_reg))
        fitted[rows] = tree.value[node]
        return node
    feat, thr, _ = split
    mask = X[:, feat] <= thr
    tree.feature[node] = feat
    tree.threshold[node] = thr
    tree.left[node] = _grow(tree, X[mask], residual[mask], rows[mask], fitted, depth + 1, params)
    tree.right[node] = _grow(
        tree, X[~mask], residual[~mask], rows[~mask], fitted, depth + 1, params
    )
    return node


@dataclass
class GBTEnsemble:
    """base_score plus shrinkage-weighted sum of regression trees."""

    base_score: float
    shrinkage: float
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
        self.shrinkage = np.array([m.shrinkage for m in models], dtype=np.float64)
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


def train_gbt(
    X: np.ndarray, y: np.ndarray, params: GBTParams = GBTParams()
) -> GBTEnsemble:
    """Fit a boosting ensemble; each round fits a tree to current residuals."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(X) == 0:
        raise ConfigError("cannot train a forecaster on an empty dataset")
    model = GBTEnsemble(base_score=float(y.mean()), shrinkage=params.shrinkage, params=params)
    current = np.full(len(y), model.base_score, dtype=np.float64)
    rows = np.arange(len(y))
    fitted = np.empty(len(y), dtype=np.float64)
    for _ in range(params.rounds):
        residual = y - current
        tree = RegressionTree()
        _grow(tree, X, residual, rows, fitted, 0, params)
        model.trees.append(tree)
        current += params.shrinkage * fitted
        model.train_losses.append(float(np.mean((y - current) ** 2)))
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
            # Exact window sums via cumulative counts: orders are unit weights,
            # so float addition order cannot change the result.
            C = np.concatenate(([0.0], np.cumsum(counts)))
            cols = [np.full(n_minutes, float(day.weekday())), (start + t // 60).astype(np.float64)]
            for k in range(1, NUM_LAGS + 1):
                a = np.clip(t - WINDOW_MIN * k + 1, 0, n_minutes)
                b = np.clip(t - WINDOW_MIN * (k - 1) + 1, 0, n_minutes)
                cols.append(C[b] - C[a])
            day_X.append(np.column_stack(cols))
            day_y.append(C[np.clip(t + 1 + WINDOW_MIN, 0, n_minutes)] - C[t + 1])
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

    def predict(self, minute: int, counts: Optional[np.ndarray]) -> np.ndarray:
        """Clamped 15-minute forecast of every grid, indexed by grid id; grids
        without a model get zero."""
        if counts is None:
            raise ConfigError("gbt demand prediction needs the current shift counts")
        X = np.empty((len(self._grids), NUM_FEATURES), dtype=np.float64)
        X[:, F_DOW] = DEFAULT_SHIFT_WEEKDAY
        X[:, F_HOUR] = self._config.hour_at(minute)
        X[:, F_LAG1:] = lag_window_counts(counts[self._grids], minute)
        demand = np.zeros(len(self._config.region), dtype=np.float64)
        raw = self._forest.raw_predict(X, np.arange(len(self._grids)))
        demand[self._grids] = np.maximum(raw, 0.0)
        return demand


def train_demand_models(
    history: Sequence[TransactionRecord],
    config: ScenarioConfig,
    params: GBTParams = GBTParams(),
) -> Dict[int, GBTEnsemble]:
    return {
        gid: train_gbt(X, y, params)
        for gid, (X, y) in sorted(build_training_sets(history, config).items())
    }


def _tree_to_dict(tree: RegressionTree) -> dict:
    return {
        "feature": tree.feature,
        "threshold": tree.threshold,
        "left": tree.left,
        "right": tree.right,
        "value": tree.value,
    }


def _tree_from_dict(doc: dict) -> RegressionTree:
    return RegressionTree(
        feature=[int(v) for v in doc["feature"]],
        threshold=[float(v) for v in doc["threshold"]],
        left=[int(v) for v in doc["left"]],
        right=[int(v) for v in doc["right"]],
        value=[float(v) for v in doc["value"]],
    )


def save_demand_models(path: Path, models: Dict[int, GBTEnsemble]) -> None:
    doc = {
        "schema": GBT_SCHEMA,
        "grids": {
            str(gid): {
                "base_score": model.base_score,
                "shrinkage": model.shrinkage,
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


def load_demand_models(path: Path) -> Dict[int, GBTEnsemble]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"forecast model file {path} is not valid JSON: {exc}") from exc
    if doc.get("schema") != GBT_SCHEMA:
        raise ConfigError(f"unsupported forecast model schema: {doc.get('schema')!r}")
    models = {}
    for gid, entry in doc["grids"].items():
        params = GBTParams(
            rounds=int(entry["params"]["rounds"]),
            max_depth=int(entry["params"]["max_depth"]),
            min_leaf=int(entry["params"]["min_leaf"]),
            l2_reg=float(entry["params"]["l2_reg"]),
            shrinkage=float(entry["params"]["shrinkage"]),
        )
        models[int(gid)] = GBTEnsemble(
            base_score=float(entry["base_score"]),
            shrinkage=float(entry["shrinkage"]),
            trees=[_tree_from_dict(t) for t in entry["trees"]],
            params=params,
        )
    return models

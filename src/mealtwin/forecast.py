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


def lag_window_counts(counts: np.ndarray, minute: int) -> Tuple[float, ...]:
    """Lagged window sums from a per-minute count vector of the current shift.

    Window k (k=1..4) covers shift minutes (minute-15k, minute-15(k-1)];
    minutes before the start of the vector contribute zero.
    """
    lags = []
    for k in range(1, NUM_LAGS + 1):
        lo = minute - WINDOW_MIN * k  # exclusive
        hi = minute - WINDOW_MIN * (k - 1)  # inclusive
        lo_idx = max(lo + 1, 0)
        hi_idx = min(hi, len(counts) - 1)
        lags.append(float(counts[lo_idx : hi_idx + 1].sum()) if hi_idx >= lo_idx else 0.0)
    return tuple(lags)


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

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        feature = np.array(self.feature, dtype=np.int64)
        threshold = np.array(self.threshold, dtype=np.float64)
        left = np.array(self.left, dtype=np.int64)
        right = np.array(self.right, dtype=np.int64)
        value = np.array(self.value, dtype=np.float64)
        idx = np.zeros(len(X), dtype=np.int64)
        active = feature[idx] >= 0
        while active.any():
            nodes = idx[active]
            go_left = X[active, feature[nodes]] <= threshold[nodes]
            idx[active] = np.where(go_left, left[nodes], right[nodes])
            active = feature[idx] >= 0
        return value[idx]

    def predict(self, x: np.ndarray) -> float:
        node = 0
        while self.feature[node] >= 0:
            if x[self.feature[node]] <= self.threshold[node]:
                node = self.left[node]
            else:
                node = self.right[node]
        return self.value[node]


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
    depth: int,
    params: GBTParams,
) -> int:
    node = tree._new_node()
    split = _best_split(X, residual, params) if depth < params.max_depth else None
    if split is None:
        tree.value[node] = float(residual.sum() / (len(residual) + params.l2_reg))
        return node
    feat, thr, _ = split
    mask = X[:, feat] <= thr
    tree.feature[node] = feat
    tree.threshold[node] = thr
    tree.left[node] = _grow(tree, X[mask], residual[mask], depth + 1, params)
    tree.right[node] = _grow(tree, X[~mask], residual[~mask], depth + 1, params)
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
        out = np.full(len(X), self.base_score, dtype=np.float64)
        for tree in self.trees:
            out += self.shrinkage * tree.predict_batch(X)
        return out

    def predict(self, x: np.ndarray) -> float:
        """Forecast order count for the next 15 minutes from one float64
        feature row, clamped at zero."""
        raw = self.base_score
        for tree in self.trees:
            raw += self.shrinkage * tree.predict(x)
        return max(raw, 0.0)


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
    for _ in range(params.rounds):
        residual = y - current
        tree = RegressionTree()
        _grow(tree, X, residual, 0, params)
        model.trees.append(tree)
        current += params.shrinkage * tree.predict_batch(X)
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

    def predict(self, grid: int, minute: int, counts: Optional[np.ndarray]) -> float:
        return oracle_predictor(self._config, grid, minute)


class GbtDemand:
    """Demand predictor backed by per-grid trained ensembles."""

    def __init__(self, models: Dict[int, GBTEnsemble], config: ScenarioConfig):
        self._models = models
        self._config = config

    def predict(self, grid: int, minute: int, counts: Optional[np.ndarray]) -> float:
        model = self._models.get(grid)
        if model is None:
            return 0.0
        if counts is None:
            raise ConfigError("gbt demand prediction needs the current shift counts")
        hour = self._config.hour_at(minute)
        lags = lag_window_counts(counts[grid], minute)
        return model.predict(np.array([DEFAULT_SHIFT_WEEKDAY, hour, *lags], dtype=np.float64))


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

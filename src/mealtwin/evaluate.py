"""Shift evaluation: metrics from event logs and framework comparisons.

A run's quality metrics all come from its event log, so replaying a stored
log yields identical numbers.  Comparisons across framework variants use
matched order streams (same scenario seeds per shift index), upper-tail
outlier exclusion on mean time gap, and a two-sided Mann-Whitney U test with
midrank ties and continuity correction.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import time
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dispatch import ConvDdqnPolicy, DispatchRewardParams, NearestIdlePolicy
from .errors import ConfigError, ContractError, load_document
from .rlcore import QNet
from .scenario import ScenarioConfig
from .simcore import MODE_MYOPIC, MODE_STRATEGIC, Event, SimState
from .steering import SteerDdqnPolicy

logger = logging.getLogger(__name__)

COMPARISON_SCHEMA = "mealtwin-comparison/1"

# The six framework variants of the comparison study.  Per variant:
# simulation mode, dispatch weight slot (None = nearest idle), steering
# weight slot (None = no steering).  The steered nearest-idle variant reuses
# the strategic steering network, hence strategic mode.
VARIANT_SETUP: Dict[str, Tuple[str, Optional[str], Optional[str]]] = {
    "strategic": (MODE_STRATEGIC, "strategic_dispatch", None),
    "strategic+steer": (MODE_STRATEGIC, "strategic_dispatch", "strategic_steering"),
    "myopic": (MODE_MYOPIC, "myopic_dispatch", None),
    "myopic+steer": (MODE_MYOPIC, "myopic_dispatch", "myopic_steering"),
    "nearest_idle": (MODE_MYOPIC, None, None),
    "nearest_idle+steer": (MODE_STRATEGIC, None, "strategic_steering"),
}
VARIANTS = tuple(VARIANT_SETUP)

MIN_RUNS_FOR_EXCLUSION = 20


@dataclass
class RunMetrics:
    variant: str
    run_id: int
    sampled: int
    delivered: int
    overdue_count: int
    gap_mean: float
    gap_std: float
    pickup_mean: float
    pickup_std: float
    overdue_rate: float
    nsd: float
    psd: float
    courier_delivery_minutes: Tuple[float, ...]
    courier_idle_minutes: Tuple[float, ...]
    courier_served: Tuple[int, ...]
    courier_distance: Tuple[int, ...]

    def fairness_std(self, attr: str) -> float:
        return float(np.std(np.asarray(getattr(self, attr), dtype=np.float64)))

    def fairness_mean(self, attr: str) -> float:
        return float(np.mean(np.asarray(getattr(self, attr), dtype=np.float64)))

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "run_id": self.run_id,
            "sampled": self.sampled,
            "delivered": self.delivered,
            "overdue_count": self.overdue_count,
            "gap_mean": self.gap_mean,
            "gap_std": self.gap_std,
            "pickup_mean": self.pickup_mean,
            "pickup_std": self.pickup_std,
            "overdue_rate": self.overdue_rate,
            "nsd": self.nsd,
            "psd": self.psd,
            "courier_delivery_minutes": list(self.courier_delivery_minutes),
            "courier_idle_minutes": list(self.courier_idle_minutes),
            "courier_served": list(self.courier_served),
            "courier_distance": list(self.courier_distance),
        }


def compute_metrics(
    events: Sequence[Event], fleet_size: int, variant: str = "", run_id: int = 0
) -> RunMetrics:
    """Distill one shift's event log into its quality metrics.

    Time gaps (courier arrival at the restaurant minus actual meal ready
    time) cover delivered orders only; pickup distances cover every
    assignment; the balance scores average the per-minute snapshot gaps."""
    arrival: Dict[int, float] = {}
    ready: Dict[int, float] = {}
    pickup_distance: Dict[int, int] = {}
    delivered_ids: List[int] = []
    nsd_terms: List[float] = []
    psd_terms: List[float] = []
    courier_rows: Dict[int, dict] = {}
    summary: Optional[dict] = None
    for ev in events:
        if ev.event == "assigned":
            d = ev.detail
            arrival[d["order"]] = d["arrival"]
            ready[d["order"]] = d["ready"]
            pickup_distance[d["order"]] = d["pickup_distance"]
        elif ev.event == "delivered":
            delivered_ids.append(ev.detail["order"])
        elif ev.event == "snapshot":
            gaps = np.asarray(ev.detail["gap"], dtype=np.float64)
            nsd_terms.append(float(np.minimum(gaps, 0.0).sum()))
            psd_terms.append(float(np.maximum(gaps, 0.0).sum()))
        elif ev.event == "courier_summary":
            courier_rows[ev.detail["courier"]] = ev.detail
        elif ev.event == "shift_summary":
            summary = ev.detail
    if summary is None:
        raise ConfigError("event log has no shift summary; was the shift finished?")
    if len(courier_rows) != fleet_size:
        raise ConfigError(
            f"event log covers {len(courier_rows)} couriers, expected {fleet_size}"
        )
    gaps = np.array([arrival[o] - ready[o] for o in delivered_ids], dtype=np.float64)
    picks = np.array(sorted(pickup_distance.values()), dtype=np.float64)
    by_id = [courier_rows[c] for c in range(fleet_size)]
    sampled = summary["sampled"]
    return RunMetrics(
        variant=variant,
        run_id=run_id,
        sampled=sampled,
        delivered=summary["delivered"],
        overdue_count=summary["overdue"],
        gap_mean=float(gaps.mean()) if gaps.size else float("nan"),
        gap_std=float(gaps.std()) if gaps.size else float("nan"),
        pickup_mean=float(picks.mean()) if picks.size else float("nan"),
        pickup_std=float(picks.std()) if picks.size else float("nan"),
        overdue_rate=(summary["overdue"] / sampled) if sampled else 0.0,
        nsd=float(np.mean(nsd_terms)) if nsd_terms else 0.0,
        psd=float(np.mean(psd_terms)) if psd_terms else 0.0,
        courier_delivery_minutes=tuple(r["delivery_minutes"] for r in by_id),
        courier_idle_minutes=tuple(r["idle_minutes"] for r in by_id),
        courier_served=tuple(r["served"] for r in by_id),
        courier_distance=tuple(r["distance"] for r in by_id),
    )


@dataclass
class ShiftResult:
    metrics: RunMetrics
    latencies: List[float]
    events: List[Event]


def run_shift(
    config: ScenarioConfig,
    mode: str,
    dispatch_policy: Callable[[SimState, int, List[int]], None],
    steer_policy: Optional[Callable[[SimState, int], None]],
    predictor,
    seed_key: Sequence[int],
    variant: str = "",
    run_id: int = 0,
) -> ShiftResult:
    """Simulate one full shift under a policy pair, timing each decision."""
    sim = SimState(config, mode=mode, predictor=predictor, seed_key=seed_key)
    latencies: List[float] = []

    def timed_dispatch(s: SimState, oid: int, remaining: List[int]) -> None:
        t0 = time.perf_counter()
        dispatch_policy(s, oid, remaining)
        latencies.append(time.perf_counter() - t0)

    timed_steer = None
    if steer_policy is not None:

        def timed_steer(s: SimState, cid: int) -> None:
            t0 = time.perf_counter()
            steer_policy(s, cid)
            latencies.append(time.perf_counter() - t0)

    sim.run(timed_dispatch, timed_steer)
    metrics = compute_metrics(sim.events, config.fleet_size, variant, run_id)
    return ShiftResult(metrics=metrics, latencies=latencies, events=sim.events)


def variant_policies(
    variant: str,
    nets: Dict[str, QNet],
    dispatch_trace: Optional[list] = None,
    steer_trace: Optional[list] = None,
):
    """Simulation mode, dispatch policy and steering policy (None without
    steering) of a variant; `nets` maps its weight slots to loaded nets."""
    mode, dispatch_slot, steer_slot = VARIANT_SETUP[variant]
    params = DispatchRewardParams()
    if dispatch_slot is None:
        dispatch_policy = NearestIdlePolicy(params, trace=dispatch_trace)
    else:
        dispatch_policy = ConvDdqnPolicy(nets[dispatch_slot], params, trace=dispatch_trace)
    steer_policy = SteerDdqnPolicy(nets[steer_slot], trace=steer_trace) if steer_slot else None
    return mode, dispatch_policy, steer_policy


def _study_shift(
    config: ScenarioConfig, nets: Dict[str, QNet], predictor, eval_seed: int, task: Tuple[str, int]
) -> Tuple[RunMetrics, List[float]]:
    """One (variant, shift) task of `run_study`; module-level so a process
    pool can run it."""
    variant, shift = task
    mode, dispatch_policy, steer_policy = variant_policies(variant, nets)
    if mode != MODE_STRATEGIC:
        predictor = None
    # Shift i runs under seed key (eval_seed, i) and is run i of its variant.
    result = run_shift(
        config, mode, dispatch_policy, steer_policy, predictor, (eval_seed, shift), variant, shift
    )
    return result.metrics, result.latencies


def run_study(
    config: ScenarioConfig,
    variants: Sequence[str],
    nets: Dict[str, QNet],
    predictor,
    eval_seed: int,
    shifts: int,
    workers: int = 1,
) -> Tuple[Dict[str, List[RunMetrics]], Dict[str, List[float]]]:
    """Each variant's runs on matched shifts 0..shifts-1 and its decision
    latencies (seconds); strategic-mode variants get the predictor.  Policies
    without a learner are stateless, so the results are the same in any order
    and in any process: `workers` > 1 runs the shifts on a spawned pool.

    The tasks run shift by shift, every variant of a shift in turn, so each
    shift's book is drawn, and forecast, once (see `ScenarioConfig.shift_book`)."""
    study_shift = partial(_study_shift, config, nets, predictor, eval_seed)
    tasks = [(v, i) for i in range(shifts) for v in variants]
    if workers > 1:
        # Imported here: serial runs, the common case, never pay for the pool.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # One chunk of whole shifts per worker, so each worker unpickles the
        # study once and draws the books of its own shifts.
        chunksize = max(1, math.ceil(shifts / workers)) * len(variants)
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(workers, mp_context=spawn) as pool:
            results = list(pool.map(study_shift, tasks, chunksize=chunksize))
    else:
        results = map(study_shift, tasks)
    runs: Dict[str, List[RunMetrics]] = {v: [] for v in variants}
    latencies: Dict[str, List[float]] = {v: [] for v in variants}
    # Shift-major tasks append each variant's runs in shift order.
    for (v, _), (metrics, lat) in zip(tasks, results):
        runs[v].append(metrics)
        latencies[v].extend(lat)
    return runs, latencies


def exclude_outliers(runs: List[RunMetrics]) -> Tuple[List[RunMetrics], List[int]]:
    """Drop runs without a delivery (NaN mean time gap), then runs whose mean
    time gap lies strictly above the nearest-rank 95th percentile of the
    remaining runs; below 20 remaining runs only the former are dropped."""
    finite = [r for r in runs if not math.isnan(r.gap_mean)]
    if len(finite) < MIN_RUNS_FOR_EXCLUSION:
        if finite:
            logger.warning(
                "only %d runs with a delivery; outlier exclusion needs %d, keeping them all",
                len(finite),
                MIN_RUNS_FOR_EXCLUSION,
            )
        cut = math.inf
    else:
        means = sorted(r.gap_mean for r in finite)
        cut = means[math.ceil(0.95 * len(means)) - 1]
    kept = [r for r in finite if r.gap_mean <= cut]
    excluded = [r.run_id for r in runs if not r.gap_mean <= cut]  # NaN is never <= cut
    return kept, excluded


def _midranks(values: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """Ranks 1..n with ties sharing their average rank; also the tie sizes."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values), dtype=np.float64)
    ties: List[int] = []
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        if j > i:
            ties.append(j - i + 1)
        i = j + 1
    return ranks, ties


def mann_whitney_u(x: Sequence[float], y: Sequence[float]) -> Tuple[float, float]:
    """Two-sided Mann-Whitney U with midrank ties, tie-corrected normal
    approximation and continuity correction.  Returns (U of x, p-value)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    nx, ny = len(x), len(y)
    if nx < 2 or ny < 2:
        raise ContractError("both samples need at least two observations")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ContractError("Mann-Whitney U needs finite observations")
    pooled = np.concatenate([x, y])
    ranks, ties = _midranks(pooled)
    u1 = float(ranks[:nx].sum() - nx * (nx + 1) / 2.0)
    n = nx + ny
    mu = nx * ny / 2.0
    tie_term = sum(t**3 - t for t in ties) / (n * (n - 1)) if n > 1 else 0.0
    var = nx * ny / 12.0 * ((n + 1) - tie_term)
    if var <= 0.0:
        return u1, 1.0
    diff = u1 - mu
    if diff > 0:
        diff -= 0.5
    elif diff < 0:
        diff += 0.5
    z = diff / math.sqrt(var)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return u1, min(p, 1.0)


# Metric extractors for aggregation tables, in report row order.
METRIC_FIELDS: Dict[str, Callable[[RunMetrics], float]] = {
    "time_gap_mean": lambda r: r.gap_mean,
    "time_gap_std": lambda r: r.gap_std,
    "pickup_distance_mean": lambda r: r.pickup_mean,
    "overdue_rate": lambda r: r.overdue_rate,
    "nsd": lambda r: r.nsd,
    "psd": lambda r: r.psd,
    "delivered": lambda r: float(r.delivered),
    "courier_delivery_minutes_mean": lambda r: r.fairness_mean("courier_delivery_minutes"),
    "courier_delivery_minutes_std": lambda r: r.fairness_std("courier_delivery_minutes"),
    "courier_idle_minutes_mean": lambda r: r.fairness_mean("courier_idle_minutes"),
    "courier_idle_minutes_std": lambda r: r.fairness_std("courier_idle_minutes"),
    "courier_served_std": lambda r: r.fairness_std("courier_served"),
    "courier_distance_mean": lambda r: r.fairness_mean("courier_distance"),
    "courier_distance_std": lambda r: r.fairness_std("courier_distance"),
}

# Pairwise significance tests are run on these per-run series.
PAIRWISE_METRICS = ("time_gap_mean", "pickup_distance_mean", "nsd", "psd")


@dataclass
class ComparisonReport:
    variants: Tuple[str, ...]
    runs: Dict[str, List[RunMetrics]]
    kept: Dict[str, List[RunMetrics]] = field(default_factory=dict)
    excluded: Dict[str, List[int]] = field(default_factory=dict)
    missing: List[str] = field(default_factory=list)
    aggregates: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)
    pairwise_p: Dict[str, Dict[str, float]] = field(default_factory=dict)


def compare_frameworks(
    runs_by_variant: Dict[str, List[RunMetrics]],
    variants: Sequence[str] = VARIANTS,
) -> ComparisonReport:
    """Aggregate per-variant metrics (after outlier exclusion) and test the
    pairwise metric differences for significance."""
    report = ComparisonReport(variants=tuple(variants), runs=dict(runs_by_variant))
    for v in variants:
        runs = runs_by_variant.get(v, [])
        if not runs:
            report.missing.append(v)
            report.kept[v] = []
            report.excluded[v] = []
            continue
        kept, excluded = exclude_outliers(runs)
        report.kept[v] = kept
        report.excluded[v] = excluded
        report.aggregates[v] = {}
        for metric, getter in METRIC_FIELDS.items():
            vals = np.array([getter(r) for r in kept], dtype=np.float64)
            report.aggregates[v][metric] = {
                "avg": float(vals.mean()) if vals.size else float("nan"),
                "std": float(vals.std()) if vals.size else float("nan"),
            }
    for metric in PAIRWISE_METRICS:
        getter = METRIC_FIELDS[metric]
        table: Dict[str, float] = {}
        for i, a in enumerate(variants):
            for b in variants[i + 1 :]:
                ra, rb = report.kept.get(a, []), report.kept.get(b, [])
                if len(ra) < 2 or len(rb) < 2:
                    continue
                _, p = mann_whitney_u([getter(r) for r in ra], [getter(r) for r in rb])
                table[f"{a}|{b}"] = p
        report.pairwise_p[metric] = table
    return report


def pooled_gap_stats(kept: List[RunMetrics]) -> Dict[str, float]:
    """Mean and std of delivered-order gaps pooled over runs, reconstructed
    from per-run (count, mean, std)."""
    counts = np.array([r.delivered for r in kept], dtype=np.float64)
    means = np.array([r.gap_mean for r in kept], dtype=np.float64)
    stds = np.array([r.gap_std for r in kept], dtype=np.float64)
    ok = counts > 0
    total = counts[ok].sum()
    if total == 0:
        return {"mean": float("nan"), "std": float("nan"), "count": 0.0}
    mean = float((counts[ok] * means[ok]).sum() / total)
    second = (counts[ok] * (stds[ok] ** 2 + means[ok] ** 2)).sum() / total
    return {"mean": mean, "std": float(math.sqrt(max(second - mean**2, 0.0))), "count": float(total)}


def comparison_to_dict(report: ComparisonReport) -> dict:
    return {
        "schema": COMPARISON_SCHEMA,
        "variants": list(report.variants),
        "missing": list(report.missing),
        "excluded": {v: list(ids) for v, ids in report.excluded.items()},
        "aggregates": report.aggregates,
        "pooled_time_gap": {
            v: pooled_gap_stats(report.kept[v]) for v in report.variants if report.kept.get(v)
        },
        "pairwise_p": report.pairwise_p,
        "runs": {
            v: [r.to_dict() for r in report.runs.get(v, [])] for v in report.variants
        },
    }


def _nan_to_null(value):
    """The value with every NaN float, however deeply nested, as None."""
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, dict):
        return {k: _nan_to_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_nan_to_null(v) for v in value]
    return value


def save_comparison(path: Path, report: ComparisonReport) -> None:
    """Strict JSON: an undefined statistic (NaN) is written as null."""
    with open(path, "w") as fh:
        json.dump(
            _nan_to_null(comparison_to_dict(report)), fh, sort_keys=True, indent=1, allow_nan=False
        )
        fh.write("\n")


_RUN_FIELDS = frozenset(f.name for f in fields(RunMetrics))
_RUN_SEQUENCES = (
    "courier_delivery_minutes",
    "courier_idle_minutes",
    "courier_served",
    "courier_distance",
)


def _run_from_dict(doc) -> RunMetrics:
    """A run as `save_comparison` wrote it; null stands for NaN."""
    have = set(doc) if isinstance(doc, dict) else set()
    if have != _RUN_FIELDS:
        raise ConfigError(
            "comparison run must hold exactly the run fields; "
            f"missing {sorted(_RUN_FIELDS - have)}, unknown {sorted(have - _RUN_FIELDS)}"
        )
    if not isinstance(doc["variant"], str):
        raise ConfigError(f"comparison run variant must be a name, got {doc['variant']!r}")
    run = {"variant": doc["variant"]}
    for key in _RUN_FIELDS - {"variant"}:
        value = float("nan") if doc[key] is None else doc[key]
        numbers = value if key in _RUN_SEQUENCES else [value]
        if not isinstance(numbers, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in numbers
        ):
            raise ConfigError(f"comparison run field {key!r} must hold numbers, got {value!r}")
        run[key] = tuple(value) if key in _RUN_SEQUENCES else value
    # One entry per courier of a fleet of at least one.
    lengths = {len(run[key]) for key in _RUN_SEQUENCES}
    if len(lengths) != 1 or 0 in lengths:
        raise ConfigError(
            f"comparison run {doc['run_id']!r} needs four non-empty courier lists of one length"
        )
    # A shift with a delivery defines every statistic that the tests compare.
    scalars = [run[key] for key in _RUN_FIELDS - {"variant", *_RUN_SEQUENCES}]
    if not math.isnan(run["gap_mean"]) and not all(map(math.isfinite, scalars)):
        raise ConfigError(f"comparison run {doc['run_id']!r} has a delivery but a NaN or inf")
    return RunMetrics(**run)


def _comparison_from_dict(doc: dict) -> ComparisonReport:
    variants = doc.get("variants")
    if not isinstance(variants, list) or not all(isinstance(v, str) for v in variants):
        raise ConfigError("'variants' must be a list of names")
    runs = {v: [_run_from_dict(r) for r in rows] for v, rows in doc["runs"].items()}
    return compare_frameworks(runs, variants=variants)


def load_comparison(path: Path) -> ComparisonReport:
    """The comparison of a file `save_comparison` wrote, recomputed from its
    runs.  A file of another shape raises ConfigError."""
    return load_document(path, COMPARISON_SCHEMA, "comparison", _comparison_from_dict)


def write_metrics_csv(path: Path, report: ComparisonReport) -> None:
    """Metric table: one row per metric, Avg./Std. column pair per variant."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["metric"]
        for v in report.variants:
            header += [f"{v} avg", f"{v} std"]
        writer.writerow(header)
        for metric in METRIC_FIELDS:
            row = [metric]
            for v in report.variants:
                cell = report.aggregates.get(v, {}).get(metric)
                row += [cell["avg"], cell["std"]] if cell else ["", ""]
            writer.writerow(row)


def write_pvalues_csv(path: Path, report: ComparisonReport) -> None:
    """The pairwise p-values of the mean time gap."""
    table = report.pairwise_p.get("time_gap_mean", {})
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant_a", "variant_b", "p_value"])
        for pair, p in table.items():
            a, b = pair.split("|", 1)
            writer.writerow([a, b, p])


def latency_p99(latencies: Sequence[float]) -> float:
    """Nearest-rank 99th percentile of per-decision wall-clock seconds."""
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]

"""Evaluation tests: metric extraction, outlier exclusion, rank test, tables.

scipy is used here purely as a cross-check oracle for the Mann-Whitney
implementation; the package itself never imports it.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import mealtwin.cli
import mealtwin.evaluate
from mealtwin.dispatch import ConvDdqnPolicy, DispatchRewardParams, NearestIdlePolicy
from mealtwin.errors import ConfigError, ContractError
from mealtwin.evaluate import (
    COMPARISON_SCHEMA,
    METRIC_FIELDS,
    MIN_RUNS_FOR_EXCLUSION,
    PAIRWISE_METRICS,
    VARIANTS,
    RunMetrics,
    compare_frameworks,
    comparison_to_dict,
    compute_metrics,
    exclude_outliers,
    latency_p99,
    mann_whitney_u,
    pooled_gap_stats,
    run_shift,
    run_study,
    save_comparison,
    variant_policies,
    write_metrics_csv,
    write_pvalues_csv,
)
from mealtwin.forecast import OracleDemand
from mealtwin.rlcore import dispatch_qnet, steering_qnet
from mealtwin.scenario import default_scenario, make_rng
from mealtwin.simcore import MODE_MYOPIC, Event, events_from_csv, events_to_csv


def ev(minute, entity, event, detail):
    return Event(minute=minute, entity=entity, event=event, detail=detail)


def hand_log():
    zeros = [0.0] * 23
    return [
        ev(0, "shift", "shift_start", {}),
        ev(0, "order:0", "assigned", {"order": 0, "courier": 0, "pickup_distance": 2, "arrival": 9.0, "ready": 5.0}),
        ev(1, "order:1", "assigned", {"order": 1, "courier": 1, "pickup_distance": 1, "arrival": 4.0, "ready": 6.0}),
        ev(0, "region", "snapshot", {"idle": [], "pending": [], "gap": [1.0, -2.0] + zeros}),
        ev(1, "region", "snapshot", {"idle": [], "pending": [], "gap": [-1.0, -1.0, 2.0] + zeros[:-1]}),
        ev(9, "order:0", "delivered", {"order": 0, "courier": 0, "time": 9.0}),
        ev(2, "order:2", "overdue", {"order": 2}),
        ev(120, "courier:0", "courier_summary", {"courier": 0, "delivery_minutes": 30.0, "idle_minutes": 90.0, "realloc_minutes": 0.0, "distance": 11, "served": 1}),
        ev(120, "courier:1", "courier_summary", {"courier": 1, "delivery_minutes": 50.0, "idle_minutes": 70.0, "realloc_minutes": 0.0, "distance": 5, "served": 0}),
        ev(120, "shift", "shift_summary", {"sampled": 3, "delivered": 1, "overdue": 1, "active": 1}),
    ]


def test_compute_metrics_hand_log():
    m = compute_metrics(hand_log(), fleet_size=2, variant="x", run_id=4)
    assert (m.variant, m.run_id) == ("x", 4)
    assert (m.sampled, m.delivered, m.overdue_count) == (3, 1, 1)
    # Gap stats cover delivered orders only: 9.0 - 5.0.
    assert m.gap_mean == 4.0 and m.gap_std == 0.0
    # Pickup stats cover every assignment.
    assert m.pickup_mean == 1.5 and m.pickup_std == 0.5
    assert m.overdue_rate == pytest.approx(1.0 / 3.0)
    assert m.nsd == -2.0  # mean of (-2) and (-2)
    assert m.psd == 1.5  # mean of 1 and 2
    assert m.courier_delivery_minutes == (30.0, 50.0)
    assert m.courier_idle_minutes == (90.0, 70.0)
    assert m.courier_served == (1, 0)
    assert m.courier_distance == (11, 5)
    assert m.fairness_std("courier_served") == 0.5
    assert m.fairness_mean("courier_distance") == 8.0


def test_compute_metrics_validation():
    log = hand_log()
    with pytest.raises(ConfigError):
        compute_metrics(log[:-1], fleet_size=2)  # summary missing
    with pytest.raises(ConfigError):
        compute_metrics(log, fleet_size=3)  # courier row missing
    no_delivery = [e for e in log if e.event != "delivered"]
    m = compute_metrics(no_delivery, fleet_size=2)
    assert math.isnan(m.gap_mean) and math.isnan(m.gap_std)


def test_metrics_survive_event_log_round_trip(tmp_path):
    res = run_shift(
        config=default_scenario(seed=2),
        mode=MODE_MYOPIC,
        dispatch_policy=NearestIdlePolicy(),
        steer_policy=None,
        predictor=None,
        seed_key=(44, 0),
        variant="nearest_idle",
        run_id=7,
    )
    direct = compute_metrics(res.events, 25, "nearest_idle", 7)
    assert direct == res.metrics
    path = tmp_path / "events.csv"
    events_to_csv(res.events, path)
    replayed = compute_metrics(events_from_csv(path), 25, "nearest_idle", 7)
    assert replayed == res.metrics
    assert len(res.latencies) > 0
    assert res.metrics.delivered > 50


def test_matched_seed_keys_share_order_streams():
    config = default_scenario(seed=2)

    def eager(sim, oid, remaining):
        for c in sim.couriers:
            if c.delivery_task_count() < 2:
                sim.apply_dispatch(oid, c.id)
                return

    a = run_shift(config, MODE_MYOPIC, NearestIdlePolicy(), None, None, (9, 3))
    b = run_shift(config, MODE_MYOPIC, eager, None, None, (9, 3))
    assert a.metrics.sampled == b.metrics.sampled
    placed_a = [e.detail for e in a.events if e.event == "placed"]
    placed_b = [e.detail for e in b.events if e.event == "placed"]
    assert placed_a == placed_b


def make_run(variant="a", run_id=0, gap_mean=0.0, delivered=10, gap_std=1.0, **over):
    fields = dict(
        variant=variant,
        run_id=run_id,
        sampled=12,
        delivered=delivered,
        overdue_count=0,
        gap_mean=gap_mean,
        gap_std=gap_std,
        pickup_mean=2.0,
        pickup_std=0.5,
        overdue_rate=0.0,
        nsd=-1.0,
        psd=1.0,
        courier_delivery_minutes=(30.0, 40.0),
        courier_idle_minutes=(90.0, 80.0),
        courier_served=(5, 5),
        courier_distance=(8, 9),
    )
    fields.update(over)
    return RunMetrics(**fields)


def test_exclusion_below_minimum_keeps_all(caplog):
    runs = [make_run(run_id=i, gap_mean=float(i)) for i in range(19)]
    with caplog.at_level("WARNING"):
        kept, excluded = exclude_outliers(runs)
    assert kept == runs and excluded == []
    assert any("outlier exclusion" in r.message for r in caplog.records)
    assert exclude_outliers([]) == ([], [])
    assert MIN_RUNS_FOR_EXCLUSION == 20


def test_exclusion_cuts_strictly_above_percentile():
    runs = [make_run(run_id=i, gap_mean=float(i)) for i in range(25)]
    kept, excluded = exclude_outliers(runs)
    # Nearest-rank 95th of 0..24 is 23; only 24 lies strictly above.
    assert excluded == [24]
    assert [r.run_id for r in kept] == list(range(24))
    flat = [make_run(run_id=i, gap_mean=5.0) for i in range(25)]
    kept, excluded = exclude_outliers(flat)
    assert excluded == [] and len(kept) == 25
    spiked = [make_run(run_id=i, gap_mean=0.0) for i in range(24)]
    spiked.append(make_run(run_id=24, gap_mean=9.0))
    kept, excluded = exclude_outliers(spiked)
    assert excluded == [24]


def no_delivery_run(variant="a", run_id=0):
    nan = float("nan")
    return make_run(variant, run_id, gap_mean=nan, gap_std=nan, delivered=0, pickup_mean=nan)


def test_exclusion_drops_runs_without_delivery():
    # 19 real runs and one without a delivery: the NaN run is excluded, and
    # the 19 finite runs are below the exclusion minimum, so all of them stay.
    runs = [make_run(run_id=i, gap_mean=float(i)) for i in range(19)]
    runs.insert(7, no_delivery_run(run_id=99))
    kept, excluded = exclude_outliers(runs)
    assert excluded == [99]
    assert [r.run_id for r in kept] == list(range(19))
    # With 20 finite runs the cut is taken over them alone: the nearest-rank
    # 95th of 0..19 is 18, so 19 lies above it.
    runs.append(make_run(run_id=19, gap_mean=19.0))
    kept, excluded = exclude_outliers(runs)
    assert excluded == [99, 19]
    assert [r.run_id for r in kept] == list(range(19))


def test_compare_frameworks_excludes_runs_without_delivery():
    runs = {
        "a": [no_delivery_run("a", i) for i in range(10)],
        "b": [make_run("b", i, gap_mean=float(i)) for i in range(10)],
    }
    report = compare_frameworks(runs, variants=("a", "b"))
    assert report.excluded == {"a": list(range(10)), "b": []}
    assert report.kept["a"] == []
    for metric in PAIRWISE_METRICS:
        assert report.pairwise_p[metric] == {}  # no confident p-value from NaN runs


def test_mann_whitney_frozen_small_case():
    u1, p = mann_whitney_u([1.0, 2.0], [3.0, 4.0])
    assert u1 == 0.0
    # Normal approximation with continuity correction:
    # z = (0 - 2 + 0.5) / sqrt(5/3), p = erfc(|z|/sqrt(2)).
    expect = math.erfc((1.5 / math.sqrt(5.0 / 3.0)) / math.sqrt(2.0))
    assert p == pytest.approx(expect)
    u1r, pr = mann_whitney_u([3.0, 4.0], [1.0, 2.0])
    assert u1r == 4.0  # U1 + U2 = nx * ny
    assert pr == pytest.approx(p)


def test_mann_whitney_matches_scipy():
    rng = np.random.default_rng(0)
    for trial in range(8):
        x = rng.normal(size=rng.integers(5, 40))
        y = rng.normal(loc=0.3 * trial, size=rng.integers(5, 40))
        if trial % 2:
            x = np.round(x)  # force midrank ties
            y = np.round(y)
        u1, p = mann_whitney_u(x, y)
        ref = stats.mannwhitneyu(
            x, y, alternative="two-sided", method="asymptotic", use_continuity=True
        )
        assert u1 == pytest.approx(float(ref.statistic))
        assert p == pytest.approx(float(ref.pvalue), rel=1e-10)


def test_mann_whitney_degenerate_and_contract():
    u1, p = mann_whitney_u([2.0, 2.0, 2.0], [2.0, 2.0])
    assert p == 1.0  # tie correction zeroes the variance
    with pytest.raises(ContractError):
        mann_whitney_u([1.0], [2.0, 3.0])
    real = [float(i) for i in range(10)]
    with pytest.raises(ContractError, match="finite"):
        mann_whitney_u([math.nan] * 10, real)
    with pytest.raises(ContractError, match="finite"):
        mann_whitney_u(real, real[:-1] + [math.inf])


def test_compare_frameworks_small():
    runs = {
        "a": [make_run("a", i, gap_mean=g) for i, g in enumerate((1.0, 2.0, 3.0))],
        "b": [make_run("b", i, gap_mean=g) for i, g in enumerate((4.0, 5.0, 6.0))],
    }
    report = compare_frameworks(runs, variants=("a", "b", "c"))
    assert report.missing == ["c"]
    assert report.kept["a"] == runs["a"]  # below the exclusion minimum
    agg = report.aggregates["a"]["time_gap_mean"]
    assert agg["avg"] == 2.0
    assert agg["std"] == pytest.approx(np.std([1.0, 2.0, 3.0]))
    for metric in PAIRWISE_METRICS:
        assert set(report.pairwise_p[metric]) == {"a|b"}
    _, expect_p = mann_whitney_u([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert report.pairwise_p["time_gap_mean"]["a|b"] == pytest.approx(expect_p)
    lone = compare_frameworks({"a": runs["a"], "b": runs["b"][:1]}, variants=("a", "b"))
    assert lone.pairwise_p["time_gap_mean"] == {}  # one run cannot be tested


def test_pooled_gap_stats_matches_direct_pooling():
    r1_samples = np.array([1.0, 3.0])
    r2_samples = np.array([5.0])
    runs = [
        make_run(run_id=0, delivered=2, gap_mean=float(r1_samples.mean()), gap_std=float(r1_samples.std())),
        make_run(run_id=1, delivered=1, gap_mean=5.0, gap_std=0.0),
        make_run(run_id=2, delivered=0, gap_mean=float("nan"), gap_std=float("nan")),
    ]
    pooled = pooled_gap_stats(runs)
    samples = np.concatenate([r1_samples, r2_samples])
    assert pooled["count"] == 3.0
    assert pooled["mean"] == pytest.approx(samples.mean())
    assert pooled["std"] == pytest.approx(samples.std())
    empty = pooled_gap_stats([make_run(delivered=0, gap_mean=float("nan"))])
    assert math.isnan(empty["mean"]) and empty["count"] == 0.0


def test_comparison_serialization(tmp_path):
    runs = {
        "a": [make_run("a", i, gap_mean=float(i)) for i in range(3)],
        "b": [make_run("b", i, gap_mean=float(i + 1)) for i in range(3)],
    }
    report = compare_frameworks(runs, variants=("a", "b"))
    doc = comparison_to_dict(report)
    assert doc["schema"] == COMPARISON_SCHEMA
    assert doc["variants"] == ["a", "b"]
    assert len(doc["runs"]["a"]) == 3
    assert doc["runs"]["a"][0] == runs["a"][0].to_dict()
    assert set(doc["pooled_time_gap"]) == {"a", "b"}
    path = tmp_path / "comparison.json"
    save_comparison(path, report)
    assert json.loads(path.read_text()) == json.loads(json.dumps(doc))

    table = tmp_path / "metrics.csv"
    write_metrics_csv(table, report)
    lines = table.read_text().splitlines()
    assert lines[0] == "metric,a avg,a std,b avg,b std"
    assert len(lines) == 1 + len(METRIC_FIELDS)
    pvals = tmp_path / "p.csv"
    write_pvalues_csv(pvals, report)
    plines = pvals.read_text().splitlines()
    assert plines[0] == "variant_a,variant_b,p_value"
    assert plines[1].startswith("a,b,")


def test_every_variant_sees_the_same_orders():
    """Common random numbers: under one seed key all six variants place the
    same orders, whatever their policies do.  Mann-Whitney's matched design
    and the forecaster's memo hits across variants rest on it."""
    config = default_scenario(seed=4)
    nets = {
        "strategic_dispatch": dispatch_qnet(config.fleet_size, rng=make_rng(1)),
        "strategic_steering": steering_qnet(rng=make_rng(2)),
        "myopic_dispatch": dispatch_qnet(config.fleet_size, rng=make_rng(3)),
        "myopic_steering": steering_qnet(rng=make_rng(4)),
    }
    for shift in (0, 1, 5):
        placed = {}
        for variant in VARIANTS:
            mode, dispatch_policy, steer_policy = variant_policies(variant, nets)
            result = run_shift(
                config, mode, dispatch_policy, steer_policy, OracleDemand(config), (31, shift)
            )
            placed[variant] = [
                (e.minute, e.entity, e.detail) for e in result.events if e.event == "placed"
            ]
        assert placed["strategic"], "a shift without orders shows nothing"
        assert all(p == placed["strategic"] for p in placed.values()), shift


def test_variant_names_frozen():
    assert VARIANTS == (
        "strategic",
        "strategic+steer",
        "myopic",
        "myopic+steer",
        "nearest_idle",
        "nearest_idle+steer",
    )


def test_cli_reads_the_variant_table():
    """The CLI, and the benchmark through it, use this module's table; the
    weight flags follow its slots in table order."""
    assert mealtwin.cli.VARIANT_SETUP is mealtwin.evaluate.VARIANT_SETUP
    assert mealtwin.cli.WEIGHT_SLOTS == (
        "strategic_dispatch",
        "strategic_steering",
        "myopic_dispatch",
        "myopic_steering",
    )


def test_run_study_matches_shift_by_shift_runs():
    config = default_scenario(seed=0)
    nets = {"myopic_dispatch": dispatch_qnet(config.fleet_size, rng=make_rng(3))}
    params = DispatchRewardParams()
    dispatchers = {
        "nearest_idle": lambda: NearestIdlePolicy(params),
        "myopic": lambda: ConvDdqnPolicy(nets["myopic_dispatch"], params),
    }
    variants = tuple(dispatchers)
    runs, latencies = run_study(config, variants, nets, None, eval_seed=77, shifts=2)
    assert list(runs) == list(variants) and list(latencies) == list(variants)
    for variant in variants:
        assert [r.run_id for r in runs[variant]] == [0, 1]
        expected_latencies = []
        for i, run in enumerate(runs[variant]):
            result = run_shift(
                config, MODE_MYOPIC, dispatchers[variant](), None, None,
                seed_key=(77, i), variant=variant, run_id=i,
            )
            # JSON text, so that a NaN statistic compares equal to itself.
            assert json.dumps(run.to_dict()) == json.dumps(result.metrics.to_dict())
            expected_latencies += result.latencies
        assert len(latencies[variant]) == len(expected_latencies)


def test_run_study_of_no_variants_is_empty():
    assert run_study(default_scenario(), [], {}, None, eval_seed=0, shifts=2) == ({}, {})


def test_run_study_runs_from_a_script_without_a_main_guard(tmp_path):
    """A forked pool does not re-import the calling script, so a script that
    calls run_study at top level runs once and exits cleanly."""
    script = tmp_path / "study.py"
    script.write_text(
        "import os\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from mealtwin.evaluate import run_study\n"
        "from mealtwin.scenario import default_scenario\n"
        "runs, _ = run_study(default_scenario(), ['nearest_idle'], {}, None, 3, 2)\n"
        "assert [r.run_id for r in runs['nearest_idle']] == [0, 1]\n"
    )
    paths = (str(Path(mealtwin.evaluate.__file__).parents[1]), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()


def test_latency_p99_nearest_rank():
    assert latency_p99([]) == 0.0
    assert latency_p99([0.3]) == 0.3
    assert latency_p99(list(range(1, 101))) == 99
    assert latency_p99(list(range(1, 201))) == 198
    assert latency_p99([5.0, 1.0, 3.0]) == 5.0

"""Release acceptance gates.

Every test prints one ``ACCEPTANCE <gate>: PASS/FAIL`` line so the full
verdict can be read off a plain pytest run.  The directional gates train
the complete sandwich plans for three seeds and replay 100 matched-seed
evaluation shifts per framework variant, which takes several minutes;
set MEALTWIN_ACCEPTANCE_PLAN=ci to substitute the reduced 50/30/20
training plan when iterating.
"""

import math
import os
import time
from collections import deque
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mealtwin.cli import main as cli_main
from mealtwin.dispatch import (
    ConvDdqnPolicy,
    DispatchRewardParams,
    NearestIdlePolicy,
    reward_assign,
)
from mealtwin.evaluate import compare_frameworks, latency_p99, run_shift
from mealtwin.forecast import (
    OracleDemand,
    build_training_sets,
    evaluate as gbt_evaluate,
    persistence_eval,
    train_demand_models,
)
from mealtwin.hexgrid import AXIAL_DIRECTIONS, HexCoord, default_region, hex_distance
from mealtwin.rlcore import dispatch_qnet, loss_and_grad, steering_qnet
from mealtwin.scenario import (
    _sample_arrivals,
    default_scenario,
    make_rng,
    sample_prep,
    synth_history,
)
from mealtwin.simcore import MODE_MYOPIC, MODE_STRATEGIC, SimState
from mealtwin.steering import (
    SteerDdqnPolicy,
    apply_steer_decision,
    grid_neighborhood,
    reward_reallocate,
    slot_target,
)
from mealtwin.trainer import TrainingPlan, sandwich_train

from oracles import bandit_mdp, ddqn_toy_train, finite_difference_grad, tabular_q_learning

RELEASE_PLAN = (200, 150, 100)
CI_PLAN = (50, 30, 20)
EVAL_SHIFTS = 100
EVAL_SEED = 1000
TRAIN_SEEDS = (0, 1, 2)


def gate(name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {verdict} ({detail})")
    assert ok, f"{name}: {detail}"


def active_plan():
    if os.environ.get("MEALTWIN_ACCEPTANCE_PLAN", "").lower() == "ci":
        return CI_PLAN
    return RELEASE_PLAN


# ---------------------------------------------------------------- hex metric


def test_hex_metric_laws():
    started = time.perf_counter()
    region = default_region()
    n = len(region)
    for a in range(n):
        assert region.distance(a, a) == 0
        for b in range(n):
            d = region.distance(a, b)
            assert d == region.distance(b, a)
            assert (d == 0) == (a == b)
            for c in range(n):
                assert region.distance(a, c) <= d + region.distance(b, c)
    for a in range(n):
        for nid in region.neighbor_ids(a):
            if nid is not None:
                assert region.distance(a, nid) == 1

    # BFS on the unbounded lattice over the radius-6 disk around the origin.
    origin = HexCoord(0, 0)
    disk = [
        HexCoord(q, r)
        for q in range(-6, 7)
        for r in range(-6, 7)
        if hex_distance(origin, HexCoord(q, r)) <= 6
    ]
    cells = set(disk)
    pairs = 0
    for src in disk:
        dist = {src: 0}
        queue = deque([src])
        while queue:
            cur = queue.popleft()
            for dq, dr in AXIAL_DIRECTIONS:
                nxt = HexCoord(cur.q + dq, cur.r + dr)
                if nxt in cells and nxt not in dist:
                    dist[nxt] = dist[cur] + 1
                    queue.append(nxt)
        for dst in disk:
            # Every geodesic moves each cube coordinate monotonically, so it
            # stays inside the coordinate box of its endpoints and the disk
            # never truncates a shortest path: graph distance is exact.
            assert dist[dst] == hex_distance(src, dst)
            pairs += 1
    elapsed = time.perf_counter() - started
    gate(
        "hex-metric-laws",
        elapsed < 1.0,
        f"exhaustive 5x5 laws plus BFS over {pairs} disk pairs in {elapsed:.2f}s",
    )


# ---------------------------------------------------------------- gradients


def test_gradient_check():
    started = time.perf_counter()
    worst = {}
    for name, net in (
        ("dispatch", dispatch_qnet(25, rng=make_rng(20250801))),
        ("steering", steering_qnet(rng=make_rng(20250802))),
    ):
        rng = make_rng(20250803)
        probe_q, _ = net.forward_batch(rng.normal(size=(1, net.spec.input_dim)))
        n_actions = probe_q.shape[1]
        worst[name] = 0.0
        for _ in range(100):
            x = rng.normal(size=(1, net.spec.input_dim))
            action = rng.integers(n_actions, size=1)
            target = rng.normal(size=1)
            _, grad = loss_and_grad(net, x, action, target)
            fd = finite_difference_grad(net, x, action, target)
            denom = np.maximum(np.abs(grad) + np.abs(fd), 1e-8)
            worst[name] = max(worst[name], float(np.max(np.abs(grad - fd) / denom)))
    elapsed = time.perf_counter() - started
    ok = all(w < 1e-4 for w in worst.values()) and elapsed < 10.0
    gate(
        "gradient-check",
        ok,
        f"100 probes per net, max rel err dispatch {worst['dispatch']:.2e} / "
        f"steering {worst['steering']:.2e} in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- reward oracles


def test_reward_oracles():
    config = default_scenario(seed=0)
    params = DispatchRewardParams()
    predictor = OracleDemand(config)

    checked = [0, 0]
    mismatches = [0, 0]
    nearest = NearestIdlePolicy(params)

    def auditing_dispatch(sim, oid, remaining):
        order = sim.orders[oid]
        for c in sim.couriers:
            if c.delivery_task_count() >= sim.config.max_delivery_tasks:
                continue
            got, audit = reward_assign(sim, oid, c.id, params)
            g_future, d, arrival = sim.projected_arrival(c.id, order.restaurant)
            sd = float(sim.supply_demand_gap(g_future))
            gap = arrival - order.ready_time
            expect = (
                100.0
                + -5.0 * max(gap, 0.0)
                + -1.0 * max(-gap, 0.0)
                + -3.0 * d
                + (5.0 if sd > 0 else -5.0)
            )
            checked[0] += 1
            if got != expect or audit["reward"] != expect or audit["sd_gap"] != sd:
                mismatches[0] += 1
        nearest(sim, oid, remaining)

    def brute(region, field, origin, target):
        shifted = field.copy()
        shifted[origin] -= 1.0
        shifted[target] += 1.0
        around = grid_neighborhood(region, origin)
        total = 0.0
        for g in around:
            patch = grid_neighborhood(region, g)
            total += sum(shifted[p] for p in patch) - sum(field[p] for p in patch)
        return field[origin] - field[target] + total / len(around)

    def auditing_steer(sim, cid):
        origin = sim.couriers[cid].grid
        field = sim.gap_field().astype(np.float64)
        valid = [0]
        for slot in range(1, 7):
            if sim.region.neighbor_ids(origin)[slot - 1] is None:
                continue
            valid.append(slot)
            target = slot_target(sim, origin, slot)
            got = reward_reallocate(sim, origin, target)
            expect = brute(sim.region, field, origin, target)
            checked[1] += 1
            if got != expect:
                mismatches[1] += 1
        # Random moves keep later instances exploring fresh field shapes.
        apply_steer_decision(sim, cid, int(sim.rng_policy.choice(valid)))

    shift = 0
    while checked[0] < 1000 or checked[1] < 1000:
        sim = SimState(
            config, mode=MODE_STRATEGIC, predictor=predictor, seed_key=(90125, shift)
        )
        sim.run(auditing_dispatch, auditing_steer)
        shift += 1
        assert shift <= 10, "instance quota should be reached within a few shifts"
    ok = (
        mismatches == [0, 0]
        and checked[0] >= 1000
        and checked[1] >= 1000
    )
    gate(
        "reward-oracles",
        ok,
        f"dispatch {checked[0] - mismatches[0]}/{checked[0]} exact, "
        f"steering {checked[1] - mismatches[1]}/{checked[1]} exact over {shift} shifts",
    )


# ---------------------------------------------------------------- samplers


def test_sampler_statistics():
    config = default_scenario(seed=0)
    shifts = 2000
    rng = make_rng(20250804)
    totals = np.zeros(len(config.region), dtype=np.float64)
    for _ in range(shifts):
        for minute in range(config.shift_minutes):
            for origin, _household in _sample_arrivals(config, minute, rng):
                totals[origin] += 1.0
    worst_z = 0.0
    for gid in config.region.restaurant_ids:
        lam_shift = sum(
            config.rate_for(gid, config.hour_at(m)) / 60.0
            for m in range(config.shift_minutes)
        )
        se = math.sqrt(lam_shift / shifts)
        z = abs(totals[gid] / shifts - lam_shift) / se
        worst_z = max(worst_z, z)
    arrivals_ok = worst_z <= 3.0

    rng = make_rng(20250805)
    draws = 100_000
    est = np.empty(draws)
    dev = np.empty(draws)
    for i in range(draws):
        e, a = sample_prep(config, rng)
        est[i] = e
        dev[i] = a - e
    prep_mean = float(est.mean())
    dev_var = float(dev.var())
    prep_ok = 9.97 <= prep_mean <= 10.03 and 0.97 <= dev_var <= 1.03
    gate(
        "sampler-statistics",
        arrivals_ok and prep_ok,
        f"worst per-grid arrival z {worst_z:.2f} over {shifts} shifts; "
        f"prep mean {prep_mean:.4f}, deviation var {dev_var:.4f}",
    )


# ---------------------------------------------------------------- toy DDQN


def test_ddqn_validity():
    started = time.perf_counter()
    trials = 20
    net_correct = 0
    oracle_correct = 0
    agree = 0
    for k in range(trials):
        mdp = bandit_mdp()
        net = ddqn_toy_train(mdp, make_rng(20250806, k), updates=2000)
        q = net.forward(np.eye(mdp.n_states)[0])
        greedy = int(np.argmax(q))
        table = tabular_q_learning(mdp, 2000, make_rng(20250807, k))
        oracle = int(np.argmax(table[0]))
        net_correct += greedy == 0
        oracle_correct += oracle == 0
        agree += greedy == oracle
    elapsed = time.perf_counter() - started
    ok = (
        net_correct / trials >= 0.95
        and oracle_correct == trials
        and agree / trials >= 0.95
        and elapsed < 30.0
    )
    gate(
        "ddqn-validity",
        ok,
        f"bandit greedy-correct {net_correct}/{trials}, tabular oracle "
        f"{oracle_correct}/{trials}, agreement {agree}/{trials} in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- determinism


def _pipeline(root: Path) -> dict:
    root.mkdir(parents=True, exist_ok=True)
    scenario = root / "scenario.json"
    assert cli_main(["gen-scenario", "--out", str(scenario)]) == 0
    for mode in ("strategic", "myopic"):
        code = cli_main(
            [
                "train",
                "--scenario",
                str(scenario),
                "--mode",
                mode,
                "--episodes",
                "3,2,2",
                "--seed",
                "5",
                "--outdir",
                str(root / f"weights_{mode}"),
            ]
        )
        assert code == 0
    code = cli_main(
        [
            "evaluate",
            "--scenario",
            str(scenario),
            "--shifts",
            "3",
            "--eval-seed",
            "77",
            "--outdir",
            str(root / "eval"),
            "--strategic-dispatch",
            str(root / "weights_strategic" / "dispatch.json"),
            "--strategic-steering",
            str(root / "weights_strategic" / "steering.json"),
            "--myopic-dispatch",
            str(root / "weights_myopic" / "dispatch.json"),
            "--myopic-steering",
            str(root / "weights_myopic" / "steering.json"),
        ]
    )
    assert code == 0
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_determinism(tmp_path):
    first = _pipeline(tmp_path / "run1")
    second = _pipeline(tmp_path / "run2")
    same_names = sorted(first) == sorted(second)
    diffs = [name for name in first if second.get(name) != first[name]]
    gate(
        "determinism",
        same_names and not diffs,
        f"{len(first)} artifacts byte-identical across two train+evaluate runs"
        + (f"; differing: {diffs}" if diffs else ""),
    )


# ---------------------------------------------------------------- forecaster


def test_forecaster_holdout():
    config = default_scenario(seed=0)
    wins = 0
    details = []
    for seed in TRAIN_SEEDS:
        history = synth_history(config, 8, make_rng(seed, 17))
        days = sorted({r.when.date() for r in history})
        cut = days[6]
        train = [r for r in history if r.when.date() < cut]
        holdout = [r for r in history if r.when.date() >= cut]
        models = train_demand_models(train, config)
        total = 0
        model_abs = 0.0
        base_abs = 0.0
        for gid, (X, y) in sorted(build_training_sets(holdout, config).items()):
            mae, _ = gbt_evaluate(models[gid], X, y)
            base_mae, _ = persistence_eval(X, y)
            total += len(y)
            model_abs += mae * len(y)
            base_abs += base_mae * len(y)
        model_mae = model_abs / total
        base_mae = base_abs / total
        wins += model_mae <= base_mae
        details.append(f"seed {seed}: {model_mae:.3f} vs {base_mae:.3f}")
    gate(
        "forecaster-holdout",
        wins >= 2,
        f"boosted MAE <= persistence on {wins}/3 holdouts ({'; '.join(details)})",
    )


# ---------------------------------------------------------------- trained study


@pytest.fixture(scope="module")
def study():
    config = default_scenario(seed=0)
    predictor = OracleDemand(config)
    params = DispatchRewardParams()
    plan = active_plan()

    def evaluate_variant(name, mode, dispatch_net, steering_net, pred):
        runs, latencies = [], []
        for i in range(EVAL_SHIFTS):
            dispatch = (
                NearestIdlePolicy(params)
                if dispatch_net is None
                else ConvDdqnPolicy(dispatch_net, params)
            )
            steer = None if steering_net is None else SteerDdqnPolicy(steering_net)
            result = run_shift(
                config, mode, dispatch, steer, pred,
                seed_key=(EVAL_SEED, i), variant=name, run_id=i,
            )
            runs.append(result.metrics)
            latencies.extend(result.latencies)
        return runs, latencies

    def aggregates(runs):
        report = compare_frameworks({"v": runs}, variants=("v",))
        return {name: cell["avg"] for name, cell in report.aggregates["v"].items()}

    ni_started = time.perf_counter()
    ni_runs, ni_latencies = evaluate_variant("nearest_idle", MODE_MYOPIC, None, None, None)
    ni_seconds = time.perf_counter() - ni_started

    seeds = {}
    for seed in TRAIN_SEEDS:
        strat_d, strat_s, _ = sandwich_train(
            TrainingPlan(episodes=plan, seed=seed, mode=MODE_STRATEGIC), config, predictor
        )
        myo_d, _myo_s, _ = sandwich_train(
            TrainingPlan(episodes=plan, seed=seed, mode=MODE_MYOPIC), config, None
        )
        strategic_runs, strategic_lat = evaluate_variant(
            "strategic", MODE_STRATEGIC, strat_d, None, predictor
        )
        myopic_runs, _ = evaluate_variant("myopic", MODE_MYOPIC, myo_d, None, None)
        steered_runs, steered_lat = evaluate_variant(
            "strategic+steer", MODE_STRATEGIC, strat_d, strat_s, predictor
        )
        seeds[seed] = SimpleNamespace(
            strategic=aggregates(strategic_runs),
            myopic=aggregates(myopic_runs),
            steered=aggregates(steered_runs),
            latencies=strategic_lat + steered_lat,
        )
    return SimpleNamespace(
        plan=plan,
        ni=aggregates(ni_runs),
        ni_seconds=ni_seconds,
        ni_latencies=ni_latencies,
        seeds=seeds,
    )


def test_nearest_idle_baseline(study):
    gap = study.ni["time_gap_mean"]
    overdue = study.ni["overdue_rate"]
    ok = overdue == 0.0 and -8.0 <= gap <= -1.0 and study.ni_seconds < 300.0
    gate(
        "nearest-idle-baseline",
        ok,
        f"gap {gap:.2f} min, overdue {overdue:.2%}, "
        f"{EVAL_SHIFTS} shifts in {study.ni_seconds:.0f}s",
    )


def test_trained_dispatch(study):
    verdicts = []
    details = []
    for seed, cell in study.seeds.items():
        gap = cell.strategic["time_gap_mean"]
        overdue = cell.strategic["overdue_rate"]
        verdicts.append(gap < 0.0 and overdue <= 0.01)
        details.append(f"seed {seed}: gap {gap:.2f}, overdue {overdue:.2%}")
    gate(
        "trained-dispatch",
        sum(verdicts) >= 2,
        f"negative gap and overdue <= 1% on {sum(verdicts)}/3 seeds "
        f"({'; '.join(details)}; plan {study.plan})",
    )


def test_strategic_vs_myopic_pickup(study):
    verdicts = []
    details = []
    for seed, cell in study.seeds.items():
        strategic = cell.strategic["pickup_distance_mean"]
        myopic = cell.myopic["pickup_distance_mean"]
        verdicts.append(strategic <= myopic)
        details.append(f"seed {seed}: {strategic:.3f} vs {myopic:.3f}")
    gate(
        "strategic-vs-myopic",
        sum(verdicts) >= 2,
        f"strategic pickup <= myopic on {sum(verdicts)}/3 seeds "
        f"({'; '.join(details)}; plan {study.plan})",
    )


def test_steering_effect(study):
    verdicts = []
    details = []
    for seed, cell in study.seeds.items():
        pickup_drop = (
            cell.steered["pickup_distance_mean"] < cell.strategic["pickup_distance_mean"]
        )
        std_before = cell.strategic["courier_distance_std"]
        std_after = cell.steered["courier_distance_std"]
        std_drop = 1.0 - std_after / std_before
        travel_up = (
            cell.steered["courier_distance_mean"] > cell.strategic["courier_distance_mean"]
        )
        verdicts.append(pickup_drop and std_drop >= 0.10 and travel_up)
        details.append(
            f"seed {seed}: pickup {cell.strategic['pickup_distance_mean']:.3f}->"
            f"{cell.steered['pickup_distance_mean']:.3f}, travel std drop {std_drop:.0%}, "
            f"travel mean {cell.strategic['courier_distance_mean']:.1f}->"
            f"{cell.steered['courier_distance_mean']:.1f}"
        )
    gate(
        "steering-effect",
        sum(verdicts) >= 2,
        f"steering helps on {sum(verdicts)}/3 seeds ({'; '.join(details)})",
    )


def test_decision_latency(study):
    worst = 0.0
    for cell in study.seeds.values():
        worst = max(worst, latency_p99(cell.latencies))
    worst = max(worst, latency_p99(study.ni_latencies))
    gate(
        "decision-latency",
        worst < 0.1,
        f"p99 decision latency {worst * 1e3:.2f} ms across all evaluation runs",
    )

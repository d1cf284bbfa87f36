"""The benchmark's three workloads: train, eval and city.

Each workload has a set-up, which builds the program objects from the pinned
inputs, and a unit of work, which the runner repeats.  A unit counts its
operations (shifts or training episodes), the ones that failed an output
check, and digests of the artifacts it wrote.  Why each workload exists is
written in README.md beside this file.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import traceback
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from mealtwin import evaluate, forecast, rlcore, scenario, simcore, trainer
from mealtwin.cli import VARIANT_SETUP
from mealtwin.dispatch import ConvDdqnPolicy, DispatchRewardParams, NearestIdlePolicy
from mealtwin.steering import SteerDdqnPolicy

from spans import Traffic, patched

INPUTS = Path(__file__).resolve().parent / "inputs"


class InputError(Exception):
    """A pinned input is missing or differs from the manifest."""


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def verify_inputs(names: Sequence[str]) -> None:
    """Check each pinned input against the SHA-256 in inputs/MANIFEST.json."""
    manifest = json.loads((INPUTS / "MANIFEST.json").read_text())["sha256"]
    for name in names:
        path = INPUTS / name
        if not path.is_file():
            raise InputError(f"pinned input {name} is missing")
        if file_digest(path) != manifest[name]:
            raise InputError(f"pinned input {name} does not match its manifest digest")


def events_digest(events: Sequence[simcore.Event]) -> str:
    """Digest of an event log, independent of the program's CSV writer."""
    h = hashlib.sha256()
    for ev in events:
        row = [ev.minute, ev.entity, ev.event, ev.detail]
        h.update(json.dumps(row, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def has_nan(metrics: evaluate.RunMetrics) -> bool:
    for value in metrics.to_dict().values():
        values = value if isinstance(value, list) else [value]
        if any(isinstance(v, float) and math.isnan(v) for v in values):
            return True
    return False


def timed(policy: Optional[Callable], latencies: List[float]) -> Optional[Callable]:
    """Wrap a decision callable so that each call's wall time is recorded."""
    if policy is None:
        return None
    clock = time.perf_counter

    def decide(*args):
        t0 = clock()
        policy(*args)
        latencies.append(clock() - t0)

    return decide


@dataclass
class UnitResult:
    attempted: int = 0
    failed: int = 0
    digests: Dict[str, str] = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)


def checked_shift(
    unit: UnitResult,
    traffic: Traffic,
    latencies: List[float],
    config,
    mode: str,
    dispatch_policy,
    steer_policy,
    predictor,
    seed_key: Tuple[int, ...],
    variant: str,
    run_id: int,
) -> Optional[evaluate.ShiftResult]:
    """One shift through evaluate.run_shift with the per-shift output checks.

    Returns None, and counts the shift as failed, when it raises, loses
    orders, or yields NaN metrics."""
    unit.attempted += 1
    unbalanced = traffic.unbalanced_shifts
    try:
        result = evaluate.run_shift(
            config,
            mode,
            timed(dispatch_policy, latencies),
            timed(steer_policy, latencies),
            predictor,
            seed_key=seed_key,
            variant=variant,
            run_id=run_id,
        )
    except Exception:
        traceback.print_exc()
        unit.failed += 1
        return None
    problems = []
    if traffic.unbalanced_shifts != unbalanced:
        problems.append("orders not conserved")
    if has_nan(result.metrics):
        problems.append("NaN in run metrics")
    if problems:
        print(f"{variant} shift {seed_key}: {', '.join(problems)}", flush=True)
        unit.failed += 1
        return None
    return result


class Train:
    """Sandwich training from fresh seeded nets on the default scenario,
    once per mode, with the `mealtwin train` forecaster defaults."""

    name = "train"
    inputs = ("default.json",)

    def __init__(self, episodes: Tuple[int, int, int] = (10, 10, 10)):
        # Every phase stays below the 40-episode convergence check, so the
        # amount of work does not depend on what the learner does.
        self.episodes = episodes

    def setup(self, seed: int):
        config = scenario.load_scenario(INPUTS / "default.json")
        return SimpleNamespace(
            config=config,
            predictors={
                simcore.MODE_STRATEGIC: forecast.OracleDemand(config),
                simcore.MODE_MYOPIC: None,
            },
        )

    def unit(self, state, seed, index, outdir: Path, latencies, traffic) -> UnitResult:
        unit = UnitResult()
        for mode, predictor in state.predictors.items():
            plan = trainer.TrainingPlan(episodes=self.episodes, seed=seed * 1000 + index, mode=mode)
            planned = sum(plan.episodes)
            unit.attempted += planned
            unbalanced = traffic.unbalanced_shifts
            try:
                with timed_steps(latencies):
                    dispatch_net, steering_net, report = trainer.sandwich_train(
                        plan, state.config, predictor
                    )
            except Exception:
                traceback.print_exc()
                unit.failed += planned
                continue
            # An aborted phase loses the rest of its episodes.
            lost = sum(p.planned - p.executed for p in report.phases if p.aborted)
            unit.failed += lost + traffic.unbalanced_shifts - unbalanced
            unit.counts["trainer.episodes"] += sum(p.executed for p in report.phases)
            unit.counts["trainer.learn_updates"] += sum(
                p.episodes[-1].learn_updates for p in report.phases if p.episodes
            )
            target = outdir / mode
            target.mkdir(parents=True, exist_ok=True)
            meta = {"mode": mode, "seed": plan.seed, "episodes": list(plan.episodes)}
            rlcore.save_qnet(target / "dispatch.json", dispatch_net, meta={**meta, "kind": "dispatch"})
            rlcore.save_qnet(target / "steering.json", steering_net, meta={**meta, "kind": "steering"})
            trainer.save_training_report(target / "training_report.json", report)
            for artifact in ("dispatch.json", "steering.json", "training_report.json"):
                unit.digests[f"{mode}/{artifact}"] = file_digest(target / artifact)
        return unit


@contextmanager
def timed_steps(latencies: List[float]) -> Iterator[None]:
    """Time every decision made inside SimState.step.

    Training builds its decision callables inside the trainer, so the
    benchmark reaches them where the simulator receives them."""

    def make(step):
        def timed_step(sim, dispatch_fn, steer_fn=None):
            return step(sim, timed(dispatch_fn, latencies), timed(steer_fn, latencies))

        return timed_step

    with patched(simcore.SimState, "step", make):
        yield


EVAL_WEIGHTS = {
    "strategic_dispatch": "strategic/dispatch.json",
    "strategic_steering": "strategic/steering.json",
    "myopic_dispatch": "myopic/dispatch.json",
    "myopic_steering": "myopic/steering.json",
}


def policies(variant: str, nets: Dict[str, rlcore.QNet]):
    """Mode and policy pair of a framework variant, as `mealtwin evaluate`
    builds them."""
    mode, dispatch_slot, steer_slot = VARIANT_SETUP[variant]
    params = DispatchRewardParams()
    if dispatch_slot is None:
        dispatch_policy = NearestIdlePolicy(params)
    else:
        dispatch_policy = ConvDdqnPolicy(nets[dispatch_slot], params)
    steer_policy = SteerDdqnPolicy(nets[steer_slot]) if steer_slot else None
    return mode, dispatch_policy, steer_policy


class Eval:
    """The six-variant study on the default scenario with pinned trained
    weights and a GBT forecaster fit from synthesized history."""

    name = "eval"
    inputs = ("default.json", *EVAL_WEIGHTS.values())

    def __init__(self, shifts: int = evaluate.MIN_RUNS_FOR_EXCLUSION, weeks: int = 6):
        # At least 20 shifts per variant, or exclude_outliers skips exclusion
        # and the study takes another path than the release study.
        self.shifts = shifts
        self.weeks = weeks

    def setup(self, seed: int):
        config = scenario.load_scenario(INPUTS / "default.json")
        nets = {slot: rlcore.load_qnet(INPUTS / path)[0] for slot, path in EVAL_WEIGHTS.items()}
        history = scenario.synth_history(config, self.weeks, scenario.make_rng(seed, 17))
        models = forecast.train_demand_models(history, config)
        return SimpleNamespace(
            config=config, nets=nets, predictor=forecast.GbtDemand(models, config)
        )

    def unit(self, state, seed, index, outdir: Path, latencies, traffic) -> UnitResult:
        unit = UnitResult()
        config = state.config
        eval_seed = seed * 1000 + index
        runs: Dict[str, List[evaluate.RunMetrics]] = {}
        for variant in evaluate.VARIANTS:
            mode, dispatch_policy, steer_policy = policies(variant, state.nets)
            predictor = state.predictor if mode == simcore.MODE_STRATEGIC else None
            runs[variant] = []
            for i in range(self.shifts):
                result = checked_shift(
                    unit, traffic, latencies, config, mode, dispatch_policy, steer_policy,
                    predictor, (eval_seed, i), variant, i,
                )
                if result is None:
                    continue
                if i == 0:
                    if not self._replays(result, outdir / f"events_{variant}.csv", config):
                        print(f"{variant}: replayed event log gives other metrics", flush=True)
                        unit.failed += 1
                        continue
                    if index == 0:
                        unit.digests[f"events/{variant}"] = events_digest(result.events)
                runs[variant].append(result.metrics)
        try:
            report = evaluate.compare_frameworks(runs, variants=evaluate.VARIANTS)
            evaluate.save_comparison(outdir / "comparison.json", report)
            evaluate.write_metrics_csv(outdir / "metrics.csv", report)
            evaluate.write_pvalues_csv(outdir / "pvalues_time_gap.csv", report)
        except Exception:
            traceback.print_exc()
            unit.failed = unit.attempted
            return unit
        unit.digests["comparison.json"] = file_digest(outdir / "comparison.json")
        return unit

    @staticmethod
    def _replays(result: evaluate.ShiftResult, path: Path, config) -> bool:
        """events_to_csv -> events_from_csv -> compute_metrics equals the
        metrics computed from the live log."""
        simcore.events_to_csv(result.events, path)
        m = result.metrics
        replayed = evaluate.compute_metrics(
            simcore.events_from_csv(path), config.fleet_size, m.variant, m.run_id
        )
        return replayed.to_dict() == m.to_dict()


class City:
    """strategic+steer shifts on a region four times the default, with
    pinned trained weights and the oracle forecaster."""

    name = "city"
    inputs = ("city.json", "city/dispatch.json", "city/steering.json")
    variant = "strategic+steer"

    def setup(self, seed: int):
        config = scenario.load_scenario(INPUTS / "city.json")
        return SimpleNamespace(
            config=config,
            dispatch_net=rlcore.load_qnet(INPUTS / "city/dispatch.json")[0],
            steering_net=rlcore.load_qnet(INPUTS / "city/steering.json")[0],
            predictor=forecast.OracleDemand(config),
        )

    def unit(self, state, seed, index, outdir: Path, latencies, traffic) -> UnitResult:
        unit = UnitResult()
        result = checked_shift(
            unit,
            traffic,
            latencies,
            state.config,
            simcore.MODE_STRATEGIC,
            ConvDdqnPolicy(state.dispatch_net, DispatchRewardParams()),
            SteerDdqnPolicy(state.steering_net),
            state.predictor,
            (seed, index),
            self.variant,
            index,
        )
        if result is not None and index == 0:
            unit.digests["events/city"] = events_digest(result.events)
        return unit


WORKLOADS = {w.name: w for w in (Train, Eval, City)}

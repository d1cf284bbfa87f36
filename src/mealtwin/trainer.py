"""Sandwich training: dispatch first, then steering, then dispatch again.

The two policies are never trained simultaneously.  Phase 1 trains the
dispatching network in an environment without steering.  Phase 2 freezes it
and trains the steering network against greedy dispatching.  Phase 3 freezes
steering and fine-tunes dispatching with a reduced exploration schedule.
Every phase decides with the policy classes that evaluation runs; the
network being trained gets a learner attached, which sets its exploration
rate and records its transitions.  Each phase owns fresh learner state
(replay buffer, optimizer, target net, epsilon counter); converged phases
stop at their planned episode count, unconverged ones extend in blocks up to
twice the plan.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

import json

import numpy as np

from . import dispatch as dsp
from . import steering as steer
from .errors import ConfigError, ContractError, NumericalError
from .rlcore import (
    BATCH_SIZE,
    EPSILON_START,
    LEARN_PERIOD_STEPS,
    REPLAY_CAPACITY,
    Adam,
    QNet,
    ReplayBuffer,
    dispatch_qnet,
    epsilon_schedule,
    learn,
    maybe_sync_target,
    steering_qnet,
)
from .scenario import ScenarioConfig, make_rng
from .simcore import MODE_STRATEGIC, SimState

TRAINING_REPORT_SCHEMA = "mealtwin-training-report/1"

PHASE_DISPATCH = "dispatch"
PHASE_STEERING = "steering"

# The window and threshold of each phase's convergence_check, and the
# episodes an unconverged phase extends by at a time, up to twice its plan.
CONVERGENCE_WINDOW = 20
CONVERGENCE_THRESHOLD = 0.05
EXTENSION_BLOCK = 25
PHASE3_EPSILON_SCALE = 0.25  # phase 3 starts exploring at this share of EPSILON_START


@dataclass(frozen=True)
class TrainingPlan:
    episodes: Tuple[int, int, int] = (200, 150, 100)
    seed: int = 0
    mode: str = MODE_STRATEGIC

    def __post_init__(self) -> None:
        if any(r < 1 for r in self.episodes):
            raise ConfigError("every phase needs at least one episode")
        if len(self.episodes) != 3:
            raise ConfigError("the sandwich has exactly three phases")


@dataclass
class EpisodeRecord:
    index: int
    ret: float
    mean_loss: Optional[float]
    epsilon: float
    learn_updates: int
    dispatch_hash: str
    steering_hash: str


@dataclass
class PhaseReport:
    name: str
    trains: str
    planned: int
    executed: int = 0
    converged: Optional[bool] = None
    aborted: Optional[str] = None
    episodes: List[EpisodeRecord] = field(default_factory=list)

    @property
    def returns(self) -> List[float]:
        return [e.ret for e in self.episodes]


@dataclass
class TrainingReport:
    mode: str
    seed: int
    planned_episodes: Tuple[int, int, int]
    phases: List[PhaseReport] = field(default_factory=list)


def convergence_check(series: List[float], window: int, threshold: float) -> bool:
    """Converged when the last window's mean return moved no more than the
    threshold fraction relative to the previous window's mean."""
    if len(series) < 2 * window:
        raise ContractError(
            f"need at least {2 * window} episodes to test convergence, have {len(series)}"
        )
    prev = float(np.mean(series[-2 * window : -window]))
    last = float(np.mean(series[-window:]))
    return abs(last - prev) <= threshold * abs(prev)


def param_hash(net: QNet) -> str:
    return hashlib.sha256(net.params.tobytes()).hexdigest()[:16]


class _Learner:
    """Mutable per-phase training state for one value network."""

    def __init__(self, net: QNet, plan: TrainingPlan, phase_index: int, epsilon_start: float):
        self.net = net
        self.target = net.clone()
        self.buffer = ReplayBuffer(REPLAY_CAPACITY, net.spec.input_dim, net.num_actions)
        self.adam = Adam(net.params.size)
        self.rng = make_rng(plan.seed, 91, phase_index)
        self.epsilon_start = epsilon_start
        self.learn_updates = 0
        self.decisions = 0
        self.env_steps = 0
        self.episode_return = 0.0
        self.losses: List[float] = []

    def epsilon(self) -> float:
        return epsilon_schedule(self.learn_updates, start=self.epsilon_start)

    def record(
        self,
        s: np.ndarray,
        a: int,
        r: float,
        s2: np.ndarray,
        done: bool,
        mask2: np.ndarray,
        raw_reward: float,
    ) -> None:
        """Push one decision of the training policy into replay, with `r` as
        its buffer reward, and count it toward the target sync and the
        episode's raw-reward return."""
        self.buffer.push(s, a, r, s2, done, mask2)
        self.decisions += 1
        maybe_sync_target(self.net, self.target, self.decisions)
        self.episode_return += raw_reward

    def after_env_step(self) -> None:
        self.env_steps += 1
        if self.env_steps % LEARN_PERIOD_STEPS != 0:
            return
        if len(self.buffer) < BATCH_SIZE:
            return
        batch = self.buffer.sample(BATCH_SIZE, self.rng)
        loss = learn(self.net, self.target, batch, self.adam)
        self.learn_updates += 1
        self.losses.append(loss)


def _run_phase(
    report: TrainingReport,
    plan: TrainingPlan,
    config: ScenarioConfig,
    predictor,
    phase_index: int,
    trains: str,
    epsilon_start: float,
    dispatch_net: QNet,
    steering_net: QNet,
) -> None:
    """Train the `trains` network with a fresh learner while the other one
    decides greedily; the first phase runs without steering."""
    planned = plan.episodes[phase_index]
    steers = trains == PHASE_STEERING
    learner = _Learner(steering_net if steers else dispatch_net, plan, phase_index, epsilon_start)
    dispatch_policy = dsp.ConvDdqnPolicy(dispatch_net, learner=None if steers else learner)
    steer_policy = None
    if phase_index > 0:
        steer_policy = steer.SteerDdqnPolicy(steering_net, learner if steers else None)
    phase = PhaseReport(name=f"phase{phase_index + 1}", trains=trains, planned=planned)
    report.phases.append(phase)
    window = CONVERGENCE_WINDOW
    budget = planned
    episode = 0
    while episode < budget:
        learner.episode_return = 0.0
        sim = SimState(
            config,
            mode=plan.mode,
            predictor=predictor,
            seed_key=(plan.seed, phase_index, episode),
        )
        losses_before = len(learner.losses)
        try:
            for _ in range(config.shift_minutes):
                sim.step(dispatch_policy, steer_policy)
                learner.after_env_step()
            sim.finish()
        except NumericalError as exc:
            phase.aborted = str(exc)
            break
        new_losses = learner.losses[losses_before:]
        phase.episodes.append(
            EpisodeRecord(
                index=episode,
                ret=learner.episode_return,
                mean_loss=float(np.mean(new_losses)) if new_losses else None,
                epsilon=learner.epsilon(),
                learn_updates=learner.learn_updates,
                dispatch_hash=param_hash(dispatch_net),
                steering_hash=param_hash(steering_net),
            )
        )
        episode += 1
        if episode == budget and len(phase.returns) >= 2 * window:
            phase.converged = convergence_check(phase.returns, window, CONVERGENCE_THRESHOLD)
            if not phase.converged and budget < 2 * planned:
                budget = min(budget + EXTENSION_BLOCK, 2 * planned)
    phase.executed = episode


def sandwich_train(
    plan: TrainingPlan,
    config: ScenarioConfig,
    predictor=None,
) -> Tuple[QNet, QNet, TrainingReport]:
    """Run the three training phases and return both trained networks."""
    dispatch_net = dispatch_qnet(config.fleet_size, rng=make_rng(plan.seed, 7))
    steering_net = steering_qnet(rng=make_rng(plan.seed, 8))
    report = TrainingReport(mode=plan.mode, seed=plan.seed, planned_episodes=plan.episodes)
    schedule = (
        (PHASE_DISPATCH, EPSILON_START),
        (PHASE_STEERING, EPSILON_START),
        (PHASE_DISPATCH, EPSILON_START * PHASE3_EPSILON_SCALE),
    )
    for phase_index, (trains, epsilon_start) in enumerate(schedule):
        _run_phase(
            report,
            plan,
            config,
            predictor,
            phase_index,
            trains,
            epsilon_start,
            dispatch_net,
            steering_net,
        )
    return dispatch_net, steering_net, report


def report_to_dict(report: TrainingReport) -> dict:
    return {
        "schema": TRAINING_REPORT_SCHEMA,
        "mode": report.mode,
        "seed": report.seed,
        "planned_episodes": list(report.planned_episodes),
        "phases": [
            {
                "name": p.name,
                "trains": p.trains,
                "planned": p.planned,
                "executed": p.executed,
                "converged": p.converged,
                "aborted": p.aborted,
                "episodes": [
                    {
                        "index": e.index,
                        "return": e.ret,
                        "mean_loss": e.mean_loss,
                        "epsilon": e.epsilon,
                        "learn_updates": e.learn_updates,
                        "dispatch_hash": e.dispatch_hash,
                        "steering_hash": e.steering_hash,
                    }
                    for e in p.episodes
                ],
            }
            for p in report.phases
        ],
    }


def save_training_report(path: Path, report: TrainingReport) -> None:
    with open(path, "w") as fh:
        json.dump(report_to_dict(report), fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_return_series(path: Path, report: TrainingReport) -> None:
    """Per-episode return series as CSV: phase,episode,return,epsilon,mean_loss."""
    with open(path, "w") as fh:
        fh.write("phase,episode,return,epsilon,mean_loss\n")
        for p in report.phases:
            for e in p.episodes:
                loss = "" if e.mean_loss is None else repr(e.mean_loss)
                fh.write(f"{p.name},{e.index},{e.ret!r},{e.epsilon!r},{loss}\n")

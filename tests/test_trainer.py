"""Sandwich training tests on deliberately tiny episode plans.

Default windows (20 episodes) never fill here, so convergence stays None
unless a test shrinks the window to force the extension logic.
"""

import json

import numpy as np
import pytest

import oracles
from mealtwin import trainer
from mealtwin.errors import ConfigError, ContractError
from mealtwin.forecast import OracleDemand
from mealtwin.rlcore import EPSILON_START, dispatch_qnet
from mealtwin.scenario import default_scenario, make_rng
from mealtwin.simcore import MODE_MYOPIC, MODE_STRATEGIC
from mealtwin.trainer import (
    PHASE_DISPATCH,
    PHASE_STEERING,
    TRAINING_REPORT_SCHEMA,
    TrainingPlan,
    convergence_check,
    param_hash,
    report_to_dict,
    sandwich_train,
    save_training_report,
    write_return_series,
)


@pytest.fixture(scope="module")
def tiny_run():
    plan = TrainingPlan(episodes=(4, 3, 2), seed=11)
    config = default_scenario(seed=11)
    return plan, sandwich_train(plan, config)


def test_plan_validation():
    with pytest.raises(ConfigError):
        TrainingPlan(episodes=(10, 10))
    with pytest.raises(ConfigError):
        TrainingPlan(episodes=(10, 0, 10))
    plan = TrainingPlan()
    assert plan.episodes == (200, 150, 100)
    assert trainer.PHASE3_EPSILON_SCALE == 0.25
    assert trainer.CONVERGENCE_WINDOW == 20


def test_convergence_check_hand_cases():
    flat = [10.0] * 20 + [10.4] * 20
    assert convergence_check(flat, 20, 0.05)  # 0.4 <= 0.5
    moved = [10.0] * 20 + [10.6] * 20
    assert not convergence_check(moved, 20, 0.05)
    negative = [-10.0] * 20 + [-10.4] * 20
    assert convergence_check(negative, 20, 0.05)  # relative to |prev|
    assert convergence_check([5.0, 5.0, 7.0, 7.0, 7.05, 6.95], 2, 0.05)
    with pytest.raises(ContractError):
        convergence_check([1.0] * 39, 20, 0.05)


def test_param_hash_tracks_parameters():
    net = dispatch_qnet(3, rng=make_rng(0))
    h = param_hash(net)
    assert len(h) == 16 and int(h, 16) >= 0
    assert param_hash(net.clone()) == h
    net.params[0] += 1.0
    assert param_hash(net) != h


def test_sandwich_phase_structure(tiny_run):
    plan, (dispatch_net, steering_net, report) = tiny_run
    assert [p.name for p in report.phases] == ["phase1", "phase2", "phase3"]
    assert [p.trains for p in report.phases] == [
        PHASE_DISPATCH,
        PHASE_STEERING,
        PHASE_DISPATCH,
    ]
    for p, planned in zip(report.phases, plan.episodes):
        assert p.planned == planned and p.executed == planned
        assert p.aborted is None and p.converged is None  # window never fills
        assert [e.index for e in p.episodes] == list(range(planned))
        assert p.returns == [e.ret for e in p.episodes]
    assert param_hash(dispatch_net) == report.phases[2].episodes[-1].dispatch_hash
    assert param_hash(steering_net) == report.phases[2].episodes[-1].steering_hash


def test_each_phase_trains_only_its_network(tiny_run):
    _, (_, _, report) = tiny_run
    p1, p2, p3 = report.phases
    # Steering must sit untouched while dispatch trains, and vice versa.
    assert len({e.steering_hash for e in p1.episodes}) == 1
    assert len({e.dispatch_hash for e in p2.episodes}) == 1
    assert len({e.steering_hash for e in p3.episodes}) == 1
    assert p2.episodes[0].dispatch_hash == p1.episodes[-1].dispatch_hash
    assert p3.episodes[0].steering_hash == p2.episodes[-1].steering_hash
    # Enough replay accumulates by the final phase-1 episode to learn.
    assert p1.episodes[-1].learn_updates > 0
    assert p1.episodes[-1].dispatch_hash != p1.episodes[0].dispatch_hash
    assert p2.episodes[-1].steering_hash != p2.episodes[0].steering_hash


def test_epsilon_resets_fresh_each_phase(tiny_run):
    _, (_, _, report) = tiny_run
    p1, _, p3 = report.phases
    # No learn updates happen inside episode 0, so the recorded epsilon is
    # still the phase's starting value.
    phase3_start = EPSILON_START * trainer.PHASE3_EPSILON_SCALE
    assert p1.episodes[0].epsilon == EPSILON_START
    assert p3.episodes[0].epsilon == phase3_start
    for e in p3.episodes:
        assert e.epsilon <= phase3_start


def test_returns_are_raw_reward_units(tiny_run):
    _, (_, _, report) = tiny_run
    # A shift sees on the order of a hundred orders, each worth around the
    # base reward, so per-episode returns are in the thousands.
    for ret in report.phases[0].returns:
        assert 1000.0 < ret < 20000.0


def test_training_is_reproducible():
    plan = TrainingPlan(episodes=(3, 2, 2), seed=21)
    config = default_scenario(seed=21)
    d1, s1, r1 = sandwich_train(plan, config)
    d2, s2, r2 = sandwich_train(plan, config)
    np.testing.assert_array_equal(d1.params, d2.params)
    np.testing.assert_array_equal(s1.params, s2.params)
    assert report_to_dict(r1) == report_to_dict(r2)


@pytest.mark.parametrize("mode", [MODE_STRATEGIC, MODE_MYOPIC])
def test_array_replay_trains_as_list_ring(mode, monkeypatch, tmp_path):
    """The sandwich gives the same weights and report bytes whether its
    learners replay from the array ring or from the list-of-records oracle."""
    plan = TrainingPlan(episodes=(3, 2, 2), seed=4, mode=mode)
    config = default_scenario(seed=4)
    predictor = OracleDemand(config) if mode == MODE_STRATEGIC else None

    def train(name):
        dispatch_net, steering_net, report = sandwich_train(plan, config, predictor)
        path = tmp_path / f"{name}.json"
        save_training_report(path, report)
        assert all(p.episodes[-1].learn_updates > 0 for p in report.phases)
        return dispatch_net.params, steering_net.params, path.read_bytes()

    arrays = train("arrays")
    monkeypatch.setattr(trainer, "ReplayBuffer", oracles.ListReplayBuffer)
    records = train("records")
    np.testing.assert_array_equal(arrays[0], records[0])
    np.testing.assert_array_equal(arrays[1], records[1])
    assert arrays[2] == records[2]


def test_forced_extension_and_early_convergence(monkeypatch):
    config = default_scenario(seed=5)
    plan = TrainingPlan(episodes=(4, 1, 1), seed=5)
    monkeypatch.setattr(trainer, "CONVERGENCE_WINDOW", 2)
    monkeypatch.setattr(trainer, "CONVERGENCE_THRESHOLD", 0.0)
    monkeypatch.setattr(trainer, "EXTENSION_BLOCK", 2)
    _, _, report = sandwich_train(plan, config)
    p1 = report.phases[0]
    assert p1.converged is False
    assert p1.executed == 8  # extended in blocks of 2 up to twice the plan
    monkeypatch.setattr(trainer, "CONVERGENCE_THRESHOLD", 1e9)
    _, _, report2 = sandwich_train(plan, config)
    assert report2.phases[0].converged is True
    assert report2.phases[0].executed == 4


def test_divergent_learning_rate_aborts_cleanly(monkeypatch):
    # Clipped gradients keep moderate blowups finite; a step of 1e200 pushes
    # the next forward pass past float range and must abort the phase.
    monkeypatch.setattr(trainer, "LEARNING_RATE", 1e200)
    plan = TrainingPlan(episodes=(3, 1, 1), seed=3)
    with np.errstate(invalid="ignore", over="ignore"):
        _, _, report = sandwich_train(plan, default_scenario(seed=3))
    p1 = report.phases[0]
    assert p1.aborted is not None
    assert p1.executed < p1.planned
    assert len(report.phases) == 3  # later phases still report


def test_report_serialization(tiny_run, tmp_path):
    plan, (_, _, report) = tiny_run
    doc = report_to_dict(report)
    assert doc["schema"] == TRAINING_REPORT_SCHEMA
    assert doc["mode"] == plan.mode and doc["seed"] == plan.seed
    assert doc["planned_episodes"] == list(plan.episodes)
    ep = doc["phases"][0]["episodes"][0]
    assert set(ep) == {
        "index",
        "return",
        "mean_loss",
        "epsilon",
        "learn_updates",
        "dispatch_hash",
        "steering_hash",
    }
    path = tmp_path / "report.json"
    save_training_report(path, report)
    assert json.loads(path.read_text()) == doc
    assert path.read_text().endswith("\n")


def test_return_series_csv(tiny_run, tmp_path):
    plan, (_, _, report) = tiny_run
    path = tmp_path / "returns.csv"
    write_return_series(path, report)
    lines = path.read_text().splitlines()
    assert lines[0] == "phase,episode,return,epsilon,mean_loss"
    assert len(lines) == 1 + sum(p.executed for p in report.phases)
    phase, episode, ret, eps, loss = lines[1].split(",")
    assert phase == "phase1" and episode == "0"
    assert float(ret) == report.phases[0].episodes[0].ret
    assert float(eps) == EPSILON_START
    assert loss == ""  # no learning in the very first episode

"""End-to-end command-line tests driving main() in process.

A module-scoped fixture trains throwaway weights on tiny episode plans so the
simulate/evaluate commands have real files to load.
"""

import json
import multiprocessing
import os

import pytest

from mealtwin import cli
from mealtwin.cli import EXPERIMENT_SCHEMA, main
from mealtwin.errors import NumericalError
from mealtwin.rlcore import ACT_LINEAR, ACT_RELU, NetSpec, QNet, load_qnet, save_qnet
from mealtwin.scenario import default_scenario, load_scenario, save_scenario
from mealtwin.simcore import Event, events_from_csv, events_to_csv


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    scenario = root / "scenario.json"
    assert main(["gen-scenario", "--out", str(scenario)]) == 0
    for mode in ("myopic", "strategic"):
        outdir = root / f"weights_{mode}"
        code = main(
            [
                "train",
                "--scenario",
                str(scenario),
                "--mode",
                mode,
                "--episodes",
                "2,1,1",
                "--seed",
                "0",
                "--outdir",
                str(outdir),
            ]
        )
        assert code == 0
    return root


def weight_flags(root):
    return [
        "--strategic-dispatch",
        str(root / "weights_strategic" / "dispatch.json"),
        "--strategic-steering",
        str(root / "weights_strategic" / "steering.json"),
        "--myopic-dispatch",
        str(root / "weights_myopic" / "dispatch.json"),
        "--myopic-steering",
        str(root / "weights_myopic" / "steering.json"),
    ]


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "usage: mealtwin" in capsys.readouterr().out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("mealtwin ")


def test_usage_errors_exit_1():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])  # --scenario and --events-out are required
    assert exc.value.code == 1


def test_gen_scenario_default(workspace, capsys):
    config = load_scenario(workspace / "scenario.json")
    assert len(config.region) == 25
    assert config.fleet_size == 25


def test_gen_scenario_custom_region(tmp_path, capsys):
    out = tmp_path / "small.json"
    code = main(
        [
            "gen-scenario",
            "--out",
            str(out),
            "--cols",
            "3",
            "--rows",
            "3",
            "--restaurant-ids",
            "4",
            "--fleet",
            "4",
            "--rate",
            "6.0",
        ]
    )
    assert code == 0
    config = load_scenario(out)
    assert len(config.region) == 9
    assert config.region.restaurant_ids == (4,)
    assert config.hourly_rates[4] == {19: 6.0, 20: 6.0}
    assert config.od_probs[4][0] == pytest.approx(1.0 / 9.0)


def test_gen_scenario_rejects_bad_input(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    assert main(["gen-scenario", "--out", out, "--cols", "0"]) == 2
    assert main(["gen-scenario", "--out", out, "--cols", "3", "--rows", "3"]) == 2
    code = main(
        ["gen-scenario", "--out", out, "--cols", "3", "--rows", "3", "--restaurant-ids", "99"]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--seed", "4", "--fleet", "9"]])
def test_gen_scenario_default_region_is_the_sample_setup(tmp_path, capsys, extra):
    """Without shift or rate flags the 5x5 file is the published sample
    setup, byte for byte."""
    out, ref = tmp_path / "gen.json", tmp_path / "ref.json"
    assert main(["gen-scenario", "--out", str(out), *extra]) == 0
    seed, fleet = (4, 9) if extra else (0, 25)
    save_scenario(ref, default_scenario(seed=seed, fleet_size=fleet))
    assert out.read_bytes() == ref.read_bytes()


def test_gen_scenario_default_region_takes_shift_and_rate_flags(tmp_path, capsys):
    out = tmp_path / "x.json"
    late = ["--start-hour", "23", "--shift-minutes", "120"]
    assert main(["gen-scenario", "--out", str(out), *late]) == 2
    assert "midnight" in capsys.readouterr().err
    assert not out.exists()
    assert main(["gen-scenario", "--out", str(out), "--rate", "0"]) == 0
    config = load_scenario(out)
    assert config.hourly_rates[7] == {19: 0.0, 20: 0.0}
    assert config.hourly_rates[8] == {19: 4.2, 20: 4.2}  # a half-rate grid
    flags = ["--start-hour", "20", "--shift-minutes", "60", "--half-rate-grids", ""]
    assert main(["gen-scenario", "--out", str(out), *flags]) == 0
    config = load_scenario(out)
    assert (config.shift_start_hour, config.shift_minutes) == (20, 60)
    assert config.region.restaurant_ids == (7, 8, 9, 12, 13, 14, 17, 18, 19)
    assert all(rates == {20: 8.4} for rates in config.hourly_rates.values())


@pytest.mark.parametrize(
    "flags, grid",
    [
        (["--half-rate-grids", "3"], "grid 3 is not a restaurant grid"),
        (["--half-rate-grids", "99"], "grid 99 is outside the region"),
        (["--half-rate-grids", "7,7"], "--half-rate-grids repeats grid 7"),
        (
            ["--cols", "3", "--rows", "3", "--restaurant-ids", "1,1"],
            "--restaurant-ids repeats grid 1",
        ),
    ],
)
def test_gen_scenario_refuses_grid_ids_that_change_nothing(tmp_path, capsys, flags, grid):
    out = tmp_path / "x.json"
    assert main(["gen-scenario", "--out", str(out), *flags]) == 2
    assert grid in capsys.readouterr().err
    assert not out.exists()


def test_train_artifacts(workspace, capsys):
    outdir = workspace / "weights_myopic"
    net, meta = load_qnet(outdir / "dispatch.json")
    assert meta["kind"] == "dispatch" and meta["mode"] == "myopic"
    assert meta["episodes"] == [2, 1, 1]
    assert net.spec.input_dim == 1 + 3 * 25
    _, steer_meta = load_qnet(outdir / "steering.json")
    assert steer_meta["kind"] == "steering"
    report = json.loads((outdir / "training_report.json").read_text())
    assert report["schema"] == "mealtwin-training-report/1"
    assert [p["executed"] for p in report["phases"]] == [2, 1, 1]
    returns = (outdir / "returns.csv").read_text().splitlines()
    assert returns[0] == "phase,episode,return,epsilon,mean_loss"
    assert len(returns) == 5


def test_train_flag_validation(workspace, capsys):
    scenario = str(workspace / "scenario.json")
    assert main(["train", "--scenario", scenario, "--episodes", "1,2"]) == 2
    assert main(["train", "--episodes", "1,1,1"]) == 2  # no scenario anywhere
    assert main(["train", "--scenario", "does-not-exist.json"]) == 2


def test_experiment_config_supplies_defaults(workspace, tmp_path, capsys):
    config_path = tmp_path / "experiment.json"
    outdir = tmp_path / "out"
    config_path.write_text(
        json.dumps(
            {
                "schema": EXPERIMENT_SCHEMA,
                "scenario": str(workspace / "scenario.json"),
                "mode": "myopic",
                "episodes": "1,1,1",
                "train_seed": 9,
                "output_dir": str(outdir),
            }
        )
    )
    assert main(["train", "--config", str(config_path)]) == 0
    report = json.loads((outdir / "training_report.json").read_text())
    assert report["seed"] == 9
    assert [p["executed"] for p in report["phases"]] == [1, 1, 1]

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "other/9"}))
    assert main(["train", "--config", str(bad)]) == 2
    bad.write_text("{not json")
    assert main(["train", "--config", str(bad)]) == 2
    bad.write_text(json.dumps([{"schema": EXPERIMENT_SCHEMA}]))
    capsys.readouterr()
    assert main(["evaluate", "--config", str(bad)]) == 2
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("evaluate", "shifts", "3"),
        ("evaluate", "workers", "2"),  # a retired key
        ("evaluate", "variants", 5),
        ("evaluate", "eval_seed", "x"),
        ("evaluate", "weights", {"myopic_dispatch": 1}),
        ("train", "train_seed", "a"),
        ("train", "episodes", [1, "1", 1]),
        ("train", "scenario", 7),
        ("evaluate", "eval-seed", 3),  # a typo
        ("evaluate", "weights", {"myopic_steer": "steering.json"}),  # an unknown slot
        ("train", "output_activation", "relu"),  # a retired key
        ("train", "forecaster", "gbot"),  # read by strategic training only
        ("train", "mode", "greedy"),
        ("evaluate", "forecaster", 3),
    ],
)
def test_experiment_config_rejects_wrong_types(workspace, tmp_path, capsys, command, key, value):
    """A value of the wrong type, a key the format does not have (a typo or a
    retired key) and an unknown weight slot exit 2, naming the key, before
    anything is written."""
    config_path = tmp_path / "experiment.json"
    doc = {"schema": EXPERIMENT_SCHEMA, "scenario": str(workspace / "scenario.json")}
    config_path.write_text(json.dumps({**doc, key: value}))
    assert main([command, "--config", str(config_path), "--outdir", str(tmp_path)]) == 2
    assert f"experiment key {key!r}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config_path]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("key, value", [("shifts", 0), ("shifts", -3)])
def test_evaluate_refuses_counts_below_one(workspace, tmp_path, capsys, source, key, value):
    scenario = str(workspace / "scenario.json")
    outdir = tmp_path / "out"
    argv = ["evaluate", "--variants", "nearest_idle", "--outdir", str(outdir)]
    if source == "flag":
        argv += ["--scenario", scenario, f"--{key}", str(value)]
    else:
        config_path = tmp_path / "experiment.json"
        doc = {"schema": EXPERIMENT_SCHEMA, "scenario": scenario, key: value}
        config_path.write_text(json.dumps(doc))
        argv += ["--config", str(config_path)]
    assert main(argv) == 2
    assert "shifts >= 1" in capsys.readouterr().err
    assert not outdir.exists()  # refused before any shift ran


@pytest.mark.parametrize(
    "command, source",
    [
        ("train", "--seed"),
        ("train", "train_seed"),
        ("evaluate", "--eval-seed"),
        ("evaluate", "eval_seed"),
        ("synth-history", "--seed"),
        ("simulate", "--seed"),
    ],
)
def test_negative_seeds_exit_2(workspace, tmp_path, capsys, command, source):
    """numpy seeds only from integers >= 0; a negative seed, from a flag or
    an experiment config key, is refused before any work, with exit 2 and no
    traceback."""
    scenario = str(workspace / "scenario.json")
    outdir = tmp_path / "out"
    argv = [command]
    if command == "synth-history":
        argv += ["--weeks", "1", "--out", str(tmp_path / "history.csv")]
    elif command == "simulate":
        argv += ["--events-out", str(tmp_path / "events.csv")]
    else:
        argv += ["--variants", "nearest_idle"] if command == "evaluate" else ["--episodes", "1,1,1"]
        argv += ["--outdir", str(outdir)]
    if source.startswith("--"):
        argv += ["--scenario", scenario, source, "-1"]
    else:
        config_path = tmp_path / "experiment.json"
        config_path.write_text(
            json.dumps({"schema": EXPERIMENT_SCHEMA, "scenario": scenario, source: -3})
        )
        argv += ["--config", str(config_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "is not >= 0" in err and "Traceback" not in err
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == ([] if source.startswith("--") else ["experiment.json"])


def test_simulate_nearest_idle(workspace, tmp_path, capsys):
    events_out = tmp_path / "events.csv"
    trace = tmp_path / "trace.csv"
    code = main(
        [
            "simulate",
            "--scenario",
            str(workspace / "scenario.json"),
            "--variant",
            "nearest_idle",
            "--seed",
            "3",
            "--events-out",
            str(events_out),
            "--dispatch-trace",
            str(trace),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "nearest_idle: sampled" in out and "p99 decision latency" in out
    events = events_from_csv(events_out)
    assert any(e.event == "shift_summary" for e in events)
    lines = trace.read_text().splitlines()
    assert lines[0] == "minute,order,action,reward,q_max"
    assert len(lines) > 50


def test_simulate_variant_validation(workspace, tmp_path, capsys):
    scenario = str(workspace / "scenario.json")
    out = str(tmp_path / "e.csv")
    assert main(["simulate", "--scenario", scenario, "--variant", "bogus", "--events-out", out]) == 2
    # Strategic dispatching needs its weight file.
    assert (
        main(["simulate", "--scenario", scenario, "--variant", "strategic", "--events-out", out])
        == 2
    )
    err = capsys.readouterr().err
    assert "--strategic-dispatch" in err


def test_simulate_strategic_steer(workspace, tmp_path, capsys):
    events_out = tmp_path / "events.csv"
    steer_trace = tmp_path / "steer.csv"
    code = main(
        [
            "simulate",
            "--scenario",
            str(workspace / "scenario.json"),
            "--variant",
            "strategic+steer",
            "--events-out",
            str(events_out),
            "--steer-trace",
            str(steer_trace),
            *weight_flags(workspace),
        ]
    )
    assert code == 0
    assert steer_trace.read_text().splitlines()[0] == "minute,courier,from,to,reward"


def test_weight_fleet_mismatch(workspace, tmp_path, capsys):
    small = tmp_path / "small_fleet.json"
    assert main(["gen-scenario", "--out", str(small), "--fleet", "3"]) == 0
    code = main(
        [
            "simulate",
            "--scenario",
            str(small),
            "--variant",
            "myopic",
            "--events-out",
            str(tmp_path / "e.csv"),
            "--myopic-dispatch",
            str(workspace / "weights_myopic" / "dispatch.json"),
        ]
    )
    assert code == 2
    assert "fleet" in capsys.readouterr().err

    # Nets of the wrong action count or input width are refused at load,
    # before any shift runs, not mid-shift.
    scenario = str(workspace / "scenario.json")
    fleet = load_scenario(workspace / "scenario.json").fleet_size
    relu, linear = ACT_RELU, ACT_LINEAR
    short_dispatch = NetSpec(
        1 + 3 * fleet, (32, fleet), (relu, linear), head_dim=1, embed_groups=fleet
    )
    short_steering = NetSpec(14, (32, 16, 5), (relu, relu, linear))
    narrow_steering = NetSpec(10, (32, 16, 7), (relu, relu, linear))
    bad_nets = [
        ("myopic", "--myopic-dispatch", short_dispatch),
        ("nearest_idle+steer", "--strategic-steering", short_steering),
        ("nearest_idle+steer", "--strategic-steering", narrow_steering),
    ]
    for i, (variant, flag, spec) in enumerate(bad_nets):
        weights = tmp_path / f"bad{i}.json"
        save_qnet(weights, QNet(spec))
        events = tmp_path / f"bad{i}.csv"
        args = ["--variant", variant, "--events-out", str(events), flag, str(weights)]
        assert main(["simulate", "--scenario", scenario, *args]) == 2
        err = capsys.readouterr().err
        assert "needs" in err and "Traceback" not in err
        assert not events.exists()


def test_shift_past_midnight_exits_2(tmp_path, capsys):
    out = tmp_path / "late.json"
    small = ["--cols", "3", "--rows", "3", "--restaurant-ids", "4"]
    late = ["--start-hour", "23", "--shift-minutes", "120"]
    assert main(["gen-scenario", "--out", str(out), *small, *late]) == 2
    assert not out.exists()
    assert main(["gen-scenario", "--out", str(out), *small, "--start-hour", "24"]) == 2
    # A file written before the check, with a rate for hour 24, fails at load.
    assert main(["gen-scenario", "--out", str(out), *small, "--start-hour", "22"]) == 0
    doc = json.loads(out.read_text())
    doc["shift_start_hour"] = 23
    doc["hourly_rates"]["4"] = {"23": 8.4, "24": 8.4}
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    history = ["--weeks", "1", "--out", str(tmp_path / "h.csv")]
    code = main(["synth-history", "--scenario", str(out), *history])
    assert code == 2
    err = capsys.readouterr().err
    assert "runs past midnight" in err and "Traceback" not in err


def test_simulate_refuses_a_negative_prep_variance(workspace, tmp_path, capsys):
    """It used to load and raise a math domain error at minute 0 (exit 1)."""
    doc = json.loads((workspace / "scenario.json").read_text())
    doc["prep_var"] = -1.0
    bad = tmp_path / "scenario.json"
    bad.write_text(json.dumps(doc))
    events = tmp_path / "events.csv"
    args = ["--variant", "nearest_idle", "--events-out", str(events)]
    assert main(["simulate", "--scenario", str(bad), *args]) == 2
    err = capsys.readouterr().err
    assert "prep_var" in err and "Traceback" not in err
    assert not events.exists()


@pytest.fixture(scope="module")
def gbt_model(workspace):
    history = workspace / "history.csv"
    model = workspace / "gbt.json"
    scenario = str(workspace / "scenario.json")
    assert main(["synth-history", "--scenario", scenario, "--weeks", "1", "--out", str(history)]) == 0
    fit = ["--history", str(history), "--holdout", str(history), "--rounds", "2"]
    assert main(["forecast-eval", "--scenario", scenario, *fit, "--model-out", str(model)]) == 0
    return model


@pytest.mark.parametrize(
    "kind, corrupt",
    [
        ("scenario", lambda doc: []),
        ("scenario", lambda doc: {**doc, "hourly_rates": []}),
        ("scenario", lambda doc: {**doc, "hourly_rates": {"7": [1]}}),
        ("scenario", lambda doc: {**doc, "fleet_size": 2.9}),
        ("scenario", lambda doc: {**doc, "max_delivery_tasks": True}),
        ("weights", lambda doc: []),
        ("weights", lambda doc: {**doc, "spec": {**doc["spec"], "input_dim": 14.5}}),
        ("forecast model", lambda doc: []),
        ("forecast model", lambda doc: {**doc, "grids": []}),
    ],
    ids=[
        "scenario []",
        "hourly_rates []",
        "rate row []",
        "fleet_size 2.9",
        "max_delivery_tasks true",
        "weights []",
        "input_dim 14.5",
        "forecast model []",
        "grids []",
    ],
)
def test_malformed_saved_files_exit_2(workspace, gbt_model, tmp_path, capsys, kind, corrupt):
    """Each of these once exited 1 with an AttributeError or loaded silently."""
    paths = {
        "scenario": workspace / "scenario.json",
        "weights": workspace / "weights_strategic" / "dispatch.json",
        "forecast model": gbt_model,
    }
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(corrupt(json.loads(paths[kind].read_text()))))
    paths[kind] = bad
    events = tmp_path / "events.csv"
    capsys.readouterr()
    code = main(
        [
            "simulate",
            "--scenario",
            str(paths["scenario"]),
            "--variant",
            "strategic",
            "--strategic-dispatch",
            str(paths["weights"]),
            "--forecaster",
            "gbt",
            "--gbt-model",
            str(paths["forecast model"]),
            "--events-out",
            str(events),
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert f"{kind} file {bad}" in err and "Traceback" not in err
    assert not events.exists()


@pytest.fixture(scope="module")
def evaluated(workspace):
    outdir = workspace / "eval"
    code = main(
        [
            "evaluate",
            "--scenario",
            str(workspace / "scenario.json"),
            "--shifts",
            "2",
            "--eval-seed",
            "500",
            "--variants",
            "nearest_idle,myopic",
            "--outdir",
            str(outdir),
            *weight_flags(workspace),
        ]
    )
    assert code == 0
    return outdir


def test_evaluate_artifacts(evaluated, capsys):
    doc = json.loads((evaluated / "comparison.json").read_text())
    assert doc["schema"] == "mealtwin-comparison/1"
    assert doc["variants"] == ["nearest_idle", "myopic"]
    assert len(doc["runs"]["nearest_idle"]) == 2
    assert [r["run_id"] for r in doc["runs"]["myopic"]] == [0, 1]
    metrics = (evaluated / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "metric,nearest_idle avg,nearest_idle std,myopic avg,myopic std"
    pvals = (evaluated / "pvalues_time_gap.csv").read_text().splitlines()
    assert pvals[0] == "variant_a,variant_b,p_value"


def test_evaluate_worker_pool_matches_serial(workspace, evaluated, tmp_path, monkeypatch):
    """One usable CPU runs the study serially, two run it on a fork pool;
    both write the bytes of the fixture's run and leave no process behind."""
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        outdir = tmp_path / f"cpus{cpus}"
        code = main(
            [
                "evaluate",
                "--scenario",
                str(workspace / "scenario.json"),
                "--shifts",
                "2",
                "--eval-seed",
                "500",
                "--variants",
                "nearest_idle,myopic",
                "--outdir",
                str(outdir),
                *weight_flags(workspace),
            ]
        )
        assert code == 0
        assert multiprocessing.active_children() == []
        assert (outdir / "comparison.json").read_bytes() == (
            evaluated / "comparison.json"
        ).read_bytes()


def test_evaluate_workers_share_one_forecaster_fit(workspace, tmp_path, monkeypatch):
    """A pool gives the serial bytes for a strategic variant with a GBT
    forecaster, and the study fits that forecaster once, not once per shift."""
    scenario = str(workspace / "scenario.json")
    history = tmp_path / "history.csv"
    assert main(["synth-history", "--scenario", scenario, "--weeks", "1", "--out", str(history)]) == 0
    fits = tmp_path / "fits.log"
    fit = cli.train_demand_models

    def counted_fit(*args, **kwargs):
        with open(fits, "a") as fh:  # a file, so that forked workers count too
            fh.write("fit\n")
        return fit(*args, **kwargs)

    monkeypatch.setattr(cli, "train_demand_models", counted_fit)
    comparisons = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        fits.write_text("")
        outdir = tmp_path / f"cpus{cpus}"
        code = main(
            [
                "evaluate",
                "--scenario",
                scenario,
                "--shifts",
                "2",
                "--variants",
                "strategic+steer,myopic",
                "--forecaster",
                "gbt",
                "--history",
                str(history),
                "--outdir",
                str(outdir),
                *weight_flags(workspace),
            ]
        )
        assert code == 0
        assert fits.read_text().splitlines() == ["fit"]
        assert multiprocessing.active_children() == []
        comparisons.append((outdir / "comparison.json").read_bytes())
    assert comparisons[0] == comparisons[1]


def test_train_fits_a_forecaster_only_for_strategic_mode(workspace, tmp_path, monkeypatch):
    """A myopic shift never reads forecasts: myopic training fits no GBT
    forecaster, and needs no model or history for one; strategic fits one."""
    scenario = str(workspace / "scenario.json")
    history = tmp_path / "history.csv"
    assert main(["synth-history", "--scenario", scenario, "--weeks", "1", "--out", str(history)]) == 0
    fits = tmp_path / "fits.log"
    fit = cli.train_demand_models

    def counted_fit(*args, **kwargs):
        with open(fits, "a") as fh:  # a file, so that forked workers count too
            fh.write("fit\n")
        return fit(*args, **kwargs)

    monkeypatch.setattr(cli, "train_demand_models", counted_fit)
    train = ["train", "--scenario", scenario, "--episodes", "1,1,1", "--forecaster", "gbt"]
    for mode, extra, expected in [
        ("myopic", [], []),
        ("myopic", ["--history", str(history)], []),
        ("strategic", ["--history", str(history)], ["fit"]),
    ]:
        fits.write_text("")
        outdir = tmp_path / f"{mode}{len(extra)}"
        assert main([*train, "--mode", mode, *extra, "--outdir", str(outdir)]) == 0
        assert fits.read_text().splitlines() == expected
        assert (outdir / "dispatch.json").exists()


def test_evaluate_validation(workspace, capsys):
    scenario = str(workspace / "scenario.json")
    assert main(["evaluate", "--shifts", "1"]) == 2  # scenario missing
    assert (
        main(["evaluate", "--scenario", scenario, "--variants", "bogus", "--shifts", "1"]) == 2
    )


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("variants", ["nearest_idle,nearest_idle", ","], ids=["repeated", "empty"])
def test_evaluate_refuses_empty_or_repeated_variants(tmp_path, capsys, source, variants):
    """A repeated variant would count each of its shifts twice in the study,
    and an empty list compares nothing.  Both exit 2 before any file is
    loaded: the scenario path does not even exist."""
    outdir = tmp_path / "out"
    argv = ["evaluate", "--scenario", str(tmp_path / "missing.json"), "--shifts", "2"]
    argv += ["--outdir", str(outdir)]
    if source == "flag":
        argv += ["--variants", variants]
    else:
        config_path = tmp_path / "experiment.json"
        listed = [v for v in variants.split(",") if v]
        config_path.write_text(json.dumps({"schema": EXPERIMENT_SCHEMA, "variants": listed}))
        argv += ["--config", str(config_path)]
    assert main(argv) == 2
    assert "evaluate needs distinct variants" in capsys.readouterr().err
    assert not outdir.exists()


def test_report_recomputes_identical_tables(evaluated, tmp_path, capsys):
    metrics_csv = tmp_path / "metrics.csv"
    pvalues_csv = tmp_path / "pvalues.csv"
    code = main(
        [
            "report",
            "--comparison",
            str(evaluated / "comparison.json"),
            "--metrics-csv",
            str(metrics_csv),
            "--pvalues-csv",
            str(pvalues_csv),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "nearest_idle" in out and "gap avg" in out
    assert metrics_csv.read_bytes() == (evaluated / "metrics.csv").read_bytes()
    assert pvalues_csv.read_bytes() == (evaluated / "pvalues_time_gap.csv").read_bytes()


def test_zero_demand_study_writes_strict_json(tmp_path, capsys):
    """Without deliveries the gap statistics are undefined: comparison.json
    holds them as null, parses under a strict parser, and `report`
    re-renders it."""
    scenario = tmp_path / "quiet.json"
    quiet = ["--cols", "3", "--rows", "3", "--restaurant-ids", "4", "--fleet", "2"]
    assert main(["gen-scenario", "--out", str(scenario), *quiet, "--rate", "0"]) == 0
    outdir = tmp_path / "eval"
    code = main(
        [
            "evaluate",
            "--scenario",
            str(scenario),
            "--shifts",
            "2",
            "--variants",
            "nearest_idle",
            "--outdir",
            str(outdir),
        ]
    )
    assert code == 0

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    text = (outdir / "comparison.json").read_text()
    doc = json.loads(text, parse_constant=refuse)
    assert [r["gap_mean"] for r in doc["runs"]["nearest_idle"]] == [None, None]
    assert doc["aggregates"]["nearest_idle"]["time_gap_mean"]["avg"] is None
    capsys.readouterr()
    code = main(
        [
            "report",
            "--comparison",
            str(outdir / "comparison.json"),
            "--metrics-csv",
            str(tmp_path / "metrics.csv"),
        ]
    )
    assert code == 0
    assert "nearest_idle" in capsys.readouterr().out
    assert (tmp_path / "metrics.csv").read_bytes() == (outdir / "metrics.csv").read_bytes()


def test_report_rejects_bad_files(evaluated, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "nope"}))
    assert main(["report", "--comparison", str(bad)]) == 2
    bad.write_text("{oops")
    assert main(["report", "--comparison", str(bad)]) == 2
    assert main(["report", "--comparison", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()

    # Well-formed JSON of the wrong shape exits 2 with a message.
    good = json.loads((evaluated / "comparison.json").read_text())
    first = good["runs"]["myopic"][0]

    def with_run(run):
        return {**good, "runs": {**good["runs"], "myopic": [run]}}

    no_variants = {k: v for k, v in good.items() if k != "variants"}
    short_run = {k: v for k, v in first.items() if k != "courier_delivery_minutes"}
    text_gap = {**first, "gap_mean": "x"}
    bool_gap = {**first, "gap_mean": False}
    bool_served = {**first, "courier_served": [True, False]}
    couriers = ("courier_delivery_minutes", "courier_idle_minutes", "courier_served", "courier_distance")
    no_couriers = {**first, **{key: [] for key in couriers}}
    uneven_couriers = {**first, "courier_served": first["courier_served"][1:]}
    bad_runs = (
        short_run, text_gap, bool_gap, bool_served, {**first, "variant": None},
        no_couriers, uneven_couriers,
    )
    for doc in (no_variants, *(with_run(run) for run in bad_runs), [good]):
        bad.write_text(json.dumps(doc))
        assert main(["report", "--comparison", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "comparison" in err and "Traceback" not in err


def test_synth_history_and_forecast_eval(workspace, tmp_path, capsys):
    scenario = str(workspace / "scenario.json")
    history = tmp_path / "history.csv"
    holdout = tmp_path / "holdout.csv"
    assert main(["synth-history", "--scenario", scenario, "--weeks", "6", "--out", str(history)]) == 0
    assert (
        main(
            [
                "synth-history",
                "--scenario",
                scenario,
                "--weeks",
                "2",
                "--seed",
                "77",
                "--out",
                str(holdout),
            ]
        )
        == 0
    )
    report_out = tmp_path / "forecast.json"
    model_out = tmp_path / "models.json"
    code = main(
        [
            "forecast-eval",
            "--scenario",
            scenario,
            "--history",
            str(history),
            "--holdout",
            str(holdout),
            "--rounds",
            "20",
            "--max-depth",
            "3",
            "--model-out",
            str(model_out),
            "--report-out",
            str(report_out),
        ]
    )
    assert code == 0
    assert "holdout MAE" in capsys.readouterr().out
    doc = json.loads(report_out.read_text())
    assert doc["schema"] == "mealtwin-forecast-eval/1"
    assert doc["overall"]["samples"] > 0
    assert set(doc["grids"]) == {str(g) for g in (7, 8, 9, 12, 13, 14, 17, 18, 19)}
    assert model_out.exists()


def test_forecast_eval_exits_3_and_writes_nothing_when_the_fit_overflows(
    workspace, tmp_path, capsys
):
    scenario = str(workspace / "scenario.json")
    history = str(tmp_path / "history.csv")
    assert main(["synth-history", "--scenario", scenario, "--weeks", "1", "--out", history]) == 0
    model_out, report_out = tmp_path / "models.json", tmp_path / "forecast.json"
    args = ["forecast-eval", "--scenario", scenario, "--history", history, "--holdout", history]
    outputs = ["--model-out", str(model_out), "--report-out", str(report_out)]
    assert main([*args, "--rounds", "5", "--shrinkage", "1e308", *outputs]) == 3
    captured = capsys.readouterr()
    assert "numerical failure" in captured.err and "holdout MAE" not in captured.out
    assert not model_out.exists() and not report_out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--min-leaf", "0"],
        ["--min-leaf", "-2"],
        ["--shrinkage", "nan"],
        ["--rounds", "-1"],
        ["--max-depth", "-1"],
    ],
)
def test_forecast_eval_rejects_bad_gbt_params(workspace, tmp_path, capsys, flags):
    scenario = str(workspace / "scenario.json")
    history = str(tmp_path / "history.csv")
    assert main(["synth-history", "--scenario", scenario, "--weeks", "1", "--out", history]) == 0
    args = ["forecast-eval", "--scenario", scenario, "--history", history, "--holdout", history]
    assert main(args + flags) == 2
    assert "mealtwin: error: gbt" in capsys.readouterr().err


def test_snapshot_command(workspace, tmp_path, capsys):
    events_out = tmp_path / "events.csv"
    assert (
        main(
            [
                "simulate",
                "--scenario",
                str(workspace / "scenario.json"),
                "--variant",
                "nearest_idle",
                "--events-out",
                str(events_out),
            ]
        )
        == 0
    )
    svg_out = tmp_path / "minute30.svg"
    code = main(
        ["snapshot", "--events", str(events_out), "--minute", "30", "--out", str(svg_out)]
    )
    assert code == 0
    assert svg_out.read_text().startswith("<svg ")
    assert main(["snapshot", "--events", str(events_out), "--minute", "999", "--out", str(svg_out)]) == 2
    assert main(["snapshot", "--events", "missing.csv", "--minute", "0", "--out", str(svg_out)]) == 2


@pytest.mark.parametrize("detail", [{}, {"idle": [0] * 25}, {"idle": 3, "gap": [0] * 25}, [1, 2]])
def test_snapshot_refuses_a_detail_without_vectors(tmp_path, capsys, detail):
    """A snapshot lacking its idle or gap list once exited 1 with a KeyError."""
    events = tmp_path / "events.csv"
    events_to_csv([Event(0, "region", "snapshot", detail)], events)
    svg_out = tmp_path / "minute0.svg"
    assert main(["snapshot", "--events", str(events), "--minute", "0", "--out", str(svg_out)]) == 2
    err = capsys.readouterr().err
    assert "snapshot for minute 0 needs 'idle' and 'gap'" in err and "Traceback" not in err
    assert not svg_out.exists()


def test_numerical_failure_maps_to_exit_3(workspace, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise NumericalError("synthetic blowup")

    monkeypatch.setattr("mealtwin.cli.sandwich_train", boom)
    code = main(
        ["train", "--scenario", str(workspace / "scenario.json"), "--episodes", "1,1,1"]
    )
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err

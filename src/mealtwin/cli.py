"""Command-line entry points for scenarios, training, simulation, evaluation.

One binary with subcommands; every run is fully determined by its config
files and seed flags.  Exit codes: 0 success, 1 usage, 2 bad data or config,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import __version__
from .dispatch import REWARD_SCALE
from .errors import ConfigError, ContractError, NumericalError
from .evaluate import (
    VARIANT_SETUP,
    VARIANTS,
    compare_frameworks,
    latency_p99,
    load_comparison,
    run_shift,
    run_study,
    save_comparison,
    variant_policies,
    write_metrics_csv,
    write_pvalues_csv,
)
from .forecast import (
    GBTParams,
    GbtDemand,
    OracleDemand,
    build_training_sets,
    evaluate as gbt_evaluate,
    load_demand_models,
    persistence_eval,
    save_demand_models,
    train_demand_models,
)
from .hexgrid import DEFAULT_RESTAURANT_IDS, offset_rect_region
from .hexmap import render_snapshot
from .rlcore import ACT_LINEAR, ACT_RELU, QNet, load_qnet, save_qnet
from .scenario import (
    DEFAULT_FLEET_SIZE,
    HALF_RATE_GRIDS,
    ScenarioConfig,
    default_scenario,
    load_scenario,
    make_rng,
    read_transactions,
    save_scenario,
    synth_history,
    write_transactions,
)
from .simcore import MODE_MYOPIC, MODE_STRATEGIC, events_from_csv, events_to_csv
from .steering import NUM_SLOTS, STATE_DIM
from .trainer import TrainingPlan, sandwich_train, save_training_report, write_return_series

EXPERIMENT_SCHEMA = "mealtwin-experiment/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# The weight slots of the variant table, in table order; one flag each.
WEIGHT_SLOTS = tuple(
    dict.fromkeys(slot for setup in VARIANT_SETUP.values() for slot in setup[1:] if slot)
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str(value) -> bool:
    return isinstance(value, str)


def _str_or_list_of(check):
    return lambda v: _is_str(v) or (isinstance(v, list) and all(map(check, v)))


# What experiment keys must hold: (description, check, keys).  Episodes and
# variants may also be one comma-separated string, like their flags.
_EXPERIMENT_TYPES = (
    ("an integer", _is_int, ("shifts", "eval_seed", "train_seed", "workers")),
    (
        "a string",
        _is_str,
        ("scenario", "gbt_model", "history", "output_dir", "mode", "forecaster",
         "output_activation"),
    ),
    ("a string or a list of integers", _str_or_list_of(_is_int), ("episodes",)),
    ("a string or a list of strings", _str_or_list_of(_is_str), ("variants",)),
    (
        "an object of weight paths",
        lambda v: isinstance(v, dict) and all(map(_is_str, v.values())),
        ("weights",),
    ),
)


def _load_experiment(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"experiment config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"experiment config {path} must hold a JSON object")
    if doc.get("schema") != EXPERIMENT_SCHEMA:
        raise ConfigError(f"unsupported experiment schema: {doc.get('schema')!r}")
    for kind, check, keys in _EXPERIMENT_TYPES:
        for key in keys:
            if key in doc and not check(doc[key]):
                raise ConfigError(f"experiment key {key!r} must hold {kind}, got {doc[key]!r}")
    return doc


def _pick(flag_value, experiment: dict, key: str, default):
    if flag_value is not None:
        return flag_value
    if key in experiment:
        return experiment[key]
    return default


def _parse_int_list(text: str) -> List[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated integer list, got {text!r}") from exc


def _build_predictor(kind: str, config: ScenarioConfig, model_path: Optional[str],
                     history_path: Optional[str]):
    if kind == "none":
        return None
    if kind == "oracle":
        return OracleDemand(config)
    if kind == "gbt":
        if model_path:
            return GbtDemand(load_demand_models(Path(model_path)), config)
        if history_path:
            history = read_transactions(Path(history_path))
            return GbtDemand(train_demand_models(history, config), config)
        raise ConfigError("gbt forecaster needs --gbt-model or --history")
    raise ConfigError(f"unknown forecaster {kind!r}")


def _check_net_shape(net: QNet, slot: str, config: ScenarioConfig, path: str) -> None:
    """Dispatch nets map 1+3F inputs to F+1 actions for a fleet of F;
    steering nets map the 14-value slot state to 7 slots."""
    have = (net.spec.input_dim, net.num_actions)
    if slot.endswith("dispatch"):
        fleet = config.fleet_size
        want, needs = (1 + 3 * fleet, fleet + 1), f"the scenario fleet of {fleet} needs"
    else:
        want, needs = (STATE_DIM, NUM_SLOTS), "steering needs"
    if have != want:
        raise ConfigError(
            f"{slot} weights {path} map {have[0]} inputs to {have[1]} actions; "
            f"{needs} {want[0]} -> {want[1]}"
        )


# --------------------------------------------------------------- subcommands


def cmd_gen_scenario(args) -> int:
    if args.cols < 1 or args.rows < 1:
        raise ConfigError("region dimensions must be positive")
    if args.restaurant_ids is not None:
        restaurant_ids = _parse_int_list(args.restaurant_ids)
        half_grids: Sequence[int] = ()
    elif args.cols == 5 and args.rows == 5:
        # The sample region keeps its restaurants and half-rate grids.
        restaurant_ids, half_grids = list(DEFAULT_RESTAURANT_IDS), HALF_RATE_GRIDS
    else:
        raise ConfigError("custom region dimensions need --restaurant-ids")
    try:
        region = offset_rect_region(
            args.cols, args.rows, restaurant_ids, layout_name=f"{args.cols}x{args.rows}"
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.half_rate_grids is not None:
        half_grids = _parse_int_list(args.half_rate_grids)
    half = set(half_grids)
    hours = sorted({args.start_hour + m // 60 for m in range(args.shift_minutes)})
    rates = {
        gid: {h: (args.half_rate if gid in half else args.rate) for h in hours}
        for gid in restaurant_ids
    }
    n = len(region)
    uniform = {dest: 1.0 / n for dest in range(n)}
    od = {gid: dict(uniform) for gid in restaurant_ids}
    config = ScenarioConfig(
        region=region,
        hourly_rates=rates,
        od_probs=od,
        fleet_size=args.fleet,
        shift_start_hour=args.start_hour,
        shift_minutes=args.shift_minutes,
        seed=args.seed,
    )
    save_scenario(Path(args.out), config)
    print(
        f"wrote scenario: {len(config.region)} grids, "
        f"{len(config.region.restaurant_ids)} restaurant grids, "
        f"fleet {config.fleet_size} -> {args.out}"
    )
    return EXIT_OK


def cmd_synth_history(args) -> int:
    config = load_scenario(Path(args.scenario))
    seed = args.seed if args.seed is not None else config.seed
    records = synth_history(config, args.weeks, make_rng(seed, 17))
    write_transactions(Path(args.out), records)
    print(f"wrote {len(records)} transactions over {args.weeks} weeks -> {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    experiment = _load_experiment(args.config)
    scenario_path = _pick(args.scenario, experiment, "scenario", None)
    if scenario_path is None:
        raise ConfigError("train needs --scenario (or an experiment config with one)")
    config = load_scenario(Path(scenario_path))
    episodes = _pick(args.episodes, experiment, "episodes", [200, 150, 100])
    if isinstance(episodes, str):
        episodes = _parse_int_list(episodes)
    if len(episodes) != 3:
        raise ConfigError("--episodes needs exactly three comma-separated counts")
    mode = _pick(args.mode, experiment, "mode", MODE_STRATEGIC)
    seed = _pick(args.seed, experiment, "train_seed", 0)
    activation = _pick(args.output_activation, experiment, "output_activation", ACT_LINEAR)
    forecaster = _pick(
        args.forecaster,
        experiment,
        "forecaster",
        "oracle" if mode == MODE_STRATEGIC else "none",
    )
    predictor = _build_predictor(
        forecaster,
        config,
        _pick(args.gbt_model, experiment, "gbt_model", None),
        _pick(args.history, experiment, "history", None),
    )
    plan = TrainingPlan(
        episodes=tuple(episodes), seed=seed, mode=mode, output_activation=activation
    )
    outdir = Path(_pick(args.outdir, experiment, "output_dir", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    dispatch_net, steering_net, report = sandwich_train(plan, config, predictor)
    meta_common = {
        "mode": mode,
        "seed": seed,
        "fleet_size": config.fleet_size,
        "episodes": list(episodes),
        "output_activation": activation,
    }
    save_qnet(
        outdir / "dispatch.json",
        dispatch_net,
        meta={**meta_common, "kind": "dispatch", "reward_scale": REWARD_SCALE},
    )
    save_qnet(outdir / "steering.json", steering_net, meta={**meta_common, "kind": "steering"})
    save_training_report(outdir / "training_report.json", report)
    write_return_series(outdir / "returns.csv", report)
    for phase in report.phases:
        if phase.aborted:
            status = "aborted: " + phase.aborted
        elif phase.converged is None:
            status = "no convergence check"
        else:
            status = "converged" if phase.converged else "not converged"
        print(f"{phase.name} ({phase.trains}): {phase.executed} episodes, {status}")
    print(f"wrote weights and report -> {outdir}")
    return EXIT_OK


def _load_variant_nets(
    variants: Sequence[str], weight_paths: Dict[str, Optional[str]], config: ScenarioConfig
) -> Dict[str, QNet]:
    nets: Dict[str, QNet] = {}
    for variant in variants:
        _, dispatch_slot, steer_slot = VARIANT_SETUP[variant]
        for slot in (dispatch_slot, steer_slot):
            if slot is None or slot in nets:
                continue
            path = weight_paths.get(slot)
            if not path:
                raise ConfigError(f"variant {variant!r} needs --{slot.replace('_', '-')}")
            net, _ = load_qnet(Path(path))
            _check_net_shape(net, slot, config, path)
            nets[slot] = net
    return nets


def _write_trace(path: str, rows: List[dict], columns: Sequence[str]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in columns) + "\n")


def cmd_simulate(args) -> int:
    config = load_scenario(Path(args.scenario))
    if args.variant not in VARIANT_SETUP:
        raise ConfigError(f"unknown variant {args.variant!r}; pick from {', '.join(VARIANTS)}")
    weight_paths = {slot: getattr(args, slot) for slot in WEIGHT_SLOTS}
    nets = _load_variant_nets([args.variant], weight_paths, config)
    dispatch_trace: Optional[list] = [] if args.dispatch_trace else None
    steer_trace: Optional[list] = [] if args.steer_trace else None
    mode, dispatch_policy, steer_policy = variant_policies(
        args.variant, nets, dispatch_trace, steer_trace
    )
    predictor = None
    if mode == MODE_STRATEGIC:
        predictor = _build_predictor(args.forecaster, config, args.gbt_model, args.history)
    result = run_shift(
        config,
        mode,
        dispatch_policy,
        steer_policy,
        predictor,
        seed_key=(args.seed,),
        variant=args.variant,
        run_id=0,
    )
    events_to_csv(result.events, Path(args.events_out))
    if args.dispatch_trace:
        _write_trace(
            args.dispatch_trace, dispatch_trace, ("minute", "order", "action", "reward", "q_max")
        )
    if args.steer_trace:
        _write_trace(
            args.steer_trace, steer_trace, ("minute", "courier", "from", "to", "reward")
        )
    m = result.metrics
    print(
        f"{args.variant}: sampled {m.sampled}, delivered {m.delivered}, "
        f"overdue {m.overdue_count}, mean gap "
        f"{m.gap_mean:.2f} min, p99 decision latency {latency_p99(result.latencies) * 1e3:.2f} ms"
    )
    print(f"wrote event log -> {args.events_out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    experiment = _load_experiment(args.config)
    scenario_path = _pick(args.scenario, experiment, "scenario", None)
    if scenario_path is None:
        raise ConfigError("evaluate needs --scenario (or an experiment config with one)")
    config = load_scenario(Path(scenario_path))
    shifts = _pick(args.shifts, experiment, "shifts", 100)
    eval_seed = _pick(args.eval_seed, experiment, "eval_seed", 1000)
    variants = _pick(args.variants, experiment, "variants", ",".join(VARIANTS))
    if isinstance(variants, str):
        variants = [v.strip() for v in variants.split(",") if v.strip()]
    for v in variants:
        if v not in VARIANT_SETUP:
            raise ConfigError(f"unknown variant {v!r}; pick from {', '.join(VARIANTS)}")
    weight_paths = {
        slot: _pick(getattr(args, slot), experiment.get("weights", {}), slot, None)
        for slot in WEIGHT_SLOTS
    }
    forecaster = _pick(args.forecaster, experiment, "forecaster", "oracle")
    gbt_model = _pick(args.gbt_model, experiment, "gbt_model", None)
    history = _pick(args.history, experiment, "history", None)
    workers = _pick(args.workers, experiment, "workers", 1)
    if shifts < 1 or workers < 1:
        raise ConfigError(f"evaluate needs shifts and workers >= 1, got {shifts} and {workers}")
    outdir = Path(_pick(args.outdir, experiment, "output_dir", "."))
    outdir.mkdir(parents=True, exist_ok=True)

    # Load everything up front so missing files fail before any simulation.
    nets = _load_variant_nets(variants, weight_paths, config)
    needs_predictor = any(VARIANT_SETUP[v][0] == MODE_STRATEGIC for v in variants)
    predictor = (
        _build_predictor(forecaster, config, gbt_model, history) if needs_predictor else None
    )

    runs, latencies = run_study(config, variants, nets, predictor, eval_seed, shifts, workers)
    report = compare_frameworks(runs, variants=variants)
    save_comparison(outdir / "comparison.json", report)
    write_metrics_csv(outdir / "metrics.csv", report)
    write_pvalues_csv(outdir / "pvalues_time_gap.csv", report)
    for v in variants:
        agg = report.aggregates.get(v)
        if not agg:
            print(f"{v}: no runs")
            continue
        gap = agg["time_gap_mean"]["avg"]
        nsd = agg["nsd"]["avg"]
        overdue = agg["overdue_rate"]["avg"]
        print(
            f"{v}: gap {gap:.2f} min, overdue {overdue:.2%}, NSD {nsd:.2f}, "
            f"excluded {report.excluded[v]}, "
            f"p99 latency {latency_p99(latencies[v]) * 1e3:.2f} ms"
        )
    print(f"wrote comparison artifacts -> {outdir}")
    return EXIT_OK


def cmd_forecast_eval(args) -> int:
    config = load_scenario(Path(args.scenario))
    history = read_transactions(Path(args.history))
    holdout = read_transactions(Path(args.holdout))
    params = GBTParams(
        rounds=args.rounds,
        max_depth=args.max_depth,
        shrinkage=args.shrinkage,
        min_leaf=args.min_leaf,
    )
    models = train_demand_models(history, config, params)
    holdout_sets = build_training_sets(holdout, config)
    per_grid = {}
    total_n = 0
    gbt_abs = 0.0
    base_abs = 0.0
    for gid, (X, y) in sorted(holdout_sets.items()):
        model = models.get(gid)
        if model is None:
            raise ConfigError(f"history contains no samples for restaurant grid {gid}")
        mae, rmse = gbt_evaluate(model, X, y)
        base_mae, base_rmse = persistence_eval(X, y)
        per_grid[gid] = {
            "n": len(y),
            "gbt_mae": mae,
            "gbt_rmse": rmse,
            "persistence_mae": base_mae,
            "persistence_rmse": base_rmse,
        }
        total_n += len(y)
        gbt_abs += mae * len(y)
        base_abs += base_mae * len(y)
    overall = {
        "gbt_mae": gbt_abs / total_n if total_n else float("nan"),
        "persistence_mae": base_abs / total_n if total_n else float("nan"),
        "samples": total_n,
    }
    if args.model_out:
        save_demand_models(Path(args.model_out), models)
    if args.report_out:
        with open(args.report_out, "w") as fh:
            json.dump(
                {
                    "schema": "mealtwin-forecast-eval/1",
                    "grids": {str(g): v for g, v in per_grid.items()},
                    "overall": overall,
                },
                fh,
                sort_keys=True,
                indent=1,
            )
            fh.write("\n")
    print(
        f"holdout MAE: model {overall['gbt_mae']:.4f} vs persistence "
        f"{overall['persistence_mae']:.4f} over {total_n} samples"
    )
    return EXIT_OK


def cmd_snapshot(args) -> int:
    events = events_from_csv(Path(args.events))
    snapshot = None
    for ev in events:
        if ev.event == "snapshot" and ev.minute == args.minute:
            snapshot = ev.detail
            break
    if snapshot is None:
        raise ConfigError(f"event log has no snapshot for minute {args.minute}")
    if args.scenario:
        region = load_scenario(Path(args.scenario)).region
    else:
        region = default_scenario().region
    svg = render_snapshot(region, snapshot["idle"], snapshot["gap"], minute=args.minute)
    with open(args.out, "w") as fh:
        fh.write(svg)
        fh.write("\n")
    print(f"wrote snapshot for minute {args.minute} -> {args.out}")
    return EXIT_OK


def cmd_report(args) -> int:
    report = load_comparison(Path(args.comparison))
    if args.metrics_csv:
        write_metrics_csv(Path(args.metrics_csv), report)
    if args.pvalues_csv:
        write_pvalues_csv(Path(args.pvalues_csv), report)
    header = f"{'variant':<22}{'gap avg':>10}{'gap std':>10}{'overdue':>10}{'NSD':>10}{'PSD':>10}"
    print(header)
    for v in report.variants:
        agg = report.aggregates.get(v)
        if not agg:
            print(f"{v:<22}{'-':>10}")
            continue
        print(
            f"{v:<22}"
            f"{agg['time_gap_mean']['avg']:>10.2f}"
            f"{agg['time_gap_mean']['std']:>10.2f}"
            f"{agg['overdue_rate']['avg']:>10.2%}"
            f"{agg['nsd']['avg']:>10.2f}"
            f"{agg['psd']['avg']:>10.2f}"
        )
    return EXIT_OK


# ------------------------------------------------------------------- parsing


def _add_weight_flags(sub: argparse.ArgumentParser) -> None:
    for slot in WEIGHT_SLOTS:
        sub.add_argument(f"--{slot.replace('_', '-')}", dest=slot, default=None)


def _add_forecaster_flags(sub: argparse.ArgumentParser, default: Optional[str]) -> None:
    sub.add_argument("--forecaster", choices=("oracle", "gbt", "none"), default=default)
    sub.add_argument("--gbt-model", dest="gbt_model", default=None)
    sub.add_argument("--history", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mealtwin", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mealtwin {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("gen-scenario", help="write a scenario config file")
    p.add_argument("--out", required=True)
    p.add_argument("--cols", type=int, default=5)
    p.add_argument("--rows", type=int, default=5)
    p.add_argument("--restaurant-ids", dest="restaurant_ids", default=None)
    p.add_argument("--fleet", type=int, default=DEFAULT_FLEET_SIZE)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rate", type=float, default=8.4)
    p.add_argument("--half-rate", dest="half_rate", type=float, default=4.2)
    p.add_argument("--half-rate-grids", dest="half_rate_grids", default=None)
    p.add_argument("--start-hour", dest="start_hour", type=int, default=19)
    p.add_argument("--shift-minutes", dest="shift_minutes", type=int, default=120)
    p.set_defaults(func=cmd_gen_scenario)

    p = sub.add_parser("synth-history", help="generate synthetic weekly transactions")
    p.add_argument("--scenario", required=True)
    p.add_argument("--weeks", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_synth_history)

    p = sub.add_parser("train", help="run the three-phase sandwich training")
    p.add_argument("--config", default=None)
    p.add_argument("--scenario", default=None)
    p.add_argument("--mode", choices=(MODE_STRATEGIC, MODE_MYOPIC), default=None)
    p.add_argument("--episodes", default=None, help="three counts, e.g. 200,150,100")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--output-activation",
        dest="output_activation",
        choices=(ACT_LINEAR, ACT_RELU),
        default=None,
    )
    p.add_argument("--outdir", default=None)
    _add_forecaster_flags(p, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("simulate", help="run one shift and write its event log")
    p.add_argument("--scenario", required=True)
    p.add_argument("--variant", default="nearest_idle")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--events-out", dest="events_out", required=True)
    p.add_argument("--dispatch-trace", dest="dispatch_trace", default=None)
    p.add_argument("--steer-trace", dest="steer_trace", default=None)
    _add_weight_flags(p)
    _add_forecaster_flags(p, default="oracle")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate", help="compare framework variants over many shifts")
    p.add_argument("--config", default=None)
    p.add_argument("--scenario", default=None)
    p.add_argument("--shifts", type=int, default=None)
    p.add_argument("--eval-seed", dest="eval_seed", type=int, default=None)
    p.add_argument("--variants", default=None)
    p.add_argument("--outdir", default=None)
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="processes to run the shifts on (default 1, serial); each spawned "
        "worker pays about 0.6 s of CPU for its imports, so a pool is slower "
        "than a serial run on small studies",
    )
    _add_weight_flags(p)
    _add_forecaster_flags(p, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("forecast-eval", help="train the demand model and score a holdout")
    p.add_argument("--scenario", required=True)
    p.add_argument("--history", required=True)
    p.add_argument("--holdout", required=True)
    p.add_argument("--rounds", type=int, default=100)
    p.add_argument("--max-depth", dest="max_depth", type=int, default=4)
    p.add_argument("--shrinkage", type=float, default=0.1)
    p.add_argument("--min-leaf", dest="min_leaf", type=int, default=5)
    p.add_argument("--model-out", dest="model_out", default=None)
    p.add_argument("--report-out", dest="report_out", default=None)
    p.set_defaults(func=cmd_forecast_eval)

    p = sub.add_parser("snapshot", help="render one minute of an event log as SVG")
    p.add_argument("--events", required=True)
    p.add_argument("--minute", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scenario", default=None)
    p.set_defaults(func=cmd_snapshot)

    p = sub.add_parser("report", help="re-render tables from a comparison file")
    p.add_argument("--comparison", required=True)
    p.add_argument("--metrics-csv", dest="metrics_csv", default=None)
    p.add_argument("--pvalues-csv", dest="pvalues_csv", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.func(args)
    except (ConfigError, ContractError) as exc:
        print(f"mealtwin: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"mealtwin: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"mealtwin: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

"""Every loader of a saved JSON document either returns or raises ConfigError.

Each case starts from a valid saved document, replaces one drawn node (the
root, a container or a leaf) with a small drawn JSON value, writes it out
and loads it.  Integers stay small so that no damaged document asks numpy
for a large allocation.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mealtwin.cli import EXPERIMENT_SCHEMA, _load_experiment
from mealtwin.errors import ConfigError
from mealtwin.evaluate import RunMetrics, compare_frameworks, load_comparison, save_comparison
from mealtwin.forecast import (
    GBTEnsemble,
    GBTParams,
    RegressionTree,
    load_demand_models,
    save_demand_models,
)
from mealtwin.hexgrid import offset_rect_region
from mealtwin.rlcore import dispatch_qnet, load_qnet, save_qnet
from mealtwin.scenario import ScenarioConfig, load_scenario, make_rng, save_scenario


def _run(variant, run_id, gap):
    return RunMetrics(
        variant, run_id, 4, 3, 1, gap, 0.5, 1.5, 0.5, 0.25, -1.0, 2.0,
        (30.0, 20.0), (50.0, 60.0), (2, 1), (5, 3),
    )


def _save_scenario(path):
    rates = {1: {19: 6.0, 20: 6.0}}
    od = {1: {0: 0.5, 3: 0.5}}
    save_scenario(path, ScenarioConfig(offset_rect_region(2, 2, (1,)), rates, od, fleet_size=3))


def _save_weights(path):
    save_qnet(path, dispatch_qnet(2, hidden=3, rng=make_rng(1)), meta={"seed": 1})


def _save_models(path):
    tree = RegressionTree([2, -1, -1], [1.5, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [0.0, 1.0, 3.0])
    save_demand_models(path, {1: GBTEnsemble(0.5, 0.1, [tree], GBTParams(rounds=1))})


def _save_comparison(path):
    runs = {v: [_run(v, i, 1.0 + i + k) for i in range(2)] for k, v in enumerate(("a", "b"))}
    save_comparison(path, compare_frameworks(runs, variants=("a", "b")))


def _save_experiment(path):
    doc = {
        "schema": EXPERIMENT_SCHEMA,
        "scenario": "scenario.json",
        "episodes": [1, 1, 1],
        "variants": ["myopic"],
        "weights": {"myopic_dispatch": "dispatch.json"},
        "shifts": 2,
    }
    path.write_text(json.dumps(doc))


KINDS = {
    "scenario": (_save_scenario, load_scenario),
    "weights": (_save_weights, load_qnet),
    "forecast model": (_save_models, load_demand_models),
    "comparison": (_save_comparison, load_comparison),
    "experiment config": (_save_experiment, lambda path: _load_experiment(str(path))),
}

_leaves = st.none() | st.booleans() | st.integers(-3, 64) | st.text(max_size=3)
_short_keys = st.text(max_size=3)
_level1 = _leaves | st.lists(_leaves, max_size=3) | st.dictionaries(_short_keys, _leaves, max_size=3)
_values = _leaves | st.lists(_level1, max_size=3) | st.dictionaries(_short_keys, _level1, max_size=3)


def _paths(node, path=()):
    """The path of every node of a JSON document, the root's first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, path + (key,))


def _replaced(node, path, value):
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _replaced(node[path[0]], path[1:], value)
    return copy


@pytest.mark.parametrize("kind", KINDS)
def test_a_damaged_document_loads_or_raises_config_error(tmp_path_factory, kind):
    save, load = KINDS[kind]
    path = tmp_path_factory.mktemp("documents") / "doc.json"
    save(path)
    load(path)  # the undamaged document loads
    saved = json.loads(path.read_text())

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(node=st.sampled_from(list(_paths(saved))), value=_values)
    def damaged_document(node, value):
        path.write_text(json.dumps(_replaced(saved, node, value)))
        try:
            load(path)
        except ConfigError as exc:
            assert kind in str(exc)

    damaged_document()


@pytest.mark.parametrize("kind", ["scenario", "forecast model"])
def test_a_number_replaced_by_a_boolean_or_text_is_refused(tmp_path, kind):
    """Every number of these documents is read as one: a boolean or a
    numeric string in its place, which int() or float() would take, is
    refused."""
    save, load = KINDS[kind]
    path = tmp_path / "doc.json"
    save(path)
    saved = json.loads(path.read_text())
    numbers = [node for node in _paths(saved) if type(_leaf(saved, node)) in (int, float)]
    assert len(numbers) > 10
    for node in numbers:
        for value in (True, False, "1", "0.5"):
            path.write_text(json.dumps(_replaced(saved, node, value)))
            with pytest.raises(ConfigError, match=kind):
                load(path)


def _leaf(node, path):
    for key in path:
        node = node[key]
    return node

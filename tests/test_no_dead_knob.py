"""Guard: every key in `SCHEMA` changes what a run reports.

For each leaf of the schema, a small config of the leaf's section runs at
the resolved value and at other values the schema admits, and some report
byte must move. A setting no report reads cannot be observed, so it is
deleted, not kept. This is the config counterpart of test_no_dead_api.py.
"""

import copy

import pytest

from hemsim.config import SCHEMA, Key, SchemaError, validate_config
from hemsim.scenarios import execute_scenario

# Keys no report reads yet, each kept for a stated reason.
ALLOWED = {
    "description": "shown by `hemsim list` and `describe`, not by a run",
    "licensing.quota": "the quota lifecycle record keeps only its verdicts",
    "licensing.resource": "the quota lifecycle record keeps only its verdicts",
    "attack_matrix.counterfeit_trials": "sets how much work a row does; rows record only verdicts",
    "adversary.tier": "one value, `open`, kept because the bench config names it",
}

_LICENSING = {"fleet": {"count": 2}, "licensing": {"honest_licenses": 3, "fuzz_licenses": 6}}
_MATRIX = {"attack_matrix": {"counterfeit_trials": 10}}
# One small config per section, each set so that its keys can show:
# - network jitter is on, so its sigma counts;
# - the churn clock steps uniform(0.5, period / 10) ms, which scales with
#   the check period except near its 5 ms minimum;
# - the speedup is gentle enough that a trial's flag depends on
#   `fixed_overhead_ms`.
BASES = {
    "network": {"network": {
        "default_latency": {"jitter_median_ms": 1.0},
        "nodes": [{"id": "a", "lat": 0.0, "lon": 0.0}, {"id": "b", "lat": 10.0, "lon": 20.0},
                  {"id": "c", "lat": -30.0, "lon": 60.0}],
    }},
    "fleet": _LICENSING,
    "licensing": _LICENSING,
    # At the 5 ms minimum only: elsewhere the churn clock scales with the
    # period and no period moves a byte (a FOUND line in CHANGES.md).
    "cluster": {"cluster": {"chips": 3, "churn_events": 30, "check_period_ms": 5.0}},
    "geoloc": {"geoloc": {"trials": 3, "speedup_trials": 6, "latency_factor": 0.95,
                          "bft": {"trials": 2}, "descent_trials": 2}},
    "attest": {"attest": {"chips": 2, "snapshots": 3, "classifier_traces": 3,
                          "fragmentation_k": 1}},
    "adversary": _MATRIX,
    "attack_matrix": _MATRIX,
}


def _leaves(key: Key, path: tuple = (), name: str = "") -> list[tuple[str, tuple, Key]]:
    """(name, path, key) for every leaf; a list of objects is varied in its first item."""
    if key.kind is dict and key.fields:
        return [leaf for field, sub in key.fields.items()
                for leaf in _leaves(sub, path + (field,), f"{name}.{field}")]
    if key.kind is list and key.item is not None and key.item.fields:
        return _leaves(key.item, path + (0,), name + "[]")
    return [(name.lstrip("."), path, key)]


LEAVES = {name: (path, key) for name, path, key in _leaves(SCHEMA)}


def _base(path: tuple) -> dict:
    """The section config a leaf is varied in; top-level keys use licensing's."""
    return {"name": "knob", "seed": 1, **copy.deepcopy(BASES.get(path[0], _LICENSING))}


def _get(config: dict, path: tuple):
    for part in path:  # only a top-level key can be absent: `expect`
        config = config.get(part) if isinstance(config, dict) else config[part]
    return config


def _set(config: dict, path: tuple, value) -> dict:
    config = copy.deepcopy(config)
    node = config
    for part in path[:-1]:
        if isinstance(node, dict):
            node = node.setdefault(part, {})
        else:
            node = node[part]
    node[path[-1]] = value
    return config


def _alternatives(key: Key, value) -> list:
    """Candidate values other than `value`; the schema decides which it admits."""
    if key.kind is bool:
        return [not value]
    if key.kind is str:
        return [c for c in key.choices if c != value] if key.choices else [value + "-other"]
    if key.kind is int:
        return [value + 1, value - 1, value * 2, key.minimum]
    if key.kind is float:
        return [value * 1.5, value * 0.5, value + 1.0, key.minimum, key.maximum]
    if key.kind is list:
        return [value[:-1], value + value[-1:]]
    return [{"no_such_predicate": True}]  # `expect`, omitted by default


def _moves(name: str) -> tuple[bool, list]:
    """Whether some admitted alternative moves a report byte; the values tried."""
    path, key = LEAVES[name]
    base = _base(path)
    resolved = validate_config(base)
    value = _get(resolved, path)
    reports = execute_scenario(resolved).reports
    tried = []
    for candidate in _alternatives(key, value):
        if candidate is None or candidate == value or candidate in tried:
            continue
        try:
            config = validate_config(_set(base, path, candidate))
        except SchemaError:
            continue
        tried.append(candidate)
        if execute_scenario(config).reports != reports:
            return True, tried
    return False, tried


@pytest.mark.parametrize("name", sorted(set(LEAVES) - set(ALLOWED)))
def test_every_key_moves_a_report(name):
    moved, tried = _moves(name)
    assert moved, f"config.{name} changes no report byte at any of {tried}"


def test_allowlist_names_dead_keys():
    assert set(ALLOWED) <= set(LEAVES), \
        f"stale allowlist entries: {sorted(set(ALLOWED) - set(LEAVES))}"
    # A key that now moves a report has outlived its reason, so it leaves the list.
    live = sorted(name for name in ALLOWED if _moves(name)[0])
    assert not live, f"allowlisted but moves a report: {live}"

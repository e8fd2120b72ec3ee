"""Scenario configuration schema and strict validation.

Configs are JSON objects. Validation always checks types and value ranges
and fills defaults; strict mode additionally rejects unknown keys. Every
error names the offending path so a bad config is a one-line fix.
"""

from __future__ import annotations

import json
import math
from typing import Any, Optional

from .adversary import ATTACKS, TIER_CAPABILITIES, Tier
from .canon import U64_MAX
from .chipmodel import MeterResource

RESOURCE_NAMES = tuple(r.value for r in MeterResource)
POLICY_KINDS = ("capacitor_flush", "periodic_flush", "boot_roundup")
TIERS = tuple(t.value for t in Tier)
# Jitter is median * exp(sigma * z) with z from random.gauss, whose |z| never
# exceeds sqrt(-2 ln 2**-53) ~= 8.57 in CPython; exp overflows past ~709.78,
# so any sigma up to ~82 keeps every draw finite; 50 leaves a margin.
JITTER_SIGMA_MAX = 50.0


class SchemaError(ValueError):
    """Config rejected; the message names the offending path and key."""


def _fail(path: str, message: str) -> None:
    raise SchemaError(f"{path}: {message}")


def _require_dict(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, "must be an object")
    return value


def _get_bool(obj: dict, path: str, key: str, default: bool) -> bool:
    value = obj.get(key, default)
    if not isinstance(value, bool):
        _fail(f"{path}.{key}", "must be a boolean")
    return value


def _get_int(obj: dict, path: str, key: str, default: Optional[int],
             minimum: Optional[int] = None, maximum: Optional[int] = None) -> int:
    value = obj.get(key, default)
    if value is None:
        _fail(f"{path}.{key}", "is required")
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"{path}.{key}", "must be an integer")
    if minimum is not None and value < minimum:
        _fail(f"{path}.{key}", f"must be >= {minimum}")
    if maximum is not None and value > maximum:
        _fail(f"{path}.{key}", f"must be <= {maximum}")
    return value


def _get_num(obj: dict, path: str, key: str, default: Optional[float],
             minimum: Optional[float] = None, maximum: Optional[float] = None,
             exclusive_min: bool = False) -> float:
    value = obj.get(key, default)
    if value is None:
        _fail(f"{path}.{key}", "is required")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{path}.{key}", "must be a number")
    value = float(value)
    if not math.isfinite(value):  # Python's json reads Infinity and NaN
        _fail(f"{path}.{key}", "must be finite")
    if minimum is not None:
        if exclusive_min and value <= minimum:
            _fail(f"{path}.{key}", f"must be > {minimum}")
        if not exclusive_min and value < minimum:
            _fail(f"{path}.{key}", f"must be >= {minimum}")
    if maximum is not None and value > maximum:
        _fail(f"{path}.{key}", f"must be <= {maximum}")
    return value


def _get_str(obj: dict, path: str, key: str, default: Optional[str],
             choices: Optional[tuple[str, ...]] = None) -> str:
    value = obj.get(key, default)
    if value is None:
        _fail(f"{path}.{key}", "is required")
    if not isinstance(value, str):
        _fail(f"{path}.{key}", "must be a string")
    if choices is not None and value not in choices:
        _fail(f"{path}.{key}", f"must be one of {sorted(choices)}")
    return value


def _check_keys(obj: dict, path: str, allowed: set[str], strict: bool) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown and strict:
        _fail(f"{path}.{unknown[0]}", "unknown key (strict mode)")


def _validate_latency(obj: Any, path: str, strict: bool) -> dict:
    obj = _require_dict(obj, path)
    _check_keys(obj, path, {"kappa", "rho", "jitter_median_ms", "jitter_sigma",
                            "fixed_overhead_ms"}, strict)
    return {
        "kappa": _get_num(obj, path, "kappa", 0.67, minimum=0.0, maximum=1.0,
                          exclusive_min=True),
        "rho": _get_num(obj, path, "rho", 1.0, minimum=1.0),
        "jitter_median_ms": _get_num(obj, path, "jitter_median_ms", 0.0, minimum=0.0),
        "jitter_sigma": _get_num(obj, path, "jitter_sigma", 0.5, minimum=0.0,
                                 maximum=JITTER_SIGMA_MAX),
        "fixed_overhead_ms": _get_num(obj, path, "fixed_overhead_ms", 0.0, minimum=0.0),
    }


def _validate_region(obj: Any, path: str, strict: bool) -> dict:
    obj = _require_dict(obj, path)
    _check_keys(obj, path, {"lat_min", "lat_max", "lon_min", "lon_max",
                            "resolution_deg"}, strict)
    region = {
        "lat_min": _get_num(obj, path, "lat_min", -5.0, minimum=-90.0, maximum=90.0),
        "lat_max": _get_num(obj, path, "lat_max", 25.0, minimum=-90.0, maximum=90.0),
        "lon_min": _get_num(obj, path, "lon_min", -5.0, minimum=-180.0, maximum=180.0),
        "lon_max": _get_num(obj, path, "lon_max", 25.0, minimum=-180.0, maximum=180.0),
        "resolution_deg": _get_num(obj, path, "resolution_deg", 0.25, minimum=0.0,
                                   exclusive_min=True),
    }
    if region["lat_max"] <= region["lat_min"]:
        _fail(f"{path}.lat_max", "must exceed lat_min")
    if region["lon_max"] <= region["lon_min"]:
        _fail(f"{path}.lon_max", "must exceed lon_min")
    # The grid has round(extent / resolution) cells per axis; any other
    # count would leave part of the region, and its truths, off the grid.
    for axis in ("lat", "lon"):
        cells = (region[f"{axis}_max"] - region[f"{axis}_min"]) / region["resolution_deg"]
        if abs(cells - round(cells)) > 1e-9 * cells:
            _fail(f"{path}.resolution_deg", f"must split {axis}_max - {axis}_min into whole cells")
    return region


def _validate_network(obj: Any, path: str, strict: bool) -> dict:
    obj = _require_dict(obj, path)
    _check_keys(obj, path, {"default_latency", "nodes"}, strict)
    nodes_in = obj.get("nodes", [])
    if not isinstance(nodes_in, list):
        _fail(f"{path}.nodes", "must be a list")
    nodes = []
    seen = set()
    for i, node in enumerate(nodes_in):
        node_path = f"{path}.nodes[{i}]"
        node = _require_dict(node, node_path)
        _check_keys(node, node_path, {"id", "lat", "lon", "role"}, strict)
        node_id = _get_str(node, node_path, "id", None)
        if node_id in seen:
            _fail(f"{node_path}.id", "duplicate node id")
        seen.add(node_id)
        nodes.append({
            "id": node_id,
            "lat": _get_num(node, node_path, "lat", None, minimum=-90.0, maximum=90.0),
            "lon": _get_num(node, node_path, "lon", None),
            "role": _get_str(node, node_path, "role", "chip"),
        })
    return {
        "default_latency": _validate_latency(obj.get("default_latency", {}),
                                             f"{path}.default_latency", strict),
        "nodes": nodes,
    }


def _validate_fleet(obj: Any, path: str, strict: bool) -> dict:
    obj = _require_dict(obj, path)
    _check_keys(obj, path, {"count", "persistence"}, strict)
    persistence_in = _require_dict(obj.get("persistence", {}), f"{path}.persistence")
    _check_keys(persistence_in, f"{path}.persistence",
                {"kind", "flush_interval_ms", "roundup_increment"}, strict)
    kind = _get_str(persistence_in, f"{path}.persistence", "kind", "capacitor_flush",
                    choices=POLICY_KINDS)
    increment = _get_int(persistence_in, f"{path}.persistence", "roundup_increment",
                         1000 if kind == "boot_roundup" else 0, minimum=0)
    if kind == "boot_roundup" and increment <= 0:
        _fail(f"{path}.persistence.roundup_increment", "must be positive for boot_roundup")
    return {
        "count": _get_int(obj, path, "count", 4, minimum=1),
        "persistence": {
            "kind": kind,
            "flush_interval_ms": _get_num(persistence_in, f"{path}.persistence",
                                          "flush_interval_ms", 3_600_000.0,
                                          minimum=0.0, exclusive_min=True),
            "roundup_increment": increment,
        },
    }


def _validate_licensing(obj: Any, path: str, strict: bool) -> dict:
    obj = _require_dict(obj, path)
    _check_keys(obj, path, {"honest_licenses", "fuzz_licenses", "quota", "resource"}, strict)
    return {
        "honest_licenses": _get_int(obj, path, "honest_licenses", 100, minimum=1),
        "fuzz_licenses": _get_int(obj, path, "fuzz_licenses", 1000, minimum=0),
        "quota": _get_int(obj, path, "quota", 1000, minimum=1, maximum=U64_MAX),  # signed as u64
        "resource": _get_str(obj, path, "resource", "clock_cycles", choices=RESOURCE_NAMES),
    }


def _validate_cluster(obj: Any, path: str, strict: bool) -> dict:
    obj = _require_dict(obj, path)
    _check_keys(obj, path, {"chips", "cap", "check_period_ms", "churn_events",
                            "cap_lowerings", "bridge_multiplier_sweep"}, strict)
    sweep = obj.get("bridge_multiplier_sweep", [1.0, 2.0, 5.0, 10.0])
    if not isinstance(sweep, list) or not sweep:
        _fail(f"{path}.bridge_multiplier_sweep", "must be a nonempty list")
    for i, value in enumerate(sweep):
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value < 1.0:
            _fail(f"{path}.bridge_multiplier_sweep[{i}]", "must be a number >= 1")
    return {
        "chips": _get_int(obj, path, "chips", 12, minimum=2),
        "cap": _get_int(obj, path, "cap", 4, minimum=0),
        # The churn clock steps uniform(0.5, period / 10) ms per event. From
        # 5 ms up that is at most a tenth of a period, so each event brings at
        # most one check instant per node, and `last_check_ms += period` moves
        # while the clock stays below 2**52 periods. Shorter periods bring up
        # to 0.5 / period instants per node per event, and below the float
        # spacing of the clock the sum stops moving and the loop never ends.
        # Longer periods never come due, and the clock could overflow to inf.
        "check_period_ms": _get_num(obj, path, "check_period_ms", 60_000.0,
                                    minimum=5.0, maximum=1e12),
        "churn_events": _get_int(obj, path, "churn_events", 500, minimum=1),
        "cap_lowerings": _get_int(obj, path, "cap_lowerings", 2, minimum=0),
        "bridge_multiplier_sweep": [float(v) for v in sweep],
    }


def _validate_geoloc(obj: Any, path: str, strict: bool) -> dict:
    obj = _require_dict(obj, path)
    _check_keys(obj, path, {"trials", "landmarks_min", "landmarks_max", "region",
                            "jitter_median_ms", "jitter_sigma", "fixed_overhead_ms",
                            "speedup_trials", "latency_factor", "bft", "descent_trials"},
                strict)
    bft_in = _require_dict(obj.get("bft", {}), f"{path}.bft")
    _check_keys(bft_in, f"{path}.bft", {"n", "f", "trials"}, strict)
    out = {
        "trials": _get_int(obj, path, "trials", 60, minimum=1),
        "landmarks_min": _get_int(obj, path, "landmarks_min", 3, minimum=1),
        "landmarks_max": _get_int(obj, path, "landmarks_max", 9, minimum=1),
        "region": _validate_region(obj.get("region", {}), f"{path}.region", strict),
        "jitter_median_ms": _get_num(obj, path, "jitter_median_ms", 0.1, minimum=0.0),
        "jitter_sigma": _get_num(obj, path, "jitter_sigma", 0.5, minimum=0.0,
                                 maximum=JITTER_SIGMA_MAX),
        "fixed_overhead_ms": _get_num(obj, path, "fixed_overhead_ms", 0.5, minimum=0.0),
        "speedup_trials": _get_int(obj, path, "speedup_trials", 60, minimum=0),
        "latency_factor": _get_num(obj, path, "latency_factor", 0.5, minimum=0.0,
                                   maximum=1.0, exclusive_min=True),
        "bft": {
            "n": _get_int(bft_in, f"{path}.bft", "n", 7, minimum=1),
            "f": _get_int(bft_in, f"{path}.bft", "f", 2, minimum=0),
            "trials": _get_int(bft_in, f"{path}.bft", "trials", 30, minimum=1),
        },
        "descent_trials": _get_int(obj, path, "descent_trials", 15, minimum=0),
    }
    if out["landmarks_max"] < out["landmarks_min"]:
        _fail(f"{path}.landmarks_max", "must be >= landmarks_min")
    if out["bft"]["n"] < 3 * out["bft"]["f"] + 1:
        _fail(f"{path}.bft.n", "must be >= 3*f + 1 (Byzantine landmark bound)")
    return out


def _validate_attest(obj: Any, path: str, strict: bool) -> dict:
    obj = _require_dict(obj, path)
    _check_keys(obj, path, {"chips", "snapshots", "ops_per_interval", "threshold",
                            "rollback_demo", "classifier_traces", "fragmentation_k"},
                strict)
    out = {
        "chips": _get_int(obj, path, "chips", 4, minimum=1),
        "snapshots": _get_int(obj, path, "snapshots", 6, minimum=2),
        "ops_per_interval": _get_int(obj, path, "ops_per_interval", 125_000_000, minimum=0),
        "threshold": _get_int(obj, path, "threshold", 10**9, minimum=1),
        "rollback_demo": _get_bool(obj, path, "rollback_demo", True),
        "classifier_traces": _get_int(obj, path, "classifier_traces", 60, minimum=0),
        "fragmentation_k": _get_int(obj, path, "fragmentation_k", 4, minimum=1),
    }
    # A chip's last snapshot signs its cumulative meter as a u64.
    if (out["snapshots"] - 1) * out["ops_per_interval"] > U64_MAX:
        _fail(f"{path}.ops_per_interval", "times (snapshots - 1) must fit in u64")
    return out


def _validate_adversary(obj: Any, path: str, strict: bool) -> dict:
    obj = _require_dict(obj, path)
    _check_keys(obj, path, {"tier", "latency_factor", "compromised_landmarks"}, strict)
    return {
        "tier": _get_str(obj, path, "tier", "open", choices=TIERS),
        "latency_factor": _get_num(obj, path, "latency_factor", 0.5, minimum=0.0,
                                   maximum=1.0, exclusive_min=True),
        "compromised_landmarks": _get_int(obj, path, "compromised_landmarks", 2, minimum=0),
    }


def _check_tier_runs_matrix(tier: str) -> None:
    """The attack matrix runs every attack, so the tier must grant them all."""
    needed = frozenset().union(*(spec.required for spec in ATTACKS.values()))
    missing = needed - TIER_CAPABILITIES[Tier(tier)]
    if missing:
        _fail("config.adversary.tier", "does not grant capabilities the attack matrix "
                                       f"needs: {sorted(c.value for c in missing)}")


def _validate_attack_matrix(obj: Any, path: str, strict: bool) -> dict:
    obj = _require_dict(obj, path)
    _check_keys(obj, path, {"enabled", "counterfeit_trials"}, strict)
    return {
        "enabled": _get_bool(obj, path, "enabled", True),
        "counterfeit_trials": _get_int(obj, path, "counterfeit_trials", 2000, minimum=1),
    }


TOP_LEVEL_KEYS = {
    "name", "description", "seed", "network", "fleet", "licensing", "cluster",
    "geoloc", "attest", "adversary", "attack_matrix", "expect",
}


def validate_config(raw: Any, strict: bool = True) -> dict:
    """Validate and resolve a scenario config; returns the config with defaults.

    Raises SchemaError naming the offending path on the first problem found.
    """
    raw = _require_dict(raw, "config")
    _check_keys(raw, "config", TOP_LEVEL_KEYS, strict)
    resolved = {
        "name": _get_str(raw, "config", "name", None),
        "description": _get_str(raw, "config", "description", ""),
        "seed": _get_int(raw, "config", "seed", None, minimum=0),
    }
    if "network" in raw:
        resolved["network"] = _validate_network(raw["network"], "config.network", strict)
    if "fleet" in raw or "licensing" in raw:
        resolved["fleet"] = _validate_fleet(raw.get("fleet", {}), "config.fleet", strict)
    if "licensing" in raw:
        resolved["licensing"] = _validate_licensing(raw["licensing"], "config.licensing",
                                                    strict)
    if "cluster" in raw:
        resolved["cluster"] = _validate_cluster(raw["cluster"], "config.cluster", strict)
    if "geoloc" in raw:
        resolved["geoloc"] = _validate_geoloc(raw["geoloc"], "config.geoloc", strict)
    if "attest" in raw:
        resolved["attest"] = _validate_attest(raw["attest"], "config.attest", strict)
    if "adversary" in raw or "attack_matrix" in raw:
        resolved["adversary"] = _validate_adversary(raw.get("adversary", {}),
                                                    "config.adversary", strict)
    if "attack_matrix" in raw:
        resolved["attack_matrix"] = _validate_attack_matrix(
            raw["attack_matrix"], "config.attack_matrix", strict)
        if resolved["attack_matrix"]["enabled"]:
            _check_tier_runs_matrix(resolved["adversary"]["tier"])
    if "expect" in raw:
        expect = _require_dict(raw["expect"], "config.expect")
        for key, value in expect.items():
            if not isinstance(value, bool):
                _fail(f"config.expect.{key}", "must be a boolean")
        resolved["expect"] = dict(expect)
    return resolved


def load_config_file(path: str, strict: bool = True) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"config: file not found: {path}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config: invalid JSON in {path}: {exc}")
    return validate_config(raw, strict=strict)


def render_config(config: dict) -> str:
    return json.dumps(config, indent=2, sort_keys=True) + "\n"

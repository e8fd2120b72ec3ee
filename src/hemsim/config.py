"""Scenario configuration schema and validation.

Configs are JSON objects. Validation checks types and value ranges, fills
defaults, and rejects unknown keys; a config file must also be readable
UTF-8 JSON with no key repeated in an object. Every error names the
offending path so a bad config is a one-line fix.

`SCHEMA` declares every key once: its type, default and range. One walker
checks a config against it, then a short list of cross-field checks runs.
A key earns its place by changing what a run reports; one that no report
reads is deleted, not kept (tests/test_no_dead_knob.py holds this).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Optional

from .canon import U32_MAX, U64_MAX
from .chipmodel import MeterResource

RESOURCE_NAMES = tuple(r.value for r in MeterResource)
# Jitter is median * exp(sigma * z) with z from random.gauss, whose |z| never
# exceeds sqrt(-2 ln 2**-53) ~= 8.57 in CPython; exp overflows past ~709.78,
# so any sigma up to ~82 keeps every draw finite; 50 leaves a margin.
JITTER_SIGMA_MAX = 50.0
# Each estimator holds a few float64 layers of the whole grid per landmark;
# 2**20 cells is 8 MiB a layer and still admits the whole globe at the
# default 0.25-degree resolution (720 x 1440 cells).
MAX_GRID_CELLS = 2**20


class SchemaError(ValueError):
    """Config rejected; the message names the offending path and key."""


def _fail(path: str, message: str) -> None:
    raise SchemaError(f"{path}: {message}")


OMITTED = object()  # default of a key that stays out of the resolved config


@dataclass(frozen=True)
class Key:
    """One schema entry: `kind` is bool, int, float, str, list or dict.

    A default of None makes the key required. A dict with `fields` allows
    exactly those keys; a dict with `item` allows any key, each value an
    `item`. A list's `minimum` and `maximum` bound its length.
    """

    kind: type
    default: Any = None
    minimum: Any = None
    maximum: Any = None
    exclusive_min: bool = False
    choices: tuple = ()
    fields: dict = field(default_factory=dict)
    item: Optional[Key] = None


def _obj(default=OMITTED, **fields: Key) -> Key:
    return Key(dict, default, fields=fields)


SCHEMA = _obj(
    name=Key(str),
    description=Key(str, ""),
    seed=Key(int, minimum=0),
    network=_obj(
        default_latency=_obj(
            {},
            # A one-way delay is floor * rho + overhead + jitter, and the floor,
            # distance / (kappa c), is at most ~66.8 / kappa ms. Real media
            # carry signals at 0.5-0.99 c and real routes stretch a geodesic a
            # few times, so kappa >= 0.01 and rho <= 1000 keep the stretched
            # floor under 6.7e6 ms; a kappa of 5e-324 or a rho of 1e308
            # overflowed it to inf, which no JSON report can hold.
            kappa=Key(float, 0.67, minimum=0.01, maximum=1.0),
            rho=Key(float, 1.0, minimum=1.0, maximum=1000.0),
            # Jitter is median * exp(sigma * z) < median * e**429 (see
            # JITTER_SIGMA_MAX): a median up to 1e6 ms (~17 minutes) keeps it
            # under 1e193, where a median of 1e308 overflowed to inf.
            jitter_median_ms=Key(float, 0.0, minimum=0.0, maximum=1e6),
            jitter_sigma=Key(float, 0.5, minimum=0.0, maximum=JITTER_SIGMA_MAX),
            fixed_overhead_ms=Key(float, 0.0, minimum=0.0),
        ),
        # The smoke test sends one ping each way between every pair of nodes
        # and writes a record per ping: 256 nodes (65,280 pings) ran in 1.2-1.5 s
        # and 39 MB (tracemalloc peak), and 512 nodes in 7.2 s and 158 MB, on
        # a 2-core VM with Python 3.11.
        nodes=Key(list, [], maximum=256, item=_obj(
            id=Key(str),
            lat=Key(float, minimum=-90.0, maximum=90.0),
            lon=Key(float),
        )),
    ),
    fleet=_obj(
        # Each chip costs an ed25519 key generation (~60 us) and ~2.3 KB, and
        # the fuzz campaign signs at most two licenses for it (~0.14 ms).
        # 10,000 chips provision in under a second.
        count=Key(int, 4, minimum=1, maximum=10_000),
    ),
    licensing=_obj(
        # An honest license costs an ed25519 sign and verify (~0.22 ms), a fuzz
        # trial at most a verify (~0.1 ms), on one 2.1 GHz Xeon core: 100,000
        # honest licenses take about 22 s, and 100,000 fuzz trials on 10,000
        # chips took 12 s (provisioning and the campaign's 20,000 signs
        # included).
        honest_licenses=Key(int, 100, minimum=1, maximum=100_000),
        fuzz_licenses=Key(int, 1000, minimum=0, maximum=100_000),
        quota=Key(int, 1000, minimum=1, maximum=U64_MAX),  # signed as u64
        resource=Key(str, "clock_cycles", choices=RESOURCE_NAMES),
    ),
    cluster=_obj(
        # A chip costs ~0.2 ms to provision, enrol and adopt the cap; a churn
        # event ~0.14 ms (a handshake signs and verifies twice), and every
        # check instant, one per 10-20 events, visits each chip (~0.3 us).
        # 2,048 chips and 20,000 events at a 5 ms period took 16 s.
        chips=Key(int, 12, minimum=2, maximum=2048),
        cap=Key(int, 4, minimum=0, maximum=U32_MAX),  # signed as u32
        # The churn clock steps uniform(0.5, period / 10) ms per event. From
        # 5 ms up that is at most a tenth of a period, so each event brings at
        # most one check instant per node, and `last_check_ms += period` moves
        # while the clock stays below 2**52 periods. Shorter periods bring up
        # to 0.5 / period instants per node per event, and below the float
        # spacing of the clock the sum stops moving and the loop never ends.
        # Longer periods never come due, and the clock could overflow to inf.
        check_period_ms=Key(float, 60_000.0, minimum=5.0, maximum=1e12),
        churn_events=Key(int, 500, minimum=1, maximum=20_000),  # cost: see chips
        cap_lowerings=Key(int, 2, minimum=0),
        # The sweep sends 1 GB over a 1e8 bytes/ms link, so transit_ms is
        # 10 * multiplier and overflowed to inf past ~1.8e307; 1e6 (a transit
        # of ~2.8 hours) is far past any bridge penalty a host could impose.
        bridge_multiplier_sweep=Key(list, [1.0, 2.0, 5.0, 10.0], minimum=1,
                                    item=Key(float, minimum=1.0, maximum=1e6)),
    ),
    geoloc=_obj(
        # A containment or speedup trial tests its landmarks' disks in
        # stacked groups over the region's box: ~0.25 ms with 3-9 landmarks
        # on the default 30 x 30 degree grid, 1.5 ms with 64, and ~3 ms with
        # 64 on the whole globe at 0.25 degrees (about 2**20 cells), so
        # 10,000 trials take 2.5 to 30 s. Jitter that leaves a quarter of the
        # globe in the region costs ~0.1 s a trial there. Landmark counts
        # share the bound of `bft.n`.
        trials=Key(int, 60, minimum=1, maximum=10_000),
        landmarks_min=Key(int, 3, minimum=1, maximum=64),
        landmarks_max=Key(int, 9, minimum=1, maximum=64),
        region=_obj(
            {},
            lat_min=Key(float, -5.0, minimum=-90.0, maximum=90.0),
            lat_max=Key(float, 25.0, minimum=-90.0, maximum=90.0),
            lon_min=Key(float, -5.0, minimum=-180.0, maximum=180.0),
            lon_max=Key(float, 25.0, minimum=-180.0, maximum=180.0),
            resolution_deg=Key(float, 0.25, minimum=0.0, exclusive_min=True),
        ),
        jitter_median_ms=Key(float, 0.1, minimum=0.0),
        jitter_sigma=Key(float, 0.5, minimum=0.0, maximum=JITTER_SIGMA_MAX),
        # A distance bound is rtt / 2 - overhead; past ~1e15 ms the float
        # cancellation there swamps the propagation term (at 1e16 only 2 of
        # 20 honest trials contained the truth). 1e6 ms, the bound of the
        # network jitter median, keeps it to tens of micrometres.
        fixed_overhead_ms=Key(float, 0.5, minimum=0.0, maximum=1e6),
        speedup_trials=Key(int, 60, minimum=0, maximum=10_000),  # cost: see trials
        latency_factor=Key(float, 0.5, minimum=0.0, maximum=1.0, exclusive_min=True),
        # A quorum trial adds each of its n disks to a per-cell count: 1.1 ms
        # at n = 7 on the default grid, 6.5 ms at n = 64, and 0.41 s at n = 64
        # on the whole globe, where 500 trials take 3.5 minutes. f = 21 is
        # the most that n = 64 admits (n >= 3f + 1).
        bft=_obj(
            {},
            n=Key(int, 7, minimum=1, maximum=64),
            f=Key(int, 2, minimum=0, maximum=21),
            trials=Key(int, 30, minimum=1, maximum=500),
        ),
        # A zero-noise descent trial takes about 0.6 ms at any latitude (64
        # trials at 70-88 degrees took 0.04 s), so 2,000 trials take ~1.3 s.
        descent_trials=Key(int, 15, minimum=0, maximum=2_000),
    ),
    attest=_obj(
        # Each snapshot is signed, kept and verified: ~0.31 ms and ~1 KB
        # (256 chips x 128 snapshots ran in 10.3 s and 31 MB), so both
        # maxima together, 131,072 snapshots, take ~40 s and ~130 MB.
        chips=Key(int, 4, minimum=1, maximum=1024),
        snapshots=Key(int, 6, minimum=2, maximum=128),
        ops_per_interval=Key(int, 125_000_000, minimum=0),
        threshold=Key(int, 10**9, minimum=1),
        rollback_demo=Key(bool, True),
        # A trace is generated and classified in ~0.22 ms and then dropped:
        # 10,000 traces take about 2 s.
        classifier_traces=Key(int, 60, minimum=0, maximum=10_000),
        # The fragmentation demo builds a trace of 60 * k devices x 96 steps:
        # each k adds 45 KiB to every float64 layer, and about six layers are
        # live at once (~0.26 MB per k, measured). 128 keeps the demo near
        # 35 MB; 10**8 asked for 44 GB a layer and ended in MemoryError.
        fragmentation_k=Key(int, 4, minimum=1, maximum=128),
    ),
    adversary=_obj(
        # The matrix runs every attack, and only the open tier grants every
        # capability they require (`adversary.TIER_CAPABILITIES`).
        tier=Key(str, "open", choices=("open",)),
        latency_factor=Key(float, 0.5, minimum=0.0, maximum=1.0, exclusive_min=True),
    ),
    attack_matrix=_obj(
        enabled=Key(bool, True),
        # Each trial is a licensing fuzz trial on one chip (at most a verify,
        # ~0.08 ms): 100,000 trials ran in 8 s.
        counterfeit_trials=Key(int, 2000, minimum=1, maximum=100_000),
    ),
    expect=Key(dict, OMITTED, item=Key(bool)),
)


def _walk(key: Key, value: Any, path: str) -> Any:
    """Check `value` against `key`; returns it resolved, defaults filled."""
    if key.kind is dict:
        if not isinstance(value, dict):
            _fail(path, "must be an object")
        if key.item is not None:  # free keys, which reports print, so text too
            return {_walk(Key(str), name, f"{path}.{name}"): _walk(key.item, v, f"{path}.{name}")
                    for name, v in value.items()}
        unknown = sorted(set(value) - set(key.fields))
        if unknown:
            _fail(f"{path}.{unknown[0]}", "unknown key")
        out = {}
        for name, sub in key.fields.items():
            v = value.get(name, sub.default)
            if v is None and sub.kind in (int, float, str):  # null or no default
                _fail(f"{path}.{name}", "is required")
            if v is not OMITTED:
                out[name] = _walk(sub, v, f"{path}.{name}")
        return out
    if key.kind is list:
        if not isinstance(value, list) or len(value) < (key.minimum or 0):
            _fail(path, "must be a nonempty list" if key.minimum else "must be a list")
        if key.maximum is not None and len(value) > key.maximum:
            _fail(path, f"must have at most {key.maximum} items")
        return [_walk(key.item, v, f"{path}[{i}]") for i, v in enumerate(value)]
    if key.kind is bool:
        if not isinstance(value, bool):
            _fail(path, "must be a boolean")
        return value
    if key.kind is str:
        if not isinstance(value, str):
            _fail(path, "must be a string")
        if key.choices and value not in key.choices:
            _fail(path, f"must be one of {sorted(key.choices)}")
        try:
            value.encode("utf-8")  # reports are UTF-8; json reads lone surrogates
        except UnicodeEncodeError:
            _fail(path, "must be valid Unicode (no lone surrogates)")
        return value
    if key.kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            _fail(path, "must be an integer")
    else:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail(path, "must be a number")
        try:
            value = float(value)
        except OverflowError:  # an integer past the float range
            value = math.inf
        if not math.isfinite(value):  # Python's json reads Infinity and NaN
            _fail(path, "must be finite")
    if key.minimum is not None:
        if key.exclusive_min and value <= key.minimum:
            _fail(path, f"must be > {key.minimum}")
        if not key.exclusive_min and value < key.minimum:
            _fail(path, f"must be >= {key.minimum}")
    if key.maximum is not None and value > key.maximum:
        _fail(path, f"must be <= {key.maximum}")
    return value


def _check_region(region: dict, path: str) -> None:
    if region["lat_max"] <= region["lat_min"]:
        _fail(f"{path}.lat_max", "must exceed lat_min")
    if region["lon_max"] <= region["lon_min"]:
        _fail(f"{path}.lon_max", "must exceed lon_min")
    cells = {axis: (region[f"{axis}_max"] - region[f"{axis}_min"]) / region["resolution_deg"]
             for axis in ("lat", "lon")}
    if cells["lat"] * cells["lon"] > MAX_GRID_CELLS:  # may be inf: test before round()
        _fail(f"{path}.resolution_deg", f"must give at most {MAX_GRID_CELLS} grid cells")
    # The grid has round(extent / resolution) cells per axis; any other
    # count would leave part of the region, and its truths, off the grid.
    for axis, count in cells.items():
        if abs(count - round(count)) > 1e-9 * count:
            _fail(f"{path}.resolution_deg", f"must split {axis}_max - {axis}_min into whole cells")


def validate_config(raw: Any) -> dict:
    """Validate and resolve a scenario config; returns the config with defaults.

    Raises SchemaError naming the offending path on the first problem found.
    """
    if isinstance(raw, dict):
        # Licensing runs on a fleet and the attack matrix as an adversary, so
        # each section brings its companion, with the companion's defaults.
        raw = dict(raw)
        for section, companion in (("licensing", "fleet"), ("attack_matrix", "adversary")):
            if section in raw:
                raw.setdefault(companion, {})
    config = _walk(SCHEMA, raw, "config")

    seen = set()
    for i, node in enumerate(config.get("network", {}).get("nodes", [])):
        if node["id"] in seen:
            _fail(f"config.network.nodes[{i}].id", "duplicate node id")
        seen.add(node["id"])
    if "geoloc" in config:
        geoloc = config["geoloc"]
        _check_region(geoloc["region"], "config.geoloc.region")
        if geoloc["landmarks_max"] < geoloc["landmarks_min"]:
            _fail("config.geoloc.landmarks_max", "must be >= landmarks_min")
        # A speedup trial draws its landmark count from [max(3, min), max].
        if geoloc["speedup_trials"] and geoloc["landmarks_max"] < 3:
            _fail("config.geoloc.landmarks_max", "must be >= 3 when speedup_trials > 0")
        if geoloc["bft"]["n"] < 3 * geoloc["bft"]["f"] + 1:
            _fail("config.geoloc.bft.n", "must be >= 3*f + 1 (Byzantine landmark bound)")
    # Cap lowerings fall on distinct churn events; more of them than events
    # would only repeat instants, in a loop as long as the count.
    cluster = config.get("cluster")
    if cluster and cluster["cap_lowerings"] > cluster["churn_events"]:
        _fail("config.cluster.cap_lowerings", "must be <= churn_events")
    # A chip's last snapshot signs its cumulative meter as a u64.
    attest = config.get("attest")
    if attest and (attest["snapshots"] - 1) * attest["ops_per_interval"] > U64_MAX:
        _fail("config.attest.ops_per_interval", "times (snapshots - 1) must fit in u64")
    return config


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object's members; a repeated key would silently drop a value."""
    out = dict(pairs)
    if len(out) < len(pairs):
        repeated = [name for name, n in Counter(name for name, _ in pairs).items() if n > 1]
        raise SchemaError(f"repeated key {repeated[0]!r}")
    return out


def load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config: invalid JSON in {path}: {exc}")
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8, ...
        raise SchemaError(f"config: cannot read {path}: {exc}")
    except SchemaError as exc:
        raise SchemaError(f"config: {exc} in {path}")
    return validate_config(raw)


def render_config(config: dict) -> str:
    return json.dumps(config, indent=2, sort_keys=True) + "\n"

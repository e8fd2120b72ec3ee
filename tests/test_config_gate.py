"""Generative gate: every config the schema admits runs to a verdict.

The strategy walks `config.SCHEMA`, so the configs it draws and the ranges
the schema enforces come from one table. About half of its numbers are a
bound: a minimum, the float just past an exclusive minimum, or a maximum
such as `U64_MAX`. It shapes the few values a cross-field check ties
together: whole grid cells, `landmarks_min <= landmarks_max`,
`cap_lowerings <= churn_events`, `n >= 3f + 1` and the u64 meter product.
A drawn config either fails the schema or is run, and its reports
written, without any other exception and within a deadline. Every report
line must then parse as strict JSON: a NaN or Infinity token, which `json`
writes for a non-finite float and strict parsers refuse, fails the gate.
"""

import json
import math
import signal
import tempfile
from dataclasses import asdict
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from hemsim.adversary import _GRID
from hemsim.attest import DESK_SCALE_THRESHOLD_OPS
from hemsim.canon import U64_MAX
from hemsim.cluster import DEFAULT_CHECK_PERIOD_MS
from hemsim.config import MAX_GRID_CELLS, SCHEMA, Key, SchemaError, validate_config
from hemsim.geoloc import DEFAULT_GRID_RESOLUTION_DEG
from hemsim.netsim import LatencyModel
from hemsim.scenarios import execute_scenario, write_reports

# Keys that set how much work a run does are drawn no larger than MAX_COUNT:
# trial, license, chip, landmark, snapshot, trace and event counts, and the
# length of every list and map. The work of a run grows with each of them,
# so larger values make a run longer, not different. The geoloc region is drawn
# up to MAX_GRID_CELLS, and `bft.n` as 3f + 1 plus at most MAX_COUNT.
MAX_COUNT = 4
COUNT_KEYS = {
    "config.fleet.count", "config.licensing.honest_licenses",
    "config.licensing.fuzz_licenses", "config.cluster.chips", "config.cluster.churn_events",
    "config.cluster.cap_lowerings", "config.geoloc.trials", "config.geoloc.landmarks_min",
    "config.geoloc.landmarks_max", "config.geoloc.speedup_trials",
    "config.geoloc.descent_trials", "config.geoloc.bft.f", "config.geoloc.bft.trials",
    "config.attest.chips", "config.attest.snapshots", "config.attest.classifier_traces",
    "config.attest.fragmentation_k", "config.attack_matrix.counterfeit_trials",
}
DEADLINE_S = 20  # per example; a run still going then counts as a hang

# JSON strings may hold any code point, lone surrogates included.
TEXT = st.text(st.characters(exclude_categories=()), max_size=6)
GEOLOC = SCHEMA.fields["geoloc"]
REGION = GEOLOC.fields["region"]


def _values(key: Key, path: str) -> st.SearchStrategy:
    """Values that `key` admits."""
    if key.kind is dict:
        if key.item is not None:
            return st.dictionaries(TEXT, _values(key.item, path), max_size=MAX_COUNT)
        return _objects(key, path)
    if key.kind is list:
        return st.lists(_values(key.item, path), min_size=key.minimum or 0,
                        max_size=MAX_COUNT)
    if key.kind is bool:
        return st.booleans()
    if key.kind is str:
        return st.sampled_from(key.choices) if key.choices else TEXT
    if key.kind is int:
        high = MAX_COUNT if path in COUNT_KEYS else key.maximum
        return _with_edges(st.integers(key.minimum, high), key.minimum, high)
    low = key.minimum
    if key.exclusive_min:
        low = math.nextafter(low, math.inf)
    return _with_edges(st.floats(low, key.maximum, allow_nan=False, allow_infinity=False),
                       low, key.maximum)


def _with_edges(between: st.SearchStrategy, *edges) -> st.SearchStrategy:
    """`between`, or one of the finite `edges`, each about as often."""
    edges = [e for e in edges if e is not None]
    return st.one_of(st.sampled_from(edges), between) if edges else between


@st.composite
def _objects(draw, key: Key, path: str) -> dict:
    """Every required or count key, and each other key half of the time."""
    return {name: draw(_values(sub, f"{path}.{name}"))
            for name, sub in key.fields.items()
            if sub.default is None or f"{path}.{name}" in COUNT_KEYS or draw(st.booleans())}


@st.composite
def _regions(draw) -> dict:
    """A region of whole cells, at most MAX_GRID_CELLS of them."""
    lat_span = REGION.fields["lat_max"].maximum - REGION.fields["lat_min"].minimum
    lon_span = REGION.fields["lon_max"].maximum - REGION.fields["lon_min"].minimum
    n_lat = draw(_with_edges(st.integers(1, 1024), 1, 1024))
    n_lon = draw(_with_edges(st.integers(1, MAX_GRID_CELLS // n_lat), 1,
                             MAX_GRID_CELLS // n_lat))
    widest = min(lat_span / n_lat, lon_span / n_lon)
    resolution = draw(_with_edges(st.floats(0.0, widest, exclude_min=True), widest))
    region = {"resolution_deg": resolution}
    for axis, cells in (("lat", n_lat), ("lon", n_lon)):
        low = REGION.fields[f"{axis}_min"].minimum
        high = REGION.fields[f"{axis}_max"].maximum - cells * resolution
        region[f"{axis}_min"] = draw(_with_edges(st.floats(low, max(low, high)), low))
        region[f"{axis}_max"] = region[f"{axis}_min"] + cells * resolution
    return region


@st.composite
def configs(draw) -> dict:
    config = draw(_objects(SCHEMA, "config"))
    geoloc = config.get("geoloc")
    if geoloc is not None:
        if draw(st.booleans()):
            geoloc["region"] = draw(_regions())
        else:  # drawn key by key, a region is rarely whole cells
            geoloc.pop("region", None)
        bounds = [geoloc.get(k, GEOLOC.fields[k].default)
                  for k in ("landmarks_min", "landmarks_max")]
        geoloc["landmarks_min"], geoloc["landmarks_max"] = sorted(bounds)
        if "bft" not in geoloc:  # its default trial count is past MAX_COUNT
            geoloc["bft"] = draw(_values(GEOLOC.fields["bft"], "config.geoloc.bft"))
        bft = geoloc["bft"]
        bft["n"] = 3 * bft["f"] + 1 + draw(_with_edges(st.integers(0, MAX_COUNT), 0))
    cluster = config.get("cluster")
    if cluster is not None:
        cluster["cap_lowerings"], cluster["churn_events"] = sorted(
            (cluster["cap_lowerings"], cluster["churn_events"]))
    attest = config.get("attest")
    if attest is not None:
        snapshots = attest.get("snapshots", SCHEMA.fields["attest"].fields["snapshots"].default)
        most = U64_MAX // (snapshots - 1)
        attest["ops_per_interval"] = draw(_with_edges(st.integers(0, most), most))
    return config


def _on_deadline(signum, frame):
    raise TimeoutError(f"example still running after {DEADLINE_S} s")


def _refuse_constant(token: str):
    raise ValueError(f"non-finite number {token} in a report")


def _parse_strictly(path: Path) -> None:
    """Parse a written report, each line of a .jsonl, refusing NaN and Infinity."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        json.loads(text, parse_constant=_refuse_constant)
    elif path.suffix == ".jsonl":
        for line in text.splitlines():
            json.loads(line, parse_constant=_refuse_constant)


@settings(max_examples=150, deadline=None)
@given(configs())
# Each of these once exited 3 (an uncaught exception) at a schema-valid config.
@example({"name": "x", "seed": 1, "geoloc": {"region": {"resolution_deg": 1e-320}}})
@example({"name": "x", "seed": 1, "geoloc": {"region": {"resolution_deg": 0.0001}}})
@example({"name": "x", "seed": 1, "geoloc": {"trials": 1, "landmarks_min": 1,
                                             "landmarks_max": 2, "speedup_trials": 1}})
@example({"name": "x", "seed": 1, "cluster": {"cap": 2**32, "churn_events": 1}})
@example({"name": "x", "seed": 1, "cluster": {"check_period_ms": 10**400}})
@example({"name": "x\ud800", "seed": 1, "attest": {"chips": 1}})
# At these bounds each latency and transit the reports hold stays finite.
@example({"name": "x", "seed": 1, "cluster": {"chips": 2, "churn_events": 1,
                                              "cap_lowerings": 1,
                                              "bridge_multiplier_sweep": [1e6]}})
@example({"name": "x", "seed": 1, "network": {
    "default_latency": {"kappa": 0.01, "rho": 1000.0, "jitter_median_ms": 1e6,
                        "jitter_sigma": 50.0, "fixed_overhead_ms": 1.7e308},
    "nodes": [{"id": "a", "lat": 90.0, "lon": 0.0}, {"id": "b", "lat": -90.0, "lon": 0.0}]}})
def test_every_admitted_config_reaches_a_verdict(raw):
    raw = json.loads(json.dumps(raw))  # what a config file holds
    try:
        config = validate_config(raw)
    except SchemaError:
        return
    previous = signal.signal(signal.SIGALRM, _on_deadline)
    signal.alarm(DEADLINE_S)
    try:
        outcome = execute_scenario(config)
        with tempfile.TemporaryDirectory() as out:
            for path in write_reports(outcome, Path(out)):
                _parse_strictly(path)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_schema_defaults_equal_the_module_constants():
    # `config` may not import the section modules, so it restates these
    # defaults; each must still equal the constant the simulator runs on.
    latency = SCHEMA.fields["network"].fields["default_latency"].fields
    assert {name: key.default for name, key in latency.items()} == asdict(LatencyModel())
    assert GEOLOC.fields["jitter_sigma"].default == LatencyModel.jitter_sigma
    assert SCHEMA.fields["cluster"].fields["check_period_ms"].default == DEFAULT_CHECK_PERIOD_MS
    assert SCHEMA.fields["attest"].fields["threshold"].default == DESK_SCALE_THRESHOLD_OPS
    # The attack rows' grid is the default region, so the estimators see one grid.
    region = {name: key.default for name, key in GEOLOC.fields["region"].fields.items()}
    assert region == asdict(_GRID)
    assert region["resolution_deg"] == DEFAULT_GRID_RESOLUTION_DEG

"""Guard: every benchmark workload reaches a passing verdict with pinned bytes.

`perfbench/run.py` rejects a run whose predicates fail ("outputs incorrect"),
so a change that breaks a bench workload's predicates would first show up in
a bench run. These tests build each workload's config with
`perfbench/workloads.py` at the seeds the bench uses, require every
predicate to pass, and pin the sha256 of every report the execution writes.
They read that file without importing it as a package (nothing is written
under perfbench/) and change nothing there.

They also pin how many ed25519 verifications each execution computes:
`canon.verify` answers repeats of a (key, message, signature) from a memo
that lasts one execution, so the count is the number of distinct signed
messages checked, and it is the same for every execution in a process.
Next to those they pin the network work of each `attack_breadth` execution:
the great-circle distances computed and the events the `Simulator`
delivered; and the grid work of each `geoloc_grid` execution: the
`GridSpec.within_km` calls and the disk-cells they test.

Last, they check the bench's bypass facts, the functions a workload must
never call, with the bench's own `perfbench/tracer.py` counting calls
wherever a hemsim module binds the function, so a change that breaks one
fails here and not first in a bench run.

The digests are regenerated only on purpose, as the goldens under
`tests/goldens/` are: by a change that means to move report bytes and says
which bytes moved and why.
"""

import functools
import hashlib
import sys
import types
from pathlib import Path

import pytest

from hemsim import geoloc, netsim, scenarios
from hemsim.config import validate_config
from hemsim.scenarios import ScenarioOutcome, execute_scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str) -> types.ModuleType:
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


BENCH = _load("workloads")
TRACER = _load("tracer")
SEEDS = (1, 4242)

REPORT_SHA256 = {
    ("attack_breadth", 1): {
        "attack_matrix.txt":
            "e99723d42890d172873ed68149aaf39ef4580576fff1e6ebe493e5ce77b92e7c",
        "attacks.jsonl":
            "63060f7a05ca645996885bff168622e74b9cf26830ece59ce898deb1e776e1ad",
        "network.jsonl":
            "f0694be323ed807dcd2bd2b8cbc9aa2143985f622c746d1db4d7e1360f2352a7",
        "summary.json":
            "155948d2b7abfb2f1a2c35fd60fff0b659964635cd0e15c1bbb824762da7deae",
        "summary.txt":
            "f5b3df62afcc5246aeecc65e1ee57d144ca7be2a8ae1811d22a4b0d2d09aedf2",
    },
    ("attack_breadth", 4242): {
        "attack_matrix.txt":
            "e99723d42890d172873ed68149aaf39ef4580576fff1e6ebe493e5ce77b92e7c",
        "attacks.jsonl":
            "63060f7a05ca645996885bff168622e74b9cf26830ece59ce898deb1e776e1ad",
        "network.jsonl":
            "fa3da8d7596ea60a6efec6a7f98751efdeb1370d1bf25363937cc6bcca5797f6",
        "summary.json":
            "066afc7beed256b5c77fd6b2a35fc9a31a428f6ad005ccaf09c7d199cd3414ad",
        "summary.txt":
            "f5b3df62afcc5246aeecc65e1ee57d144ca7be2a8ae1811d22a4b0d2d09aedf2",
    },
    ("geoloc_grid", 1): {
        "geoloc.jsonl":
            "598476e72e1cb472e17a8524b59acb063c67af025afe62dc8175f99c68ef167b",
        "summary.json":
            "ecedc409d1564087fabdf8b9edd283d52bc03d37d368ff6f4de557dbc18b4d8b",
        "summary.txt":
            "7cd9306f22492b95a85b8adb649f130d18bd85f93f7a3e30eb52a432bbbd2155",
    },
    ("geoloc_grid", 4242): {
        "geoloc.jsonl":
            "4955d9fa3c1c6dce6c25720de10c10cf589a4566f38b8c26dcfc1a169dacfbfa",
        "summary.json":
            "9cd5ac60dcd538df5f753c5eaa1ceace67ffba3e29a59bd5368b1f379d4ce8a8",
        "summary.txt":
            "7cd9306f22492b95a85b8adb649f130d18bd85f93f7a3e30eb52a432bbbd2155",
    },
    ("signed_fleet", 1): {
        "attest.jsonl":
            "fca303226e53ed8dc7871ad09c61f23dbf44caa05874022a56aa93315bcc8cc3",
        "cluster.jsonl":
            "c7bdfb1e685e820a0ca4f8bd4db32bf7f9f1bbc44a5e80641996c621f8bda0d0",
        "licensing.jsonl":
            "8c7f682b3c4b95d45f42baca9c319a1396b646f9d198ff990e6d1f9dc13cb70e",
        "summary.json":
            "7b811e56bbab15c0d7742aedca4db93c8849dfa58c9a5dfcb1f621c34cdb4d04",
        "summary.txt":
            "cd969e85d72b372e7e1b6f8ac0136fdbaebf3ea4cbcaeeaeabed67d9abd2e948",
    },
    ("signed_fleet", 4242): {
        "attest.jsonl":
            "3ceabdb4353c5147211cf3a589f3bb20160b460a7c161954a9b6e9cf8d7e9dee",
        "cluster.jsonl":
            "e8b2ad19a2224a7a2970c1e61033f4edc3e930ceb6fcf79811605b3585f9c748",
        "licensing.jsonl":
            "71975dde2471a98c92ac865f3a965604e27f3a8367dc977052370a1fc5395236",
        "summary.json":
            "c1bce16191f87fee7a638432bb515508ca7815496ed155ec328c0fc6b83aff1b",
        "summary.txt":
            "cd969e85d72b372e7e1b6f8ac0136fdbaebf3ea4cbcaeeaeabed67d9abd2e948",
    },
}

# ed25519 verifications computed in one execution.
REAL_VERIFIES = {
    ("attack_breadth", 1): 164,
    ("attack_breadth", 4242): 167,
    ("geoloc_grid", 1): 0,
    ("geoloc_grid", 4242): 0,
    ("signed_fleet", 1): 3182,
    ("signed_fleet", 4242): 3147,
}

# Per attack_breadth execution: (calls of `netsim.geodesic_distance` from any
# hemsim module, events `Simulator.run_until` delivered). A `Network` computes
# each ordered pair's distance once, so the ping section's 1,560 sends and
# their floors take 1,560 distances, not 3,120.
NETSIM_WORK = {
    ("attack_breadth", 1): (1596, 1578),
    ("attack_breadth", 4242): (1596, 1578),
}

# Per geoloc_grid execution: (calls of `GridSpec.within_km`, the cells they
# test summed over each call's disks). A CBG region is built once, and its
# `contains`, `empty` and `cell_count` read that one result; a build whose
# disk windows leave no cell makes no call. A fault-tolerant region's
# `contains` tests one cell against all of its disks, so that campaign,
# which asks only whether its region holds the truth, builds no mask.
GEOLOC_WORK = {
    ("geoloc_grid", 1): (215, 188913),
    ("geoloc_grid", 4242): (220, 186183),
}


@functools.cache
def _execute(name: str, seed: int) -> ScenarioOutcome:
    """One execution per (workload, seed), shared by the tests below."""
    return execute_scenario(validate_config(BENCH.build(name, seed)))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", BENCH.NAMES)
def test_bench_workload_predicates_pass(name, seed):
    outcome = _execute(name, seed)
    failed = [(p.name, p.detail) for p in outcome.predicates if not p.passed]
    assert outcome.predicates and not failed, failed
    assert outcome.passed


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", BENCH.NAMES)
def test_bench_workload_report_digests_are_pinned(name, seed):
    digests = {filename: hashlib.sha256(text.encode("utf-8")).hexdigest()
               for filename, text in _execute(name, seed).reports.items()}
    assert digests == REPORT_SHA256[(name, seed)]


def test_every_workload_and_seed_is_pinned():
    pinned = {(name, seed) for name in BENCH.NAMES for seed in SEEDS}
    assert set(REPORT_SHA256) == set(REAL_VERIFIES) == pinned


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", BENCH.NAMES)
def test_bench_workload_real_verifies_are_pinned(name, seed, ed25519_verifies):
    execute_scenario(validate_config(BENCH.build(name, seed)))
    assert len(ed25519_verifies) == REAL_VERIFIES[(name, seed)]


def test_no_verify_is_remembered_from_an_earlier_execution(ed25519_verifies):
    config = validate_config(BENCH.build("attack_breadth", 1))
    counts = []
    for _ in range(2):
        ed25519_verifies.clear()
        execute_scenario(config)
        counts.append(len(ed25519_verifies))
    assert counts == [REAL_VERIFIES[("attack_breadth", 1)]] * 2


@pytest.mark.parametrize("name, seed", sorted(NETSIM_WORK))
def test_bench_workload_netsim_work_is_pinned(name, seed, monkeypatch):
    distances, events = [], []
    real_distance, real_run_until = netsim.geodesic_distance, netsim.Simulator.run_until

    def geodesic_distance(*args):
        distances.append(args)
        return real_distance(*args)

    def run_until(self, time):
        delivered = real_run_until(self, time)
        events.extend(delivered)
        return delivered

    # Every module that bound the function by name calls it through its own binding.
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("hemsim.") and vars(module).get(
                "geodesic_distance") is real_distance:
            monkeypatch.setattr(module, "geodesic_distance", geodesic_distance)
    monkeypatch.setattr(netsim.Simulator, "run_until", run_until)
    execute_scenario(validate_config(BENCH.build(name, seed)))
    assert (len(distances), len(events)) == NETSIM_WORK[(name, seed)]


@pytest.mark.parametrize("name, seed", sorted(GEOLOC_WORK))
def test_bench_workload_geoloc_work_is_pinned(name, seed, monkeypatch):
    cells = []
    real_within_km = geoloc.GridSpec.within_km

    def within_km(self, *args, **kwargs):
        planes = real_within_km(self, *args, **kwargs)
        cells.append(planes.size)
        return planes

    monkeypatch.setattr(geoloc.GridSpec, "within_km", within_km)
    execute_scenario(validate_config(BENCH.build(name, seed)))
    assert (len(cells), sum(cells)) == GEOLOC_WORK[(name, seed)]


def test_geoloc_only_execution_builds_no_bft_mask(monkeypatch):
    estimates = []
    real_estimate_bft = scenarios.estimate_bft

    def estimate_bft(*args, **kwargs):
        estimates.append(real_estimate_bft(*args, **kwargs))
        return estimates[-1]

    monkeypatch.setattr(scenarios, "estimate_bft", estimate_bft)
    outcome = execute_scenario(validate_config(BENCH.build("geoloc_grid", 1)))
    assert outcome.passed and estimates
    assert [est for est in estimates if "mask" in vars(est)] == []


@pytest.mark.parametrize("name", sorted({fact["workload"] for fact in BENCH.SPEC["bypass_facts"]}))
def test_bench_bypass_facts_hold(name):
    facts = {fact["metric"].removesuffix(".calls"): fact["equals"]
             for fact in BENCH.bypass_facts(name)}
    sentinel = TRACER.Tracer()
    sentinel.install(set(facts), count_only=True)
    try:
        assert set(facts) <= set(sentinel.stats)  # every named function is wrapped
        execute_scenario(validate_config(BENCH.build(name, BENCH.DEFAULT_SEED)))
    finally:
        sentinel.uninstall()
    assert {span: sentinel.calls(span) for span in facts} == facts

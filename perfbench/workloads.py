"""Benchmark workloads: hemsim scenario configs made from a seed.

Sizes, reasons, predictions and bypass facts live in `workloads.json`,
next to this file, so the harness and its notes read one copy.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

SPEC = json.loads((Path(__file__).with_name("workloads.json")).read_text(encoding="utf-8"))
DEFAULT_SEED: int = SPEC["default_seed"]
NAMES: tuple[str, ...] = tuple(SPEC["workloads"])


def _network(rng: random.Random, count: int) -> dict:
    """`count` nodes scattered over the inhabited latitudes."""
    return {"nodes": [
        {"id": f"n{i:02d}", "lat": round(rng.uniform(-60.0, 60.0), 6),
         "lon": round(rng.uniform(-180.0, 180.0), 6)}
        for i in range(count)
    ]}


def build(name: str, seed: int) -> dict:
    """The raw (unvalidated) scenario config of workload `name` at `seed`."""
    spec = SPEC["workloads"][name]
    seed %= 2**32  # the scenario schema takes non-negative seeds only
    config = {"name": f"bench_{name}", "seed": seed,
              **json.loads(json.dumps(spec["sections"]))}
    if "network_nodes" in spec:
        config["network"] = _network(random.Random(seed), spec["network_nodes"])
    return config


def bypass_facts(name: str) -> list[dict]:
    return [fact for fact in SPEC["bypass_facts"] if fact["workload"] == name]

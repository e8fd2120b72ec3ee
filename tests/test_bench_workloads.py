"""Guard: every benchmark workload reaches a passing verdict.

`perfbench/run.py` rejects a run whose predicates fail ("outputs incorrect"),
so a change that breaks a bench workload's predicates would first show up in
a bench run. This test builds each workload's config with
`perfbench/workloads.py` at the seeds the bench uses and requires every
predicate to pass. It reads that file without importing it as a package
(nothing is written under perfbench/) and changes nothing there.
"""

import types
from pathlib import Path

import pytest

from hemsim.config import validate_config
from hemsim.scenarios import execute_scenario

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads() -> types.ModuleType:
    module = types.ModuleType("workloads")
    module.__file__ = str(WORKLOADS)
    exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"),
         module.__dict__)
    return module


BENCH = _workloads()


@pytest.mark.parametrize("seed", [1, 4242])
@pytest.mark.parametrize("name", BENCH.NAMES)
def test_bench_workload_predicates_pass(name, seed):
    outcome = execute_scenario(validate_config(BENCH.build(name, seed)))
    failed = [(p.name, p.detail) for p in outcome.predicates if not p.passed]
    assert outcome.predicates and not failed, failed
    assert outcome.passed

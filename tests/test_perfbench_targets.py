"""Guard: every function the perfbench tracer wraps still exists in hemsim.

`perfbench/tracer.py` names its targets as (module, dotted attribute path)
strings and resolves them only when a traced run starts, so a rename in
src/ would surface as a KeyError in `perfbench/run.py --trace 1`. This test
reads the `TARGETS` table from the tracer's source, without importing or
changing anything under perfbench/, and resolves each entry the way
`Tracer.install` does.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _targets() -> list[tuple[str, str, str]]:
    """(span name, module, attribute path) of each `TARGETS` entry."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return [tuple(ast.literal_eval(elt) for elt in entry.elts[:3])
                    for entry in node.value.elts]
    raise AssertionError(f"no TARGETS table in {TRACER}")


def test_tracer_has_targets():
    assert len(_targets()) > 0


@pytest.mark.parametrize("name, module, attr", _targets())
def test_tracer_target_resolves(name, module, attr):
    owner = importlib.import_module(f"hemsim.{module}")
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert leaf in vars(owner), f"{name}: hemsim.{module}.{attr} is gone"
    assert callable(vars(owner)[leaf]), f"{name}: hemsim.{module}.{attr} is not callable"


def test_worker_import_loads_every_target_module():
    # `Tracer.install` finds each module in `sys.modules` after the worker's
    # one import, so a module that `src/` imports lazily would fail a traced
    # run even though `importlib` resolves it above.
    modules = sorted({module for _, module, _ in _targets()})
    probe = ("import sys; from hemsim import config, scenarios; "
             f"print([m for m in {modules!r} if 'hemsim.' + m not in sys.modules])")
    out = subprocess.run([sys.executable, "-c", probe],
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                         timeout=60, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"

"""Guard: every top-level definition in src/hemsim is used somewhere in src/.

A module-level function, class or constant, or a non-dunder method of a
module-level class, whose name occurs in src/ only at its own definition is
reached from tests alone, or from nothing. Such code is deleted, not kept.
Comments and plain strings do not count as uses; f-string expressions do.

Likewise every parameter of a src/ function or method is read in its body:
a parameter that nothing reads is API a caller must fill in for nothing.
And every record field, a `@dataclass` field or an attribute that `__init__`
sets on `self`, is read as an attribute somewhere in src/: a field that
nothing reads is state every constructor fills in for nothing.
"""

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

import hemsim

SRC = Path(hemsim.__file__).resolve().parent

# Definitions nothing in src/ uses yet, each kept for a stated reason.
ALLOWED = {
    "__version__": "the conventional package version attribute, read from outside src/",
    "distances_km": "perfbench traces it; the within_km exactness tests compare against it",
}


def _is_attack_body(node: ast.AST) -> bool:
    """`@attack(...)` registers the body; its name is never referenced."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "attack"
               for d in getattr(node, "decorator_list", ()))


def _definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not _is_attack_body(node):
                names.append(node.name)
        elif isinstance(node, ast.ClassDef):
            names.append(node.name)
            names.extend(item.name for item in node.body
                         if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and not (item.name.startswith("__") and item.name.endswith("__")))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _name_uses(source: str) -> Counter:
    """Identifier occurrences, counting names inside f-strings but not comments."""
    uses = Counter()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            uses[tok.string] += 1
        elif tok.type == tokenize.STRING and "f" in re.match(r"\w*", tok.string)[0].lower():
            uses.update(re.findall(r"[A-Za-z_]\w*", tok.string))  # before Python 3.12
    return uses


def _scan() -> tuple[set[str], set[str]]:
    defined: list[str] = []
    uses = Counter()
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        defined.extend(_definitions(ast.parse(source)))
        uses += _name_uses(source)
    # A name defined k times is dead when it occurs only at those k definitions.
    counts = Counter(defined)
    dead = {name for name in counts if uses[name] <= counts[name]}
    return set(defined), dead


def test_no_definition_is_used_only_by_tests():
    _, dead = _scan()
    assert dead <= set(ALLOWED), f"unused outside tests: {sorted(dead - set(ALLOWED))}"


def test_allowlist_names_existing_definitions():
    defined, dead = _scan()
    assert set(ALLOWED) <= defined, f"stale allowlist entries: {sorted(set(ALLOWED) - defined)}"
    # An entry that src/ now uses has outlived its reason, so it leaves the list.
    assert set(ALLOWED) <= dead, f"allowlisted but used in src/: {sorted(set(ALLOWED) - dead)}"


def _unread_parameters(tree: ast.Module) -> list[str]:
    """`name(param)` for each parameter its function's body never reads.

    `@attack` bodies are exempt, since `(profile, rng)` is the signature
    `run_attack` calls, and so are lambdas, which are callback signatures.
    A leading underscore marks a parameter a dispatch signature requires
    but the body does not need.
    """
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or _is_attack_body(node):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a is not None]
        read = {n.id for statement in node.body for n in ast.walk(statement)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread.extend(f"{node.name}({param})" for param in params
                      if param not in read and not param.startswith("_"))
    return unread


def test_no_unread_parameter():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        unread.extend(f"{path.name}: {entry}" for entry in _unread_parameters(tree))
    assert unread == [], f"parameters no body reads: {unread}"


# Record fields nothing in src/ reads yet, each kept for a stated reason.
ALLOWED_FIELDS = {
    "AttackOutcome.evidence": "ROADMAP item 6 writes each row's evidence out to the report",
    "AttestReport.incomplete": "ROADMAP item 1's verdict reads it to refuse a partial report",
    "DescentResult.converged": "ROADMAP item 6 can record it in each descent_trial",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def _record_fields(tree: ast.Module) -> list[str]:
    """`Class.field` for each field of a module-level class.

    A dataclass's fields are its annotated class attributes; any class's
    fields include what its `__init__` assigns to `self`. The records that
    `canon.Doc.record` builds are not class statements, so they are not
    scanned: their fields are a signed document's wire format.
    """
    fields = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        if _is_dataclass(node):
            fields.extend(f"{node.name}.{item.target.id}" for item in node.body
                          if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name))
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                fields.extend(f"{node.name}.{n.attr}" for n in ast.walk(item)
                              if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                              and isinstance(n.value, ast.Name) and n.value.id == "self")
    return fields


def _attribute_reads(tree: ast.Module) -> set[str]:
    """Names read as `x.name`, an augmented assignment's target included."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
            reads.add(node.target.attr)
    return reads


def _unread_fields(sources: list[str]) -> tuple[set[str], set[str]]:
    """All record fields of `sources`, and those whose name no source reads."""
    trees = [ast.parse(source) for source in sources]
    fields = {name for tree in trees for name in _record_fields(tree)}
    reads = set().union(*(_attribute_reads(tree) for tree in trees))
    return fields, {name for name in fields if name.split(".", 1)[1] not in reads}


def _src_sources() -> list[str]:
    return [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]


def test_no_record_field_is_unread():
    _, unread = _unread_fields(_src_sources())
    assert unread <= set(ALLOWED_FIELDS), \
        f"fields no src/ code reads: {sorted(unread - set(ALLOWED_FIELDS))}"


def test_field_allowlist_names_unread_fields():
    fields, unread = _unread_fields(_src_sources())
    assert set(ALLOWED_FIELDS) <= fields, f"stale entries: {sorted(set(ALLOWED_FIELDS) - fields)}"
    # A field that src/ now reads has outlived its reason, so it leaves the list.
    assert set(ALLOWED_FIELDS) <= unread, \
        f"allowlisted but read in src/: {sorted(set(ALLOWED_FIELDS) - unread)}"


def test_unread_field_scan_sees_both_kinds_of_field():
    source = """
from dataclasses import dataclass

@dataclass(frozen=True)
class Record:
    kept: int
    dropped: int

class Holder:
    def __init__(self):
        self.counter = 0
        self.stale = None

    def bump(self, record):
        self.counter += record.kept
"""
    fields, unread = _unread_fields([source])
    assert fields == {"Record.kept", "Record.dropped", "Holder.counter", "Holder.stale"}
    assert unread == {"Record.dropped", "Holder.stale"}

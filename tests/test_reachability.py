"""Every definition in `src/canpencil` is reached from a command, a script or the public API.

The walk matches definitions by name, so it over-approximates what is
reached: a name read anywhere in reached code reaches every definition of
that name, in any module.  It never flags live code; what it flags no user
path can call.  What it passes may still be dead.  A dunder is reached
whenever its class is, and a method name reached anywhere reaches every
override of it: `GradedSection` once carried a graded ring (``+``, ``*``,
`scale`, `variable` and the hooks of `SparsePoly`) that no command used,
kept alive by `YPoly.variable`, `BinForm.scale` and `SparsePoly`'s own
hook calls.

Roots: every module-level statement of the package except imports and
definitions (so `cli._DISPATCH`, `cli.LEDGERS`, the constants and the
call in `__main__.py`), the bodies of classes apart from their methods,
the bases, decorators and defaults of every definition, every statement
of `scripts/*.py`, and `canpencil.__all__` with the public methods of the
classes it names.  Dunder methods are reached with their class, since
Python calls them without naming them.
"""

import ast
import importlib
from pathlib import Path

import canpencil

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "canpencil"
SCRIPTS = ROOT / "scripts"
SPANS = ROOT / "perfbench" / "spans.py"

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(nodes):
    """Every name and attribute name read in `nodes` and below."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
    return found


def _import_time(defn):
    """The parts of a definition Python evaluates when it runs the `def` or `class`."""
    parts = list(defn.decorator_list)
    if isinstance(defn, ast.ClassDef):
        parts += defn.bases + defn.keywords
        parts += [s for s in defn.body if not isinstance(s, DEFS)]
    else:
        parts += defn.args.defaults + [d for d in defn.args.kw_defaults if d is not None]
    return parts


def _package():
    """(definitions, root names): definitions as (module, qualname, node)."""
    defs, roots = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if not isinstance(stmt, DEFS):
                roots |= _names([stmt])
                continue
            defs.append((module, stmt.name, stmt))
            roots |= _names(_import_time(stmt))
            if isinstance(stmt, ast.ClassDef):
                for member in stmt.body:
                    if isinstance(member, DEFS):
                        defs.append((module, f"{stmt.name}.{member.name}", member))
                        roots |= _names(_import_time(member))
    return defs, roots


def unreached():
    """Qualified names (module.qualname) of the definitions no root reaches."""
    defs, roots = _package()
    for path in sorted(SCRIPTS.glob("*.py")):
        roots |= _names([ast.parse(path.read_text(), str(path))])
    exported = set(canpencil.__all__)
    roots |= exported
    by_name = {}  # the name that reaches a definition: its own, or its class's for a dunder
    for module, qualname, node in defs:
        cls, _, short = qualname.rpartition(".")
        if cls in exported and not short.startswith("_"):
            roots.add(short)
        dunder = short.startswith("__") and short.endswith("__")
        by_name.setdefault(cls if dunder else short, []).append((module, qualname, node))

    reached, seen, todo = set(), set(), list(roots)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for module, qualname, node in by_name.get(name, ()):
            reached.add(f"{module}.{qualname}")
            todo += _names([node])
    return sorted({f"{module}.{qualname}" for module, qualname, _ in defs} - reached)


def test_every_definition_is_reached_from_a_command_a_script_or_the_public_api():
    dead = unreached()
    assert not dead, "no command, script or public name reaches " + ", ".join(dead)


def _spans_literal(name):
    tree = ast.parse(SPANS.read_text(), str(SPANS))
    for stmt in tree.body:
        target = stmt.target if isinstance(stmt, ast.AnnAssign) else (
            stmt.targets[0] if isinstance(stmt, ast.Assign) else None)
        if isinstance(target, ast.Name) and target.id == name:
            return ast.literal_eval(stmt.value)
    raise LookupError(f"{name} not found in {SPANS}")


def test_every_benchmark_span_target_resolves_on_the_package():
    missing = []
    for module, names in _spans_literal("SPAN_TARGETS").items():
        mod = importlib.import_module(f"canpencil.{module}")
        for dotted in names:
            obj = mod
            for part in dotted.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{module}.{dotted}")
    for op in _spans_literal("FIELD_OPS"):
        if not callable(getattr(canpencil.FieldSpec, op, None)):
            missing.append(f"fields.FieldSpec.{op}")
    assert not missing, "perfbench traces names the package lacks: " + ", ".join(missing)

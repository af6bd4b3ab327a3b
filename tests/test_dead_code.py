"""Dead-code guard over the package source, using the standard ``ast`` only.

References are every ``Name``, ``Attribute``, import alias and identifier
string constant in the program's callers: ``src/``, ``perfbench/`` and
``scripts/`` (perfbench names the functions it wraps as strings).  A use in
``tests/`` alone does not count.  Two rules:

1. every non-dunder function, method and class defined in ``src/manipsem``
   is referenced somewhere;
2. every parameter of a function in ``src/manipsem`` is read in its body
   somewhere other than a call to that same function (a parameter that is
   only passed back to itself carries nothing).

Each rule has a short allowlist, and each entry says why it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "manipsem"
SCANNED = ("src", "perfbench", "scripts")

# rule 1: definitions with no caller in the program yet
UNREFERENCED_ALLOWED = {
    # the planned ``eval`` command scores each description level with them
    "bleu": "src/manipsem/bleu.py",
    "to_record": "src/manipsem/bleu.py",
    # tests/test_extraction_pins.py digests it; ``--explain`` can call it
    "idle_spans": "src/manipsem/events.py",
}
# rule 2: parameters that no body reads
UNREAD_ALLOWED = {
    # perfbench/workloads.py passes it positionally
    ("realize_level", "lib"),
}


def _parse_all(directory):
    return [(path, ast.parse(path.read_text("utf-8"), str(path)))
            for path in sorted(directory.rglob("*.py"))]


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _referenced_names():
    names = set()
    for top in SCANNED:
        for _, tree in _parse_all(ROOT / top):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.update(node.name.split("."))
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and node.value.isidentifier()):
                    names.add(node.value)
    return names


def _package_definitions():
    for path, tree in _parse_all(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield path.relative_to(ROOT), node


def _callee(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _reads_outside_self_calls(fn):
    """Names loaded in ``fn``'s body, skipping arguments of calls to ``fn``."""
    reads = set()
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Call) and _callee(node.func) == fn.name:
            stack.append(node.func)
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        stack.extend(ast.iter_child_nodes(node))
    return reads


def test_every_package_definition_is_referenced():
    names = _referenced_names()
    unused = sorted(f"{path}:{node.lineno} {node.name}"
                    for path, node in _package_definitions()
                    if not _is_dunder(node.name) and node.name not in names
                    and UNREFERENCED_ALLOWED.get(node.name) != path.as_posix())
    assert unused == []


def test_function_parameters_are_read():
    unread = []
    for path, node in _package_definitions():
        if isinstance(node, ast.ClassDef) or _is_dunder(node.name):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a is not None]
        reads = _reads_outside_self_calls(node)
        unread.extend(f"{path}:{node.lineno} {node.name}({p})"
                      for p in params if p not in ("self", "cls") and p not in reads
                      and (node.name, p) not in UNREAD_ALLOWED)
    assert sorted(unread) == []

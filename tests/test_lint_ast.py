"""A lint we can run: unused imports and imports of things that do
not exist, over all of ``src/repro``, the crash-schedule harness
(``tests/crashsched.py`` and its tests) and the tests of the flight
recorder, the device model and the on-media records, on the stdlib
``ast`` alone.

CI runs ruff's ``F`` rules and ``mypy --strict`` over parts of the
tree; neither tool is installed in the development container, so a
change that moves imports across modules had no local check at all.
This is the subset that needs no third-party code:

* **unused import** — a name bound by ``import`` / ``from … import``
  that the file never reads (as a name, as the base of an attribute,
  inside a quoted annotation, or through ``__all__``).  Package
  ``__init__`` files re-export and are exempt.
* **missing import** — ``from repro.x import y`` (absolute or
  relative) where ``repro/x`` does not exist or binds no ``y``; any
  other module must be importable here.
* **duplicate definition** (pyflakes F811) — two ``def`` / ``class``
  statements binding one name in one scope, the second silently
  replacing the first: what moving a dozen methods between modules
  leaves behind.  Property setters and ``@overload`` stubs rebind on
  purpose and are exempt.
* **undefined name** (pyflakes F821) — a name the file reads (quoted
  annotations included) that no statement in the file binds and that
  is not a builtin or a module dunder the import system binds
  (``__file__``, ``__builtins__``, …; ``__path__`` in a package
  ``__init__`` only), as in pyflakes.  Scopes are not told apart: a binding anywhere in
  the file counts, so this finds names that are gone, not names read
  before they are bound.  Names listed in ``__all__`` are exports, not
  reads, and are not checked (a package may bind them lazily).
* **unused local** (pyflakes F841) — a name a function binds by plain
  or annotated assignment, or as an ``except … as`` name, that nothing
  in the function (nested functions included) reads: what a refactor
  leaves behind when the last reader of a value moves away.  As in
  pyflakes, tuple unpacking, augmented assignment (which reads), loop
  and ``with`` targets, walrus bindings, ``global`` / ``nonlocal``
  names and functions calling ``locals()`` are exempt; so are
  ``_``-prefixed names.

Two guards are this repo's own: **counters booked per item** — a
``.stats[...]`` augmented assignment inside a loop body in the modules a
checkpoint runs through once per object (:data:`CHECKPOINT_PATH`) — and
**a device's queue read from outside** — ``._inflight`` or
``._busy_until`` read by a file outside ``src/repro/hw/``: how a device
keeps its queue is its own business, and everything else asks it
(:data:`DEVICE_PRIVATE`).
"""

from __future__ import annotations

import ast
import builtins
import importlib.util
import pathlib
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src"
FILES = sorted((SRC / "repro").rglob("*.py")) + [
    ROOT / "tests" / name for name in (
        "crashsched.py", "test_crashsched.py", "test_flightrec.py",
        "test_store_image_golden.py", "test_hw.py", "test_records_misc.py",
        "test_write_batch.py", "pack_reference.py", "test_pack_pages.py",
        "test_blockalloc_properties.py", "test_flush_runs.py")]
#: Names every module has bound without a statement binding them that
#: ``dir(builtins)`` does not list (pyflakes' module-scope magic globals).
MODULE_DUNDERS = frozenset(("__file__", "__builtins__", "__annotations__",
                            "__cached__"))


def _where(path: pathlib.Path) -> pathlib.Path:
    return path.relative_to(ROOT)


def _module_name(path: pathlib.Path) -> str:
    base = SRC if SRC in path.parents else ROOT
    parts = list(path.relative_to(base).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _module_path(name: str) -> Optional[pathlib.Path]:
    base = SRC.joinpath(*name.split("."))
    for candidate in (base.with_suffix(".py"), base / "__init__.py"):
        if candidate.exists():
            return candidate
    return None


def _imports(tree: ast.AST) -> Iterator[Tuple[ast.stmt, str, str]]:
    """``(statement, bound name, imported name)`` per import alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield node, bound, alias.name
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node, alias.asname or alias.name, alias.name


def _names_read(tree: ast.AST, exports: bool = True) -> Set[str]:
    """Every identifier the file reads, quoted annotations and (with
    ``exports``) ``__all__`` entries included."""
    used: Set[str] = set()
    quoted: List[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            if node.annotation is not None:
                quoted.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                quoted.append(node.returns)
        elif exports and isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant)
                        and isinstance(c.value, str))
    for annotation in quoted:
        for const in ast.walk(annotation):
            if isinstance(const, ast.Constant) \
                    and isinstance(const.value, str):
                try:
                    inner = ast.parse(const.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(n.id for n in ast.walk(inner)
                            if isinstance(n, ast.Name))
    return used


def _names_bound(tree: ast.Module) -> Set[str]:
    """Names a module binds that another may import from it
    (over-approximated: a binding in any scope counts)."""
    bound: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
    bound.update(name for _stmt, name, _orig in _imports(tree))
    return bound


_TREES: Dict[pathlib.Path, ast.Module] = {}


def _tree(path: pathlib.Path) -> ast.Module:
    if path not in _TREES:
        _TREES[path] = ast.parse(path.read_text(encoding="utf-8"),
                                 filename=str(path))
    return _TREES[path]


def test_no_unused_imports():
    findings = []
    for path in FILES:
        if path.name == "__init__.py":
            continue
        tree = _tree(path)
        used = _names_read(tree)
        for stmt, bound, _orig in _imports(tree):
            if isinstance(stmt, ast.ImportFrom) \
                    and stmt.module == "__future__":
                continue
            if bound not in used:
                findings.append(f"{_where(path)}:{stmt.lineno}: "
                                f"{bound!r} imported but unused")
    assert not findings, "\n" + "\n".join(findings)


def test_every_import_resolves():
    findings = []
    for path in FILES:
        here = _module_name(path)
        package = here if path.name == "__init__.py" \
            else here.rpartition(".")[0]
        for stmt, _bound, orig in _imports(_tree(path)):
            where = f"{_where(path)}:{stmt.lineno}"
            if isinstance(stmt, ast.Import):
                module, name = orig, None
            else:
                module, name = stmt.module or "", orig
                if stmt.level:
                    anchor = package.split(".")
                    anchor = anchor[:len(anchor) - (stmt.level - 1)]
                    module = ".".join(anchor + ([module] if module else []))
            if module.split(".")[0] != "repro":
                if importlib.util.find_spec(module.split(".")[0]) is None:
                    findings.append(f"{where}: no module {module!r}")
                continue
            target = _module_path(module)
            if target is None:
                findings.append(f"{where}: no module {module!r}")
            elif name is not None and name != "*" \
                    and name not in _names_bound(_tree(target)) \
                    and _module_path(f"{module}.{name}") is None:
                findings.append(f"{where}: {module!r} binds no {name!r}")
    assert not findings, "\n" + "\n".join(findings)


def _rebinds_on_purpose(node: ast.stmt) -> bool:
    for decorator in getattr(node, "decorator_list", ()):
        name = decorator.attr if isinstance(decorator, ast.Attribute) \
            else getattr(decorator, "id", "")
        if name in ("setter", "getter", "deleter", "overload"):
            return True
    return False


def test_no_duplicate_definitions():
    findings = []
    for path in FILES:
        for scope in ast.walk(_tree(path)):
            # One statement list is one scope's straight-line body; the
            # arms of an ``if`` / ``try`` are lists of their own.
            for field in ("body", "orelse", "finalbody"):
                first: Dict[str, int] = {}
                body = getattr(scope, field, None)
                for node in body if isinstance(body, list) else ():
                    if not isinstance(node, (ast.FunctionDef, ast.ClassDef,
                                             ast.AsyncFunctionDef)) \
                            or _rebinds_on_purpose(node):
                        continue
                    if node.name in first:
                        findings.append(
                            f"{_where(path)}:{node.lineno}: "
                            f"{node.name!r} redefines line "
                            f"{first[node.name]}")
                    first[node.name] = node.lineno
    assert not findings, "\n" + "\n".join(findings)


def test_no_undefined_names():
    findings = []
    for path in FILES:
        tree = _tree(path)
        defined = _names_bound(tree) | set(dir(builtins)) | MODULE_DUNDERS
        if path.name == "__init__.py":
            defined.add("__path__")
        for node in ast.walk(tree):
            if isinstance(node, ast.arg):
                defined.add(node.arg)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                defined.add(node.name)
        for name in sorted(_names_read(tree, exports=False) - defined):
            findings.append(f"{_where(path)}: undefined name "
                            f"{name!r}")
    assert not findings, "\n" + "\n".join(findings)


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_scope(func: ast.AST) -> Iterator[ast.AST]:
    """The nodes of one function's own scope: its body, without the
    bodies of the functions, lambdas and classes nested in it."""
    stack: List[ast.AST] = list(getattr(func, "body", []))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _unused_locals(func: ast.AST) -> Iterator[Tuple[int, str]]:
    """``(line, name)`` per local of ``func`` that is bound and never
    read (see the module docstring for what counts)."""
    read: Set[str] = set()
    declared: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.AugAssign) \
                and isinstance(node.target, ast.Name):
            read.add(node.target.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
    if "locals" in read:
        return
    for node in _own_scope(func):
        if isinstance(node, ast.Assign):
            targets = [t for t in node.targets if isinstance(t, ast.Name)]
            bound = [(t.lineno, t.id) for t in targets]
        elif isinstance(node, ast.AnnAssign) and node.value is not None \
                and isinstance(node.target, ast.Name):
            bound = [(node.lineno, node.target.id)]
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound = [(node.lineno, node.name)]
        else:
            continue
        for line, name in bound:
            if name not in read and name not in declared \
                    and not name.startswith("_"):
                yield line, name


def test_no_unused_locals():
    findings = []
    for path in FILES:
        for func in ast.walk(_tree(path)):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(
                    f"{_where(path)}:{line}: local {name!r} is "
                    f"assigned to but never used"
                    for line, name in sorted(_unused_locals(func)))
    assert not findings, "\n" + "\n".join(findings)


#: The modules a checkpoint runs through once per object.
CHECKPOINT_PATH = tuple(SRC / "repro" / name for name in (
    "core/shadowing.py", "core/serialize.py", "core/extsync.py",
    "objstore/store.py", "objstore/records.py"))


def _counters_booked_in_loops(tree: ast.AST) -> List[int]:
    """The line of every ``<anything>.stats[...] op= ...`` inside the
    body of a ``for`` or ``while`` loop.  A ``StatsView`` update is a
    registry lookup (two per ``+=``); a pass counts in locals and books
    the sums once, after its loop."""
    lines: Set[int] = set()
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
            continue
        for stmt in loop.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.AugAssign) \
                        and isinstance(node.target, ast.Subscript) \
                        and isinstance(node.target.value, ast.Attribute) \
                        and node.target.value.attr == "stats":
                    lines.add(node.lineno)
    return sorted(lines)


def test_the_guard_finds_counters_booked_per_item():
    source = ("for x in xs:\n"
              "    self.stats['n'] += 1\n"
              "    if x:\n"
              "        engine.stats[key] -= x\n"
              "while y:\n"
              "    total += 1\n"
              "self.stats['n'] += total\n")
    assert _counters_booked_in_loops(ast.parse(source)) == [2, 4]


def test_checkpoint_path_books_counters_once_per_pass():
    findings = [f"{_where(path)}:{line}: a stats counter updated inside "
                f"a loop; count in a local and book it after the loop"
                for path in CHECKPOINT_PATH
                for line in _counters_booked_in_loops(_tree(path))]
    assert not findings, "\n" + "\n".join(findings)


#: What a device model keeps to itself: read only inside ``hw/``.
DEVICE_PRIVATE = frozenset(("_inflight", "_busy_until"))


def _private_reads(tree: ast.AST) -> List[Tuple[int, str]]:
    """``(line, attribute)`` of every read of a :data:`DEVICE_PRIVATE`
    attribute (setting one up in a test is not a read)."""
    return sorted((node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in DEVICE_PRIVATE
                  and isinstance(node.ctx, ast.Load))


def test_the_guard_finds_device_queue_reads():
    source = ("pending = [d for d, _o, _p in device._inflight]\n"
              "device._busy_until = 5\n"
              "late = max(dev._busy_until for dev in devices)\n")
    assert _private_reads(ast.parse(source)) == [(1, "_inflight"),
                                                 (3, "_busy_until")]


def test_only_the_device_models_read_their_queues():
    hw = SRC / "repro" / "hw"
    findings = [f"{_where(path)}:{line}: reads {attr}; ask the device "
                f"(queued, drain, last_completion) instead"
                for path in FILES if hw not in path.parents
                for line, attr in _private_reads(_tree(path))]
    assert not findings, "\n" + "\n".join(findings)

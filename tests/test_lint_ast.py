"""A lint we can run: unused imports and imports of things that do
not exist, over all of ``src/repro``, on the stdlib ``ast`` alone.

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
  is not a builtin.  Scopes are not told apart: a binding anywhere in
  the file counts, so this finds names that are gone, not names read
  before they are bound.  Names listed in ``__all__`` are exports, not
  reads, and are not checked (a package may bind them lazily).
"""

from __future__ import annotations

import ast
import builtins
import importlib.util
import pathlib
from typing import Dict, Iterator, List, Optional, Set, Tuple

SRC = pathlib.Path(__file__).parent.parent / "src"
FILES = sorted((SRC / "repro").rglob("*.py"))


def _module_name(path: pathlib.Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
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
                findings.append(f"{path.relative_to(SRC)}:{stmt.lineno}: "
                                f"{bound!r} imported but unused")
    assert not findings, "\n" + "\n".join(findings)


def test_every_import_resolves():
    findings = []
    for path in FILES:
        here = _module_name(path)
        package = here if path.name == "__init__.py" \
            else here.rpartition(".")[0]
        for stmt, _bound, orig in _imports(_tree(path)):
            where = f"{path.relative_to(SRC)}:{stmt.lineno}"
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
                            f"{path.relative_to(SRC)}:{node.lineno}: "
                            f"{node.name!r} redefines line "
                            f"{first[node.name]}")
                    first[node.name] = node.lineno
    assert not findings, "\n" + "\n".join(findings)


def test_no_undefined_names():
    findings = []
    for path in FILES:
        tree = _tree(path)
        defined = _names_bound(tree) | set(dir(builtins))
        for node in ast.walk(tree):
            if isinstance(node, ast.arg):
                defined.add(node.arg)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                defined.add(node.name)
        for name in sorted(_names_read(tree, exports=False) - defined):
            findings.append(f"{path.relative_to(SRC)}: undefined name "
                            f"{name!r}")
    assert not findings, "\n" + "\n".join(findings)

"""Every definition in `src/hera` is reached from the package itself.

A function, class or constant of a module, or a method or property of
one of the package's classes, must be referenced somewhere in
`src/hera` outside its own definition, or be read by the benchmark's
traced run (`perfbench/traced.py`), or be in `ALLOWED` with its reason.
Code that only the tests read belongs in the tests: an oracle that reads
the package's own helpers checks the package against itself.

A reference is a name, an imported name, an attribute, or an
identifier in a string of code: the package compiles its kernels from
source templates, which call methods such as `_tcp_segment` by name. A
docstring, and a string that is one name, dotted or not (a kernel's
label, a field's name), hold no code. A method or property is reached
only as an attribute: `x.name` in code or in a string, or a constant
name given to `getattr`, `setattr`, `hasattr` or `attrgetter`. Names
are matched by spelling alone, so the guard can miss a dead definition
that shares its name with a live one, never the reverse. Sources are
read with `ast`, not imported.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hera"
TRACED = ROOT / "perfbench" / "traced.py"

# Definitions kept with nothing in the package reaching them.
ALLOWED = {
    "herafile.format_record": "the codec's public writer of one record line",
    "cli._Parser.error": "argparse calls it on a usage error, which it raises as UsageError",
}

# An identifier in a string, with the dot before it if it has one, and
# a string that is one name.
_IDENTIFIER = re.compile(r"(\.?)([A-Za-z_][A-Za-z0-9_]*)")
_NAME = re.compile(r"[A-Za-z0-9_.]*")
_BY_NAME = {"getattr", "setattr", "hasattr", "attrgetter"}


def _docstrings(tree: ast.Module) -> set[int]:
    """The ids of the docstring constants of a module and its classes and
    functions."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.add(id(first.value))
    return found


def references(tree: ast.Module) -> list[tuple[str, int, bool]]:
    """(name, line, whether it is an attribute) of each reference in a
    module."""
    docstrings = _docstrings(tree)
    by_name = set()  # the ids of the constant names of attributes
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _BY_NAME):
            by_name.update(id(arg) for arg in node.args)
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno, False))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.end_lineno, True))
        elif isinstance(node, ast.ImportFrom):
            found += [(alias.name, node.lineno, False) for alias in node.names]
        elif isinstance(node, ast.Constant) and id(node) in by_name:
            found.append((node.value, node.lineno, True))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings and not _NAME.fullmatch(node.value)):
            found += [(name, node.lineno, bool(dot))
                      for dot, name in _IDENTIFIER.findall(node.value)]
    return found


def _targets(statement) -> list[str]:
    """The names a module- or class-level assignment binds."""
    targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def definitions(module: str, tree: ast.Module) -> list[tuple[str, str, int, int, bool]]:
    """(qualified name, name, first line, last line, whether it is a class
    member) of each module-level function, class and constant, and of
    each method, property and class-level assignment of its classes;
    dunders are left out."""
    found = []

    def add(qualified, name, node, member):
        if not (name.startswith("__") and name.endswith("__")):
            found.append((qualified, name, node.lineno, node.end_lineno, member))

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            add(f"{module}.{node.name}", node.name, node, False)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for name in _targets(node):
                add(f"{module}.{name}", name, node, False)
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    add(f"{module}.{node.name}.{member.name}", member.name, member, True)
                elif isinstance(member, ast.Assign):
                    for name in _targets(member):
                        add(f"{module}.{node.name}.{name}", name, member, True)
    return found


def _reached(module, name, first, last, member, refs) -> bool:
    """Whether a reference of `refs`, {module: its references}, outside
    the definition's lines reaches it; a member only as an attribute."""
    return any(ref == name and (attribute or not member)
               and not (other == module and first <= line <= last)
               for other, module_refs in refs.items() for ref, line, attribute in module_refs)


def _parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unreached(allowed) -> list[str]:
    """The qualified names of the package's definitions that neither the
    package nor the traced run reaches and `allowed` does not name."""
    trees = {path.stem: _parsed(path) for path in sorted(PACKAGE.glob("*.py"))}
    refs = {module: references(tree) for module, tree in trees.items()}
    refs[str(TRACED)] = references(_parsed(TRACED))
    return [qualified for module, tree in trees.items()
            for qualified, name, *where in definitions(module, tree)
            if qualified not in allowed and not _reached(module, name, *where, refs)]


def test_every_package_definition_is_reached_from_the_package_or_the_trace():
    assert unreached(ALLOWED) == []


def test_every_allowed_definition_is_otherwise_unreached():
    assert sorted(unreached({})) == sorted(ALLOWED)


def test_the_guard_finds_a_definition_only_its_own_body_names():
    source = (
        "LIVE = 1\n"
        "DEAD = 2\n"
        "def recurse(n):\n"
        "    return recurse(n - 1) if n else LIVE\n"
        "class Kernel:\n"
        "    def run(self):\n"
        "        return compile('self._step()', '<k>', 'eval')\n"
        "    def _step(self):\n"
        "        '''_unused, named in a docstring only'''\n"
        "    def _unused(self):\n"
        "        pass\n"
        "Kernel().run()\n")
    tree = ast.parse(source)
    refs = {"m": references(tree)}
    dead = [qualified for qualified, name, *where in definitions("m", tree)
            if not _reached("m", name, *where, refs)]
    assert dead == ["m.DEAD", "m.recurse", "m.Kernel._unused"]

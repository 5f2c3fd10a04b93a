"""The names the benchmark's traced run takes from hera still exist.

`perfbench/traced.py` imports hera's public functions and patches three
methods by name, so a refactor that renames or drops one breaks the
traced run (`--trace 1`), which only the benchmark's own tests run. Its
source is read with `ast` and not imported: importing it would put the
benchmark's paths on `sys.path`.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path
from types import ModuleType

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def _tree() -> ast.Module:
    return ast.parse(TRACED.read_text(encoding="utf-8"), filename=str(TRACED))


def _imported() -> dict[str, object]:
    """Each name traced.py imports from hera: the object it names."""
    names = {}
    for node in ast.walk(_tree()):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "hera":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):  # a submodule: `from hera import cli`
                    importlib.import_module(f"{node.module}.{alias.name}")
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                names[alias.asname or alias.name] = getattr(module, alias.name)
    return names


def test_every_name_the_trace_imports_from_hera_exists():
    names = _imported()
    assert "cluster" in names and "FlowTable" in names
    # An attribute the trace reads off an imported module, as `cli.export_capture`.
    for node in ast.walk(_tree()):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and isinstance(names.get(node.value.id), ModuleType)):
            assert hasattr(names[node.value.id], node.attr), f"{node.value.id}.{node.attr}"


def test_every_method_the_trace_patches_by_name_exists():
    names = _imported()
    patched = set()
    for node in ast.walk(_tree()):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "timed_method"):
            owner, attr = node.args[0], node.args[1]
            assert isinstance(owner, ast.Name) and isinstance(attr, ast.Constant)
            assert callable(getattr(names[owner.id], attr.value, None)), ast.unparse(node)
            patched.add(f"{owner.id}.{attr.value}")
    assert patched == {"CaptureReader.next_packet", "FlowTable.assign", "FlowTable.flush"}

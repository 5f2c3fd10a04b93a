"""The package, and the source of every kernel it generates, stay within
the Python floor that pyproject.toml states."""

import ast
import linecache
import re
from pathlib import Path

import pytest

from hera import features, flows, herafile

ROOT = Path(__file__).resolve().parent.parent
FLOOR = (3, 10)
MODULES = sorted((ROOT / "src" / "hera").glob("*.py"))


def test_floor_is_the_one_pyproject_states():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups() == (
        str(FLOOR[0]), str(FLOOR[1]))


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_parses_as_the_oldest_supported_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)


KERNELS = {
    **{f"row of {preset}": lambda preset=preset: features.row_kernel(
        tuple(features.select_feature_set(preset))) for preset in features.PRESETS},
    "format_record": lambda: herafile._writer(),
    "_parse_written": lambda: herafile._written_line(),
    "_record": lambda: herafile._record(),
    "FlowTable.assign": lambda: flows.FlowTable.assign,
    "EndpointStats.merge": lambda: flows.EndpointStats.merge,
    "observe_gap": lambda: flows.observe_gap,
    **{f"{cls.__name__}.__init__": lambda cls=cls: cls.__init__
       for cls in (flows.ExportConfig, flows.EndpointStats, flows.FlowRecord,
                   herafile.HeraHeader, features.RowContext)},
}


@pytest.mark.parametrize("name", KERNELS)
def test_kernel_source_parses_as_the_oldest_supported_python(name):
    kernel = KERNELS[name]()
    filename = kernel.__code__.co_filename
    source = "".join(linecache.getlines(filename, kernel.__globals__))
    assert filename.startswith("hera kernel: ") and source.startswith("def kernel(")
    ast.parse(source, filename=filename, feature_version=FLOOR)

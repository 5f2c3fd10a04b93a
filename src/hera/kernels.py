"""Kernels: straight-line functions, per record or per packet, whose
source is generated once per process from module-level tables only
(field, feature and endpoint-statistic declarations, value-kind
templates); no input text is ever put into it.
"""

from __future__ import annotations

import linecache
from itertools import count

from .timefmt import us_to_text

# The text of a value, per value kind: an expression in which `$` stands
# for the value's, with `v` as scratch. A time takes the inline form for
# v >= 0, which is what us_to_text writes then, and us_to_text itself
# otherwise. Rows and the .hera writer share these (an optional text
# reads as `oint`).
TO_TEXT = {
    "text": "$",
    "int": "f'{$}'",
    "oint": "'' if (v := $) is None else f'{v}'",
    "float": "'' if (v := $) is None else f'{v:.6f}'",
    "time": ("'' if (v := $) is None else "
             "f'{v // 1000000}.{v % 1000000:06d}' if v >= 0 else us_to_text(v)"),
}

_NUMBERS = count(1)  # one per kernel compiled, so that no two share a filename


def compile_kernel(label: str, source: str, namespace: dict):
    """The function `kernel` that `source` defines, run in `namespace`
    (which also gets `us_to_text`, for the `time` template). The source
    is kept in linecache, so tracebacks show its lines and tests read it."""
    filename = f"<hera kernel: {label} #{next(_NUMBERS)}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace["us_to_text"] = us_to_text
    exec(compile(source, filename, "exec"), namespace)
    return namespace["kernel"]

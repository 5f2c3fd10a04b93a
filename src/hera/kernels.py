"""Kernels: straight-line functions, per record or per packet, whose
source is generated once per process from module-level tables only
(field, feature and endpoint-statistic declarations, value-kind
templates); no input text is ever put into it.

`compile_kernel` compiles one such function. `slotted`, the class
generator beside it, builds a class with one slot per declared field and
compiles its `__init__` from that declaration: what `dataclass(slots=True)`
makes, without the cost of importing `dataclasses`.
"""

from __future__ import annotations

from itertools import count
from operator import attrgetter
from types import SimpleNamespace

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
    (which also gets `us_to_text`, for the `time` template). The
    namespace's `__loader__` gives linecache the source when a traceback
    or `linecache.getlines(filename, kernel.__globals__)` first asks for
    its lines, so no process imports linecache (and tokenize) to compile
    a kernel. The filename is not in angle brackets, which linecache
    would not look up."""
    filename = f"hera kernel: {label} #{next(_NUMBERS)}"
    namespace.update(__name__=__name__, us_to_text=us_to_text,
                     __loader__=SimpleNamespace(get_source=lambda name: source))
    exec(compile(source, filename, "exec"), namespace)
    return namespace["kernel"]


REQUIRED = object()  # the default of a field its constructor must be given
_NEW = object()  # stands in for a default built anew for each instance


def slotted(fields):
    """Class decorator: the class rebuilt with one slot per field and the
    methods dataclass(slots=True) would give it. `fields` are (attribute,
    default) pairs in constructor order. A default of REQUIRED makes the
    argument required; a class gives each instance a new instance of it;
    any other default is a constant, written into `__init__` as its repr.
    `__init__` takes the fields by position or keyword and, if the class
    has a `__post_init__`, ends by calling it. `==` compares the fields in
    order between instances of the one class, and the repr names them."""
    names = tuple(name for name, _ in fields)
    factories = {default.__name__: default for _, default in fields if isinstance(default, type)}
    parameters = "".join(
        f", {name}" if default is REQUIRED else
        f", {name}=NEW" if isinstance(default, type) else f", {name}={default!r}"
        for name, default in fields)
    body = "".join(
        f"    self.{name} = {default.__name__}() if {name} is NEW else {name}\n"
        if isinstance(default, type) else f"    self.{name} = {name}\n"
        for name, default in fields)
    values = attrgetter(*names)

    def build(cls):
        namespace = {key: value for key, value in vars(cls).items()
                     if key not in ("__dict__", "__weakref__")}
        post_init = "    self.__post_init__()\n" if "__post_init__" in namespace else ""
        init = compile_kernel(f"{cls.__name__}.__init__",
                              f"def kernel(self{parameters}):\n{body}{post_init}",
                              {"NEW": _NEW, **factories})
        init.__name__, init.__qualname__ = "__init__", f"{cls.__qualname__}.__init__"

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return values(self) == values(other)

        def __repr__(self):
            return (f"{self.__class__.__qualname__}("
                    f"{', '.join(f'{name}={getattr(self, name)!r}' for name in names)})")

        # Defining __eq__ leaves the class unhashable, as dataclass does.
        namespace.update(__slots__=names, __init__=init, __eq__=__eq__, __repr__=__repr__)
        return type(cls)(cls.__name__, cls.__bases__, namespace)

    return build

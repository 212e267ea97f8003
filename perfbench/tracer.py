"""Span tracer that wraps a package's public functions from outside it.

`Tracer(package)` rebinds, for the duration of a `with` block, every public
function that a module of `package` defines, under every name a module of
the package binds it to.  Modules that import a helper by name
(`from .witness import threshold_lambda`) look it up in their own namespace,
so each such binding gets the wrapper too.  Classes named in `classes` have
their `__init__` wrapped in place, so `isinstance` keeps working.  On exit
every binding is restored to the original object.

A span is `(name, parent, start, end)` with `parent` the index of the
enclosing span or -1 for a root.  Spans stay in memory; `drain()` hands them
over and starts a fresh list.  `self_times` computes each span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
import types

_CALLABLE_TYPES = (types.FunctionType, functools._lru_cache_wrapper)


def self_times(spans):
    """Self time of each span: its duration minus the union of its children.

    Children are clipped to the parent's interval, and overlapping children
    are counted once, so the result never exceeds the span's duration and
    the self times of a tree add up to the duration of its root.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, parent, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, parent, start, end) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


def _short_module(module_name: str, package: str) -> str:
    return module_name[len(package) + 1:] if module_name.startswith(package + ".") else module_name


class Tracer:
    """Records a span around every call of a package's public functions."""

    def __init__(self, package: str, classes: tuple[type, ...] = ()) -> None:
        self.package = package
        self.classes = classes
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _owned(self, obj) -> bool:
        module = getattr(obj, "__module__", None) or ""
        return module == self.package or module.startswith(self.package + ".")

    def _wrap(self, name: str, func):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end)

        return traced

    def span_name(self, func) -> str:
        return f"{_short_module(func.__module__, self.package)}.{func.__qualname__}"

    def __enter__(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, object] = {}
        modules = [module for name, module in sorted(sys.modules.items())
                   if module is not None
                   and (name == self.package or name.startswith(self.package + "."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(value, _CALLABLE_TYPES)
                        or not self._owned(value)):
                    continue
                wrapper = wrappers.get(id(value))
                if wrapper is None:
                    wrapper = wrappers[id(value)] = self._wrap(self.span_name(value), value)
                self._saved.append((module, attr, value))
                setattr(module, attr, wrapper)
        for cls in self.classes:
            init = cls.__dict__["__init__"]
            self._saved.append((cls, "__init__", init))
            setattr(cls, "__init__", self._wrap(self.span_name(cls), init))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def drain(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans

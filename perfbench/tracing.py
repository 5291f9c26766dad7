"""Span tracing from outside the program: wrappers at every import site.

The benchmark does not edit the program it measures. For a traced run it
wraps the functions of each layer, the ``select``-style overrides of
every scheduler class and the lazily cached properties, wherever a loaded
module binds them, and records one span per call:

* name, start, end (``perf_counter_ns``), parent span and op id;
* kept in memory (compact ``array`` columns) and written once at exit.

A span's *self time* is its duration minus the durations of its direct
children. Calls in one thread nest, so the children of a span cover
disjoint parts of its interval and the subtraction is exact.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from types import ModuleType
from typing import Any, Callable, Iterable, Iterator, Optional

#: Op id of spans recorded outside set-up and the timed ops (checks).
NO_OP = -1


def setup_op(k: int) -> int:
    """Op id of the spans of set-up repetition ``k``."""
    return -2 - k


class Tracer:
    """In-memory span store, one row per call.

    Rows are appended when a span opens; the end time is filled in when it
    closes. ``op`` is the op id stamped on every span opened from now on.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op_of = array("i")
        self._stack: list[int] = []
        self.op = NO_OP
        #: Per-op values added by wrapper hooks, e.g. checkpoint bytes.
        self.added: dict[tuple[int, str], float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self.op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(self._clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self._clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block (the benchmark's own spans)."""
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def add(self, key: str, value: float) -> None:
        slot = (self.op, key)
        self.added[slot] = self.added.get(slot, 0) + value

    def __len__(self) -> int:
        return len(self.name)

    def write(self, path: str) -> None:
        """Write every span as one JSON line (``parent`` is a row index)."""
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(len(self.name)):
                row = {
                    "name": self.names[self.name[i]],
                    "start_ns": self.start[i],
                    "end_ns": self.end[i],
                    "parent": self.parent[i],
                    "op": self.op_of[i],
                }
                handle.write(json.dumps(row, separators=(",", ":")) + "\n")


# ----------------------------------------------------------------------
# Self time and per-op aggregation
# ----------------------------------------------------------------------


def self_times(tracer: Tracer) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for start, end in zip(tracer.start, tracer.end)]
    for child, parent in enumerate(tracer.parent):
        if parent >= 0:
            own[parent] -= tracer.end[child] - tracer.start[child]
    return own


@dataclass
class OpSpans:
    """Span totals of one op, keyed by span name."""

    self_ns: dict[str, int] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    spans: list[int] = field(default_factory=list)

    def self_s(self, prefix: str) -> float:
        """Self time of every span named ``prefix`` or ``prefix.*``."""
        dotted = prefix + "."
        return sum(
            ns
            for name, ns in self.self_ns.items()
            if name == prefix or name.startswith(dotted)
        ) / 1e9


def by_op(tracer: Tracer) -> dict[int, OpSpans]:
    """Group spans by op id.

    ``calls`` counts outermost calls only: a span whose parent has the same
    name (recursion, or an override calling ``super()``) is not a new call.
    """
    own = self_times(tracer)
    ops: dict[int, OpSpans] = {}
    for i in range(len(tracer)):
        name = tracer.names[tracer.name[i]]
        rec = ops.setdefault(tracer.op_of[i], OpSpans())
        rec.self_ns[name] = rec.self_ns.get(name, 0) + own[i]
        rec.spans.append(i)
        parent = tracer.parent[i]
        if parent < 0 or tracer.name[parent] != tracer.name[i]:
            rec.calls[name] = rec.calls.get(name, 0) + 1
    return ops


# ----------------------------------------------------------------------
# Wrapper installation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One thing to wrap.

    ``where`` is ``"module:qualname"``: a module-level function
    (``repro.core.simulator:simulate``), a class attribute
    (``repro.core.dag:DAG.height``; plain methods and cached properties),
    or ``"module:Class.*method"`` for the method in the class and in every
    subclass that overrides it. ``after(args, kwargs, tracer)`` runs after
    the span closes (for counts such as bytes written).
    """

    span: str
    where: str
    after: Optional[Callable[[tuple, dict, Tracer], None]] = None


def module_functions(module: ModuleType) -> list[str]:
    """Public functions defined (not re-exported) by ``module``."""
    return sorted(
        name
        for name, obj in vars(module).items()
        if callable(obj)
        and getattr(obj, "__module__", None) == module.__name__
        and hasattr(obj, "__code__")
        and not name.startswith("_")
    )


def _all_subclasses(cls: type) -> list[type]:
    seen: list[type] = []
    todo = [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen


class Installer:
    """Patches targets in place and puts every original back on restore.

    Module-level functions are replaced in every loaded module under
    ``packages`` that binds the same function object, so ``from x import
    f`` sites see the wrapper too. Class attributes are replaced on the
    class that defines them.
    """

    def __init__(
        self,
        tracer: Tracer,
        targets: Iterable[Target],
        packages: tuple[str, ...] = ("repro",),
    ) -> None:
        self.tracer = tracer
        self.targets = list(targets)
        self.packages = packages
        self._wrappers: dict[int, tuple[Any, Any]] = {}  # id(wrapper) -> (wrapper, original)
        self._class_patches: list[tuple[type, str, Any]] = []
        self.installed = False

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self.tracer
        name_id = tracer.name_id(target.span)
        open_, close = tracer.open, tracer.close
        after = target.after

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
                if after is not None:
                    after(args, kwargs, tracer)

        self._wrappers[id(traced)] = (traced, fn)
        return traced

    def _wrap_class_attr(self, owner: type, attr: str, target: Target) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, cached_property):
            new: Any = cached_property(self._wrap(raw.func, target))
            new.__set_name__(owner, attr)
        elif isinstance(raw, staticmethod):
            new = staticmethod(self._wrap(raw.__func__, target))
        elif isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, target))
        elif callable(raw):
            new = self._wrap(raw, target)
        else:
            raise TypeError(f"cannot wrap {owner.__qualname__}.{attr}: {raw!r}")
        setattr(owner, attr, new)
        self._class_patches.append((owner, attr, raw))

    def _loaded_modules(self) -> list[ModuleType]:
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None
            and any(name == p or name.startswith(p + ".") for p in self.packages)
        ]

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("wrappers are already installed")
        modules = self._loaded_modules()
        originals: dict[int, Callable] = {}  # id(original fn) -> wrapper
        for target in self.targets:
            module_name, qualname = target.where.split(":")
            module = sys.modules[module_name]
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                if attr.startswith("*"):
                    attr = attr[1:]
                    for cls in _all_subclasses(owner):
                        if attr in cls.__dict__:
                            self._wrap_class_attr(cls, attr, target)
                else:
                    self._wrap_class_attr(owner, attr, target)
                continue
            fn = getattr(module, attr)
            if id(fn) in originals:
                continue
            originals[id(fn)] = self._wrap(fn, target)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(mod, name, wrapper)
        self.installed = True

    def restore(self) -> None:
        """Put every original back, including at sites that bound a
        wrapper after :meth:`install` (modules imported later)."""
        for owner, attr, raw in reversed(self._class_patches):
            setattr(owner, attr, raw)
        self._class_patches.clear()
        for mod in self._loaded_modules():
            for name, value in list(vars(mod).items()):
                pair = self._wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(mod, name, pair[1])
        self._wrappers.clear()
        self.installed = False

    def wrapped_sites(self) -> list[str]:
        """``module.attr`` of every module binding that is a wrapper now."""
        return sorted(
            f"{mod.__name__}.{name}"
            for mod in self._loaded_modules()
            for name, value in vars(mod).items()
            if id(value) in self._wrappers and self._wrappers[id(value)][0] is value
        )

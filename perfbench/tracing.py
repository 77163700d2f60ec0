"""Spans and call captures taken from outside the library.

The roughcut modules bind each other's functions with ``from`` imports, so
one function can be reached through several module attributes (for example
``aco.apply_cuts``, ``metrics.apply_cuts`` and ``cli.apply_cuts``). Both
classes here replace every such binding with a wrapper and put the original
back on exit; nothing under ``src/`` is edited.
"""

from __future__ import annotations

import inspect
import itertools
import threading
from time import perf_counter


def public_bindings(modules):
    """Yield (module, attribute, function) for each public roughcut function binding."""
    for module in modules:
        for attr, value in sorted(vars(module).items()):
            if attr.startswith("_") or not callable(value):
                continue
            fn = inspect.unwrap(value)
            if inspect.isfunction(fn) and fn.__module__.startswith("roughcut."):
                yield module, attr, value


def span_name(fn) -> str:
    """Layer-qualified name of the original function, e.g. ``roughset.induce_rules``."""
    fn = inspect.unwrap(fn)
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class _Patch:
    """Swap module attributes for wrappers; restore them in reverse order."""

    def __init__(self):
        self._saved = []

    def patch(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def restore(self):
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)


class Capture(_Patch):
    """Record (args, kwargs, result) of every call through the chosen bindings.

    The benchmark's output checks need values the library does not return,
    such as per-object predictions inside ``evaluate_pipeline``. Only a few
    bindings are captured, each called a handful of times per operation.
    """

    def __init__(self, bindings):
        super().__init__()
        self.bindings = list(bindings)
        self.calls = {}

    def __enter__(self):
        for module, attr in self.bindings:
            key = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            sink = self.calls.setdefault(key, [])
            self.patch(module, attr, self._wrap(getattr(module, attr), sink))
        return self

    def __exit__(self, *exc):
        self.restore()

    def clear(self):
        for sink in self.calls.values():
            sink.clear()

    @staticmethod
    def _wrap(fn, sink):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append((args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper


class Span:
    __slots__ = ("id", "name", "binding", "tid", "parent", "unit", "t0", "t1", "excluded", "extra")

    @property
    def duration(self) -> float:
        """Wall time of the call, less time spent computing span extras inside it."""
        return self.t1 - self.t0 - self.excluded


class Tracer(_Patch):
    """Wrap every public function binding and keep one span per call in memory.

    A span's parent is the innermost open span on its own thread. On a worker
    thread with nothing open, the parent is the innermost open span of the
    thread that installed the tracer (the ACO pool's ants run under
    ``aco.optimize`` that way). ``extras`` maps a span name to a function of
    (args, kwargs, result) whose dict is stored on the span; the time it takes
    is subtracted from every enclosing span on that thread.
    """

    def __init__(self, modules, extras=None):
        super().__init__()
        self.modules = list(modules)
        self.extras = dict(extras or {})
        self.spans: list[Span] = []
        self.unit = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._home_stack: list[Span] = []

    def __enter__(self):
        self._local.stack = self._home_stack
        for module, attr, value in list(public_bindings(self.modules)):
            self.patch(module, attr, self._wrap(value, span_name(value), module.__name__))
        return self

    def __exit__(self, *exc):
        self.restore()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, binding):
        extra_fn = self.extras.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            home = tracer._home_stack
            span = Span()
            span.id = next(tracer._ids)
            span.name = name
            span.binding = binding
            span.tid = threading.get_ident()
            span.parent = stack[-1] if stack else (home[-1] if home else None)
            span.unit = tracer.unit
            span.excluded = 0.0
            span.extra = None
            tracer.spans.append(span)
            stack.append(span)
            span.t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = perf_counter()
                stack.pop()
            if extra_fn is not None:
                h0 = perf_counter()
                span.extra = extra_fn(args, kwargs, result)
                spent = perf_counter() - h0
                for outer in stack:
                    outer.excluded += spent
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def rows(self, origin: float):
        """Spans as plain lists for writing out: times in seconds from ``origin``."""
        for s in self.spans:
            yield [
                s.id, s.name, s.binding, s.tid, None if s.parent is None else s.parent.id,
                s.unit, round(s.t0 - origin, 9), round(s.t1 - origin, 9), round(s.excluded, 9),
                s.extra,
            ]


def self_times(spans) -> dict[int, float]:
    """Self time per span id: its duration less its same-thread children's."""
    child_time: dict[int, float] = {}
    for s in spans:
        p = s.parent
        if p is not None and p.tid == s.tid:
            child_time[p.id] = child_time.get(p.id, 0.0) + s.duration
    return {s.id: s.duration - child_time.get(s.id, 0.0) for s in spans}


def layer_self_time(root, spans) -> float:
    """Time ``root`` spent in its own layer's code: its duration less the
    same-thread descendants that belong to other layers."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None and s.parent.tid == s.tid:
            children.setdefault(s.parent.id, []).append(s)
    layer = root.name.split(".", 1)[0]

    def covered(span):
        total = 0.0
        for c in children.get(span.id, ()):
            total += c.duration if c.name.split(".", 1)[0] != layer else covered(c)
        return total

    return root.duration - covered(root)

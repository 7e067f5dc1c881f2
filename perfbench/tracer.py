"""Per-layer tracing of the ``redwords`` modules from outside the package.

Every function, method and property a layer module defines is replaced by a
timing wrapper for the duration of a ``with Tracer():`` block, in every
module namespace that holds it, so that ``from .words import super_word`` in
another module is caught too.  Protocol dunders (``__eq__``, ``__hash__``,
``__len__``, ...) are left alone: containers and formatting call them
implicitly and a wrapper would cost more than they do.  Their time, like the
time of nested closures, counts toward the span that runs them.

Spans are kept in memory as a call tree aggregated by path: each node holds
the number of calls and the total time of one (layer, name) under one
parent path.  A generator's span covers each resumption, so its time is the
time spent producing items, not the consumer's time between them.  A
node's self time is its total minus the totals of its children, so the self
times of all nodes add up to the root's total.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

PACKAGE = "redwords"
LAYERS = ("perms", "words", "diagrams", "tableaux", "bijection", "graphs", "verify", "cli")
ROOT_LAYER = "bench"
WRAPPED_DUNDERS = {"__new__", "__init__", "__call__", "__mul__"}


class Span:
    """Aggregated spans of one (layer, name) under one parent path."""

    __slots__ = ("layer", "name", "calls", "total", "children")

    def __init__(self, layer: str, name: str):
        self.layer = layer
        self.name = name
        self.calls = 0
        self.total = 0.0
        self.children: dict[tuple[str, str], Span] = {}

    def child(self, layer: str, name: str) -> "Span":
        key = (layer, name)
        node = self.children.get(key)
        if node is None:
            node = self.children[key] = Span(layer, name)
        return node

    def walk(self):
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())


def self_times(root: Span) -> dict[str, float]:
    """Seconds per layer spent in its own spans, excluding child spans."""
    out: dict[str, float] = Counter()
    for node in root.walk():
        out[node.layer] += node.total - sum(c.total for c in node.children.values())
    return dict(out)


def layer_calls(root: Span) -> dict[str, int]:
    out: dict[str, int] = Counter()
    for node in root.walk():
        if node is not root:
            out[node.layer] += node.calls
    return dict(out)


def calls_of(root: Span, layer: str, name: str) -> int:
    return sum(n.calls for n in root.walk() if n.layer == layer and n.name == name)


class Tracer:
    """Installs the wrappers on entry and restores every patch on exit.

    ``counters`` collects the counts that need a call's arguments or result
    (BFS visits, move attempts, graph sizes, descent steps); plain call
    counts are read from the span tree.
    """

    def __init__(self):
        self.root = Span(ROOT_LAYER, "<run>")
        self.counters: Counter = Counter()
        self._stack = [self.root]
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = {
            ("graphs", "_bfs"): self._count_bfs,
            ("graphs", "build_graph"): self._count_graph,
            ("bijection", "Move.on_word"): self._count_move,
            ("bijection", "Move.on_tableau"): self._count_move,
            ("bijection", "descent_to_super"): self._count_descent,
        }

    # -- counters ---------------------------------------------------------

    def _count_bfs(self, parent, args, result):
        self.counters["graphs.bfs_visits"] += sum(1 for d in result if d >= 0)

    def _count_graph(self, parent, args, result):
        self.counters["graphs.vertices"] += len(result.vertices)
        self.counters["graphs.edges"] += len(result.edges)

    def _count_move(self, parent, args, result):
        if (parent.layer, parent.name) == ("graphs", "build_graph"):
            self.counters["graphs.move_attempts"] += 1
            if result is not args[1]:
                self.counters["graphs.move_nontrivial"] += 1

    def _count_descent(self, parent, args, result):
        self.counters["bijection.descent_steps"] += len(result)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(layer, name, fn)
        stack = self._stack
        hook = self._hooks.get((layer, name))
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            node = parent.child(layer, name)
            stack.append(node)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                node.total += clock() - start
                node.calls += 1
                stack.pop()
            if hook is not None:
                hook(parent, args, result)
            return result

        return traced

    def _wrap_generator(self, layer: str, name: str, fn):
        stack = self._stack
        clock = time.perf_counter

        def drive(gen):
            counted = False
            try:
                while True:
                    node = stack[-1].child(layer, name)
                    if not counted:
                        node.calls += 1
                        counted = True
                    stack.append(node)
                    start = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        node.total += clock() - start
                        stack.pop()
                    yield item
            finally:
                gen.close()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return drive(fn(*args, **kwargs))

        return traced

    # -- patching ---------------------------------------------------------

    def _patch(self, target, attr: str, value) -> None:
        """Rebind a module or class attribute, remembering the raw original
        (for a class, the descriptor itself, not what it returns)."""
        self._patches.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def _class_attr(self, layer: str, cls: type, attr: str, raw):
        name = f"{cls.__name__}.{attr}"
        if isinstance(raw, (staticmethod, classmethod)):
            return type(raw)(self._wrap(layer, name, raw.__func__))
        if isinstance(raw, property):
            return property(self._wrap(layer, name, raw.fget), raw.fset, raw.fdel, raw.__doc__)
        if inspect.isfunction(raw):
            return self._wrap(layer, name, raw)
        return None

    def install(self) -> None:
        prefix = PACKAGE + "."
        for layer in LAYERS:
            importlib.import_module(prefix + layer)
        namespaces = [
            m for key, m in list(sys.modules.items())
            if key == PACKAGE or key.startswith(prefix)
        ]
        for layer in LAYERS:
            module = sys.modules[prefix + layer]
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    for attr, raw in list(vars(obj).items()):
                        if attr.startswith("__") and attr not in WRAPPED_DUNDERS:
                            continue
                        wrapped = self._class_attr(layer, obj, attr, raw)
                        if wrapped is not None:
                            self._patch(obj, attr, wrapped)
                elif inspect.isfunction(obj):
                    wrapped = self._wrap(layer, name, obj)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.root.total = time.perf_counter() - self._start
        self.root.calls = 1
        self.uninstall()

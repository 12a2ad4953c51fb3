"""Span tracer that wraps wallkit's public functions from outside the package.

`Tracer.install()` replaces every public function and public method of the
traced modules with a timing wrapper, on every wallkit module that binds it
(``chambers`` imports ``short_vectors``, ``enumerate_quadratic_leq`` and
``divisibility`` by name, ``lattice`` re-exports ``smith_normal_form``, and
the package re-exports most names).  Names that do not exist are skipped, so
the tracer survives refactors that delete helpers.

Spans form a calling-context tree kept in memory.  Each node has an op id, a
parent node and a name.  Calls of hot leaf functions (one per lattice point
or pairing) are folded into one node per (function, parent) with a call
count; other calls get a node each until their name has produced
`SPAN_CAP` nodes, after which they fold too.  Self time is a node's time
minus the time of its wrapped children, so the self times of an op's nodes
add up to the op's traced duration.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

TRACED_MODULES = (
    "_linalg", "lattice", "shortvec", "walls", "chambers", "catalog", "formats", "cli",
)

# Helpers that a planned cleanup deletes; they are neither called nor wrapped,
# so deleting them changes no per-layer metric.
EXCLUDED = frozenset({
    "_linalg.identity",
    "lattice.inner",
    "lattice.primitive_part",
    "shortvec.vectors_up_to",
    "lattice.Embedding.apply_rational",
    "lattice.LatticeVector.scaled",
    "lattice.DiscriminantGroup.b",
    "lattice.DiscriminantGroup.reduce",
    "lattice.DiscriminantGroup.element_order",
})

# Called once per lattice point, pairing or matrix kernel: always folded.
FOLDED_MODULES = frozenset({"_linalg"})
FOLDED = frozenset({
    "lattice.divisibility",
    "lattice.is_primitive",
    "shortvec.enumerate_quadratic_leq",
})

SPAN_CAP = 500


class Node:
    __slots__ = (
        "id", "op", "parent", "name", "start", "end", "calls", "total", "child",
        "points", "items", "cells", "folded",
    )

    def __init__(self, node_id, op, parent, name):
        self.id = node_id
        self.op = op
        self.parent = parent
        self.name = name
        self.start = None
        self.end = None
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.points = 0
        self.items = 0
        self.cells = 0
        self.folded = {}

    @property
    def self_s(self) -> float:
        return self.total - self.child

    def record(self, t0: float, dt: float) -> None:
        if self.start is None:
            self.start = t0
        self.end = t0 + dt
        self.total += dt

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "op": self.op,
            "parent": self.parent.id if self.parent is not None else None,
            "name": self.name,
            "calls": self.calls,
            "start": self.start,
            "end": self.end,
            "total_s": self.total,
            "self_s": self.self_s,
            "points": self.points,
            "items": self.items,
            "cells": self.cells,
        }


def _result_size(result) -> int:
    """Number of answers a call returned: list length, or walls in a report."""
    if isinstance(result, (list, tuple)):
        return len(result)
    walls = getattr(result, "walls", None)
    return len(walls) if isinstance(walls, tuple) else 0


class Tracer:
    def __init__(self):
        self.nodes: list[Node] = []
        self.stack: list[Node] = []
        self.stored = Counter()
        self.wrapped: list[str] = []

    # ------------------------------------------------------------ spans

    def _new(self, parent, name) -> Node:
        node = Node(len(self.nodes), parent.op, parent, name)
        self.nodes.append(node)
        return node

    def _node_for(self, parent: Node, name: str, fold: bool) -> Node:
        if fold or self.stored[name] >= SPAN_CAP:
            node = parent.folded.get(name)
            if node is None:
                node = parent.folded[name] = self._new(parent, name)
            return node
        self.stored[name] += 1
        return self._new(parent, name)

    def run_op(self, op_id: str, fn):
        """Run fn() as the root span of one op; returns (result, seconds)."""
        root = Node(len(self.nodes), op_id, None, "op")
        self.nodes.append(root)
        root.calls = 1
        self.stack.append(root)
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            dt = perf_counter() - t0
            self.stack.pop()
            root.record(t0, dt)
        return result, dt

    # ---------------------------------------------------------- wrappers

    def _wrap_function(self, name, fn, fold):
        stack = self.stack
        node_for = self._node_for

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            node = node_for(parent, name, fold)
            stack.append(node)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                node.calls += 1
                node.record(t0, dt)
                parent.child += dt
            if not fold:
                node.items += _result_size(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name, fn, fold):
        """Time each resumption of the generator; count the points it yields."""
        stack = self.stack
        node_for = self._node_for

        def drive(node, gen):
            while True:
                parent = stack[-1] if stack else None
                stack.append(node)
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    node.record(t0, dt)
                    if parent is not None:
                        parent.child += dt
                node.points += 1
                yield item

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            node = node_for(stack[-1], name, fold)
            node.calls += 1
            return drive(node, fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    def _wrap_spend(self, fn):
        """CellBudget.spend runs once per cell: count amounts, do not time."""
        stack = self.stack

        def spend(budget, amount=1):
            if stack:
                stack[-1].cells += amount
            return fn(budget, amount)

        spend.__wrapped__ = fn
        return spend

    def _make_wrapper(self, short, qual, fn):
        fold = short.split(".")[0] in FOLDED_MODULES or short in FOLDED or "." in qual
        if inspect.isgeneratorfunction(inspect.unwrap(fn)):
            return self._wrap_generator(short, fn, fold)
        return self._wrap_function(short, fn, fold)

    # ----------------------------------------------------------- install

    def install(self) -> None:
        """Wrap the public functions and methods of the traced modules."""
        replace: dict[int, object] = {}
        for modname in TRACED_MODULES:
            try:
                mod = importlib.import_module(f"wallkit.{modname}")
            except ImportError:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                # unwrap lru_cache wrappers such as make_context
                if inspect.isfunction(inspect.unwrap(obj)) and obj.__module__ == mod.__name__:
                    short = f"{modname}.{attr}"
                    if short not in EXCLUDED:
                        replace[id(obj)] = self._make_wrapper(short, attr, obj)
                        self.wrapped.append(short)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(modname, obj)
        for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "wallkit"]:
            for attr, obj in list(vars(mod).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def _wrap_methods(self, modname, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            short = f"{modname}.{cls.__name__}.{attr}"
            if short in EXCLUDED:
                continue
            if short == "shortvec.CellBudget.spend":
                setattr(cls, attr, self._wrap_spend(obj))
            else:
                setattr(cls, attr, self._make_wrapper(short, f"{cls.__name__}.{attr}", obj))
            self.wrapped.append(short)

    # ----------------------------------------------------------- output

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"wrapped": self.wrapped, "nodes": [n.to_json() for n in self.nodes]}, fh)


# ------------------------------------------------------- per-layer metrics

# (metric, unit, better); "linalg" stands for the module wallkit._linalg,
# because a metric name may not start with an underscore.
PER_LAYER = [
    *[(f"linalg.{f}.{m}", u, "lower")
      for f in ("solve_rational", "rank", "kernel_basis", "smith_normal_form", "vec_mat_vec")
      for m, u in (("calls", "count"), ("self_s", "s"))],
    ("lattice.IntegerLattice.inner.calls", "count", "lower"),
    ("lattice.IntegerLattice.inner.self_s", "s", "lower"),
    ("lattice.divisibility.calls", "count", "lower"),
    ("lattice.divisibility.self_s", "s", "lower"),
    ("lattice.saturation.self_s", "s", "lower"),
    ("lattice.discriminant_group.self_s", "s", "lower"),
    ("shortvec.enumerate_quadratic_leq.calls", "count", "lower"),
    ("shortvec.enumerate_quadratic_leq.self_s", "s", "lower"),
    ("shortvec.points", "count", "lower"),
    ("shortvec.short_vectors.self_s", "s", "lower"),
    ("shortvec.short_vectors.hit_ratio", "ratio", "higher"),
    ("shortvec.cells", "count", "lower"),
    ("walls.wall_test.calls", "count", "lower"),
    ("walls.wall_test.self_s", "s", "lower"),
    ("walls.bm_wall_test.self_s", "s", "lower"),
    ("walls.eichler_invariants.self_s", "s", "lower"),
    ("walls.certified_wall_types.calls", "count", "lower"),
    ("walls.certified_wall_types.self_s", "s", "lower"),
    ("chambers.supporting_walls_report.calls", "count", "lower"),
    ("chambers.supporting_walls_report.self_s", "s", "lower"),
    ("chambers.walls_per_candidate", "ratio", "higher"),
    ("chambers.walls_between.calls", "count", "lower"),
    ("chambers.walls_between.self_s", "s", "lower"),
    ("chambers.walls_between.hit_ratio", "ratio", "higher"),
    ("catalog.verify_fixture.self_s", "s", "lower"),
    ("formats.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(nodes) -> dict:
    """Per-layer numbers over the timed ops (set-up spans excluded).

    Returns every PER_LAYER metric except trace.overhead_ratio, which needs
    the untraced run and is filled in by run.py.
    """
    timed = [n for n in nodes if n.op != "setup" and n.parent is not None]
    calls, self_s, points, items = Counter(), Counter(), Counter(), Counter()
    for n in timed:
        calls[n.name] += n.calls
        self_s[n.name] += n.self_s
        points[n.name] += n.points
        items[n.name] += n.items

    def beneath(ancestor, key, name):
        """Sum of key over nodes called `name` with an `ancestor` above them."""
        total = 0
        for n in timed:
            if n.name != name:
                continue
            up = n.parent
            while up is not None and up.name != ancestor:
                up = up.parent
            if up is not None:
                total += getattr(n, key)
        return total

    enum = "shortvec.enumerate_quadratic_leq"
    out = {}
    for metric, _, _ in PER_LAYER:
        layer, _, kind = metric.rpartition(".")
        name = "_" + layer if layer.startswith("linalg.") else layer
        if kind == "calls":
            out[metric] = calls[name]
        elif kind == "self_s" and name == "formats":
            out[metric] = sum(v for k, v in self_s.items() if k.startswith("formats."))
        elif kind == "self_s":
            out[metric] = self_s[name]
    out["shortvec.points"] = points[enum]
    out["shortvec.cells"] = sum(n.cells for n in timed)
    out["shortvec.short_vectors.hit_ratio"] = _ratio(
        items["shortvec.short_vectors"], beneath("shortvec.short_vectors", "points", enum))
    out["chambers.walls_per_candidate"] = _ratio(
        items["chambers.supporting_walls_report"],
        beneath("chambers.supporting_walls_report", "calls", "lattice.divisibility"))
    out["chambers.walls_between.hit_ratio"] = _ratio(
        items["chambers.walls_between"], beneath("chambers.walls_between", "points", enum))
    return out

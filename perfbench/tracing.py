"""Span tracing from outside the program: wrap functions, aggregate a span tree.

A span is one call of a wrapped function.  Spans are not stored one by one:
each distinct path of span names (``cli.run_experiment`` >
``solvers.outer.accbio`` > ``hypergrad.aid_estimate`` ...) is one node of a
tree that accumulates the call count, the total time and the self time
(duration minus the time covered by child spans).  Memory stays constant no
matter how many calls a workload makes, and every question the report asks
("exact-surface time whose parent span is a solver") is a query over paths.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Node:
    """Aggregate of every span that shares one path of names."""

    __slots__ = ("name", "parent", "children", "calls", "total", "self_time")

    def __init__(self, name: str, parent: "Node | None"):
        self.name = name
        self.parent = parent
        self.children: dict[str, Node] = {}
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0

    def child(self, name: str) -> "Node":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Node(name, self)
        return node

    def walk(self):
        """Yield every node below this one, depth first."""
        for node in self.children.values():
            yield node
            yield from node.walk()


class Tracer:
    """Collects spans into a tree rooted at an unnamed node.

    `clock` is injectable so the self-time arithmetic can be tested with a
    fake clock.  `counts` holds per-layer work counts recorded at the same
    boundaries (steps, bytes, failed checks).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.root = Node("", None)
        self.counts: dict[str, float] = {}
        # each frame is [node, time covered by children]
        self._stack: list[list] = [[self.root, 0.0]]

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, skip_under: tuple[str, ...] = (), after=None):
        """Return `fn` wrapped in a span called `name`.

        A call made while the innermost open span's name starts with one of
        `skip_under` runs unwrapped: it is part of that span's own work (an
        operator applied inside a densification, `phi` evaluated inside
        `phi_star`).  `after(tracer, args, kwargs, result)` records counts.
        """
        stack = self._stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if skip_under and parent[0].name.startswith(skip_under):
                return fn(*args, **kwargs)
            node = parent[0].child(name)
            frame = [node, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                node.calls += 1
                node.total += elapsed
                node.self_time += elapsed - frame[1]
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def nodes(self, prefix: str) -> list[Node]:
        """Every node whose name starts with `prefix`."""
        return [n for n in self.root.walk() if n.name.startswith(prefix)]

    def covered(self) -> float:
        """Time covered by top-level spans (children of the root)."""
        return sum(n.total for n in self.root.children.values())


class Patches:
    """Replaces attributes on modules and classes and restores them on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, bool, object]] = []

    def set(self, owner, attr: str, value) -> None:
        own = attr in vars(owner)
        self._saved.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, own, old = self._saved.pop()
            if own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


@contextmanager
def patched():
    patches = Patches()
    try:
        yield patches
    finally:
        patches.restore()

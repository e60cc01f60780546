"""In-memory spans around the calls into each wavedens layer.

The tracer wraps public functions where their callers import them (for
example ``wavedens.risk_metrics.simulate``), so the program itself is not
edited. Each span records its name, start, end, the span that caused it and
the item (MC replicate) it belongs to. Every thread keeps
its own stack, so spans of a thread-pool replicate nest under their own
parents and never under a span of another thread.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "item")

    def __init__(self, name, start, parent, item):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.item = item

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped functions; ``patch`` installs a wrapper."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._items = 0
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_item(self) -> None:
        """Start a new item (replicate) on the calling thread."""
        with self._lock:
            self._items += 1
            self._local.item = self._items

    def wrap(self, name: str, fn, starts_item: bool = False):
        """Return fn wrapped in a span; a root span may open a new item."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if starts_item and not stack:
                self.new_item()
            span = Span(name, time.perf_counter(),
                        stack[-1] if stack else None,
                        getattr(self._local, "item", None))
            self.spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
        return traced

    def patch(self, module, attr: str, name: str, starts_item: bool = False) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, starts_item))

    def patch_factory(self, module, attr: str, name: str) -> None:
        """Wrap every callable that module.attr returns (e.g. cli.make_fit)."""
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, lambda *a, **k: self.wrap(name, original(*a, **k)))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self, wall_s: float, threads: int) -> dict:
        """Per-span-name and per-layer totals, self times and pool efficiency.

        A span's self time is its duration minus the durations of its child
        spans; children run on the parent's thread and nest inside it, so
        their intervals never overlap. The layer of a span is the module
        prefix of its name. Pool efficiency is the summed duration of root
        spans (one replicate's top-level calls) over wall time x threads.
        """
        spans = [s for s in self.spans if s.end is not None]
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_time[id(s.parent)] += s.duration
        items = len({s.item for s in spans if s.item is not None}) or 1
        by_name: dict[str, dict] = {}
        by_layer: dict[str, float] = defaultdict(float)
        busy = 0.0
        for s in spans:
            own = s.duration - child_time[id(s)]
            entry = by_name.setdefault(s.name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["total_ms"] += 1e3 * s.duration
            entry["self_ms"] += 1e3 * own
            by_layer[s.name.split(".")[0]] += 1e3 * own
            if s.parent is None:
                busy += s.duration
        for entry in by_name.values():
            entry["self_ms_per_item"] = entry["self_ms"] / items
        total_self = sum(by_layer.values()) or 1.0
        layers = {layer: {"self_ms_per_item": ms / items, "self_share": ms / total_self}
                  for layer, ms in sorted(by_layer.items())}
        return {
            "items": items,
            "spans": len(spans),
            "by_name": dict(sorted(by_name.items())),
            "layers": layers,
            "pool_efficiency": busy / (wall_s * threads),
        }

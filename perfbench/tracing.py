"""In-memory spans recorded around calls into the program's public API.

Tracing lives entirely in the benchmark: :class:`Tracer` wraps public
callables (methods on classes, functions under the module name their
caller looks up, and the evaluator callables handed to the engine) so
each call records a span with its layer, name, start, end, parent span
and trace id.  Nothing inside ``src/`` knows it is being traced.

Parent links follow the calling thread's span stack.  The HTTP server
answers on its own thread, so a span opened there with an empty stack
is parented to the client request that is in flight on the main
thread; the benchmark is closed loop, so at most one such request is
outstanding.  A layer's self time is its spans' durations minus the
parts of their intervals that child spans cover.
"""

import contextlib
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional

#: Span layers, named after the modules they measure.
LAYERS = ("ft", "noise", "engine", "simulators", "evaluators",
          "checkpoint", "queue", "cache", "worker", "sweep", "wire")


class Span:
    __slots__ = ("id", "parent", "trace", "layer", "name", "start",
                 "end", "thread", "attrs")

    def __init__(self, span_id: int, parent: Optional[int], trace: str,
                 layer: str, name: str, thread: str) -> None:
        self.id = span_id
        self.parent = parent
        self.trace = trace
        self.layer = layer
        self.name = name
        self.thread = thread
        self.start = time.perf_counter()
        self.end: Optional[float] = None
        self.attrs: Dict[str, Any] = {}

    def to_json_dict(self) -> Dict[str, Any]:
        return {"id": self.id, "parent": self.parent,
                "trace": self.trace, "layer": self.layer,
                "name": self.name, "start": self.start,
                "end": self.end, "thread": self.thread,
                **({"attrs": self.attrs} if self.attrs else {})}


class Tracer:
    """Collects spans in memory; patches are undone by :meth:`close`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._wire_stack: List[Span] = []
        self._patches: List[tuple] = []

    # -- spans -------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, layer: str, name: str, trace: Optional[str] = None):
        stack = self._stack()
        on_main = threading.current_thread() is self._main
        if stack:
            parent = stack[-1]
        elif not on_main and layer != "wire" and self._wire_stack:
            parent = self._wire_stack[-1]   # server side of a request
        else:
            parent = None
        if trace is None:
            trace = parent.trace if parent is not None else "untraced"
        with self._lock:
            record = Span(len(self.spans),
                          parent.id if parent is not None else None,
                          trace, layer, name,
                          threading.current_thread().name)
            self.spans.append(record)
        stack.append(record)
        if layer == "wire" and on_main:
            self._wire_stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            if layer == "wire" and on_main:
                self._wire_stack.pop()

    def wrap(self, layer: str, name: str, fn: Callable,
             observe: Optional[Callable[[Span, Any], None]] = None
             ) -> Callable:
        """``fn`` with every call recorded as a span."""
        def traced(*args, **kwargs):
            with self.span(layer, name) as record:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(record, result)
                return result
        traced.__wrapped__ = fn
        return traced

    def replace(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`close`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch(self, owner: Any, attr: str, layer: str,
              observe: Optional[Callable[[Span, Any], None]] = None
              ) -> None:
        """Replace ``owner.attr`` with a traced wrapper until close."""
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        self.replace(owner, attr,
                     self.wrap(layer, name, getattr(owner, attr),
                               observe))

    def close(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------

    def self_times(self, root: Span) -> Dict[str, float]:
        """Self time per layer over the spans under ``root``.

        Self time is a span's duration minus the union of its
        children's intervals clipped to it, so nested calls of one
        layer (a store method calling another) count once.
        """
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None and span.end is not None:
                children.setdefault(span.parent, []).append(span)
        totals: Dict[str, float] = {}
        pending = [root]
        while pending:
            span = pending.pop()
            kids = children.get(span.id, [])
            pending.extend(kids)
            covered = 0.0
            cursor = span.start
            for kid in sorted(kids, key=lambda s: s.start):
                start = max(kid.start, cursor)
                end = min(kid.end, span.end)
                if end > start:
                    covered += end - start
                    cursor = end
            totals[span.layer] = totals.get(span.layer, 0.0) + \
                (span.end - span.start) - covered
        return totals

    def under(self, root: Span) -> List[Span]:
        """Every finished span in ``root``'s subtree, root included."""
        inside = {root.id}
        found = [root]
        for span in self.spans[root.id + 1:]:
            if span.parent in inside and span.end is not None:
                inside.add(span.id)
                found.append(span)
        return found

    def outermost(self, spans: List[Span], layer: str) -> List[Span]:
        """Spans of ``layer`` whose parent is of another layer."""
        layer_of = {span.id: span.layer for span in spans}
        return [span for span in spans if span.layer == layer
                and layer_of.get(span.parent) != layer]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_json_dict()) + "\n")

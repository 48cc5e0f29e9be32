"""A lightweight span tracer for the query-processing pipeline.

Section 4.1 presents the AQL implementation as an *open* pipeline
(parse → desugar → typecheck → optimize → evaluate).  To reason about
where time goes — the instrument-first posture of columnar array-query
systems — every stage is wrapped in a :class:`Span`: a named interval
with wall-clock start/end times, arbitrary metadata, and nested
children.

Two implementations share the interface:

* :class:`Tracer` records real spans (``enabled`` is ``True``);
* :class:`NullTracer` is a zero-cost stand-in whose :meth:`~NullTracer.span`
  hands back one cached no-op context manager, so instrumented code can
  be written unconditionally (``with tracer.span("parse"): ...``) and
  costs two attribute lookups when observability is off.

Spans serialize with :meth:`Span.to_dict`, the ``spans`` entry of the
EXPLAIN export that ``benchmarks/suite`` and ``tests/test_shape_claims.py``
read; ``docs/OBSERVABILITY.md`` documents the schema.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional


class Span:
    """One named, timed interval in a trace tree."""

    __slots__ = ("name", "start", "end", "children", "meta")

    def __init__(self, name: str, start: Optional[float] = None):
        self.name = name
        self.start = time.perf_counter() if start is None else start
        self.end: Optional[float] = None
        self.children: List["Span"] = []
        self.meta: Dict[str, Any] = {}

    @property
    def seconds(self) -> float:
        """Elapsed wall-clock seconds (0.0 while the span is open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def close(self) -> None:
        """Stamp the end time (idempotent: the first close wins)."""
        if self.end is None:
            self.end = time.perf_counter()

    def find(self, name: str) -> Optional["Span"]:
        """Depth-first search for the first descendant named ``name``."""
        for child in self.children:
            if child.name == name:
                return child
            found = child.find(name)
            if found is not None:
                return found
        return None

    def walk(self):
        """Yield ``(depth, span)`` pairs over the subtree, pre-order."""
        stack = [(0, self)]
        while stack:
            depth, span = stack.pop()
            yield depth, span
            for child in reversed(span.children):
                stack.append((depth + 1, child))

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe representation of the subtree."""
        payload: Dict[str, Any] = {
            "name": self.name,
            "seconds": round(self.seconds, 9),
        }
        if self.meta:
            payload["meta"] = dict(self.meta)
        if self.children:
            payload["children"] = [c.to_dict() for c in self.children]
        return payload

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.seconds:.6f}s, " \
               f"{len(self.children)} children)"


class _SpanContext:
    """Context manager that closes a span and pops the tracer stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._span.close()
        if exc_type is not None:
            self._span.meta.setdefault("error", exc_type.__name__)
        stack = self._tracer._stack
        if stack and stack[-1] is self._span:
            stack.pop()
        return False


class Tracer:
    """Records a tree of nested :class:`Span` objects.

    Usage::

        tracer = Tracer()
        with tracer.span("optimize"):
            with tracer.span("phase:normalize", rules=21):
                ...
        tracer.root.children  # the recorded tree
    """

    enabled = True

    def __init__(self):
        self.root = Span("trace")
        self._stack: List[Span] = [self.root]

    def span(self, name: str, **meta: Any) -> _SpanContext:
        """Open a child span of the innermost live span."""
        span = Span(name)
        if meta:
            span.meta.update(meta)
        self._stack[-1].children.append(span)
        self._stack.append(span)
        return _SpanContext(self, span)

    def annotate(self, **meta: Any) -> None:
        """Attach metadata to the innermost live span."""
        self._stack[-1].meta.update(meta)

    def finish(self) -> Span:
        """Close every open span and return the root."""
        while len(self._stack) > 1:
            self._stack.pop().close()
        self.root.close()
        return self.root

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dump of the whole trace tree."""
        return self.root.to_dict()

    def render(self, indent: str = "  ") -> str:
        """A human-readable indented tree with millisecond timings."""
        lines = []
        for depth, span in self.root.walk():
            if span is self.root:
                continue
            extra = ""
            if span.meta:
                extra = "  " + " ".join(
                    f"{k}={v}" for k, v in sorted(span.meta.items())
                )
            lines.append(
                f"{indent * (depth - 1)}{span.name:<24s} "
                f"{span.seconds * 1e3:9.3f} ms{extra}"
            )
        return "\n".join(lines)


class _NullSpanContext:
    """The reusable no-op context manager handed out by NullTracer."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_CONTEXT = _NullSpanContext()


class NullTracer:
    """A do-nothing tracer: the zero-cost path when observability is off."""

    enabled = False

    def span(self, name: str, **meta: Any) -> _NullSpanContext:
        """Return the cached no-op context manager."""
        return _NULL_CONTEXT

    def annotate(self, **meta: Any) -> None:
        """Ignore metadata."""

    def finish(self) -> None:
        """Nothing to close."""

    def to_dict(self) -> Dict[str, Any]:
        """An empty trace."""
        return {}

    def render(self, indent: str = "  ") -> str:
        """An empty rendering."""
        return ""


#: the shared do-nothing tracer; safe because it holds no state
NULL_TRACER = NullTracer()


__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER"]

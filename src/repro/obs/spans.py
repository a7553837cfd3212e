"""Structured trace spans with deterministic, seed-derived ids.

A :class:`Tracer` records :class:`Span` records through a
context-manager API::

    with tracer.span("serving.request", request_id=7) as sp:
        ...
        sp.attrs["status"] = "ok"

Determinism is the whole point.  Real tracing systems mint random span
ids and stamp wall-clock times; both would break the repo's invariant
that a seeded campaign is bit-reproducible and that workers 1 vs N
produce identical artifacts.  Instead:

* the **trace id** is a hash of the trial seed (:meth:`Tracer.start_trace`),
* each **span id** is a hash of ``(trace_id, parent_id, name, child_index)``
  — the index being a per-parent counter, so the id encodes the span's
  position in the call tree and nothing else,
* **timestamps** come from a settable clock that campaigns point at
  their simulated-time counter (ticks x tick_ms); the default clock
  returns 0.0 so spans created outside any campaign stay deterministic.

Ids are hashed the first time they are read, not when a span opens: a
span keeps a reference to its parent and its child index, which is all
the formula needs, and nothing on the request path reads an id.  A
span is its own context manager and drops its tracer when it closes.

Spans survive the fork boundary: pickling a span resolves its ids, so a
worker's spans, drained with :meth:`Tracer.drain` and re-attached on
the parent with :meth:`Tracer.adopt` (see ``repro.engine.runner``),
carry the same ids as spans recorded inline.
"""

from __future__ import annotations

import hashlib
from typing import Callable

#: parent_id used for root spans when hashing child indices
_ROOT = ""


def _hash_id(*parts: object, digest_size: int = 8) -> str:
    text = "/".join(str(p) for p in parts)
    return hashlib.blake2b(text.encode(), digest_size=digest_size).hexdigest()


class Span:
    """One recorded operation: name, ids, simulated-time bounds, attrs.

    Opened by :meth:`Tracer.span`; ``span_id`` and ``parent_id`` are
    hashed from the span's position in the call tree on first read.
    """

    __slots__ = (
        "name", "trace_id", "start_ms", "end_ms", "attrs",
        "_parent", "_parent_id", "_index", "_span_id", "_children",
        "_tracer",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        start_ms: float,
        attrs: dict,
        parent: Span | None,
        index: int,
        tracer: Tracer | None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.start_ms = start_ms
        self.end_ms: float | None = None
        self.attrs = attrs
        self._parent = parent
        #: a root's parent id, or a resolved one after unpickling
        self._parent_id: str | None = None
        self._index = index
        self._span_id: str | None = None
        #: child spans opened under this one so far
        self._children = 0
        self._tracer = tracer

    @property
    def span_id(self) -> str:
        span_id = self._span_id
        if span_id is None:
            span_id = self._span_id = _hash_id(
                self.trace_id, self.parent_id or _ROOT, self.name, self._index
            )
        return span_id

    @property
    def parent_id(self) -> str | None:
        parent = self._parent
        return self._parent_id if parent is None else parent.span_id

    @property
    def duration_ms(self) -> float:
        if self.end_ms is None:
            return 0.0
        return self.end_ms - self.start_ms

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "attrs": dict(sorted(self.attrs.items())),
        }

    def __reduce__(self) -> tuple[type[Span], tuple, tuple[None, dict]]:
        # a closed, parentless copy carrying its ids already resolved
        resolved = {
            "end_ms": self.end_ms,
            "_span_id": self.span_id,
            "_parent_id": self.parent_id,
        }
        return Span, (
            self.name, self.trace_id, self.start_ms, self.attrs, None, 0, None
        ), (None, resolved)

    def __enter__(self) -> Span:
        if self._tracer is not None:
            self._tracer._stack.append(self)
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: object,
    ) -> bool:
        tracer = self._tracer
        if tracer is None:
            return False
        self._tracer = None
        self.end_ms = tracer._clock()
        if exc is not None:
            self.attrs.setdefault("error", type(exc).__name__)
        stack = tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        tracer._spans.append(self)
        return False


class _NullSpan:
    """Context manager handed out when tracing is disabled.

    Supports the same ``sp.attrs[...] = ...`` idiom; the dict is
    discarded on exit so disabled call sites stay allocation-light and
    never accumulate state.
    """

    __slots__ = ("attrs",)

    def __enter__(self) -> "_NullSpan":
        self.attrs: dict = {}
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: object,
    ) -> bool:
        return False


class Tracer:
    """Collects spans for the current process; one per obs singleton."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._spans: list[Span] = []
        self._stack: list[Span] = []
        #: root spans opened in the current trace
        self._roots = 0
        self._trace_id = _hash_id("trace", 0)
        self._clock: Callable[[], float] = lambda: 0.0
        self._null = _NullSpan()

    # -- configuration --------------------------------------------------

    @property
    def trace_id(self) -> str:
        return self._trace_id

    def set_clock(self, clock: Callable[[], float]) -> None:
        """Point span timestamps at a simulated-time source.

        Campaigns call this with ``lambda: self._now_ms`` so span times
        line up with scorecard latencies and event ``time_days``.  Never
        wire this to a wall clock — ids are deterministic but the
        recorded times would not be.
        """
        self._clock = clock

    def start_trace(self, seed: int) -> str:
        """Begin a fresh trace rooted at ``seed``; clears recorded spans.

        Returns the new trace id (a hash of the seed, so the same trial
        seed yields the same trace regardless of worker placement).
        """
        self._trace_id = _hash_id("trace", seed)
        self._spans.clear()
        self._stack.clear()
        self._roots = 0
        return self._trace_id

    def reset(self) -> None:
        """Drop all recorded state and return to the default trace."""
        self.start_trace(0)
        self._clock = lambda: 0.0

    # -- recording ------------------------------------------------------

    def span(self, name: str, **attrs: object) -> Span | _NullSpan:
        """Open a child span of whatever span is currently on the stack."""
        if not self.enabled:
            return self._null
        stack = self._stack
        if stack:
            parent: Span | None = stack[-1]
            index = parent._children
            parent._children = index + 1
        else:
            parent = None
            index = self._roots
            self._roots = index + 1
        return Span(
            name, self._trace_id, self._clock(), attrs, parent, index, self
        )

    # -- gather ---------------------------------------------------------

    def spans(self) -> list[Span]:
        """The recorded (closed) spans, in completion order."""
        return list(self._spans)

    def drain(self) -> list[Span]:
        """Remove and return all recorded spans (worker hand-off)."""
        out = self._spans
        self._spans = []
        return out

    def adopt(self, spans: list[Span]) -> None:
        """Attach spans recorded elsewhere (a worker, a prior trace)."""
        self._spans.extend(spans)


__all__ = ["Span", "Tracer"]

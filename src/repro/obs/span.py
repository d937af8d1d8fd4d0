"""Sim-time spans and the tracer that records them.

A :class:`Span` is one timed operation on the path of a request:
``trace_id`` groups every span of one parent request, ``parent_id``
links a span to its causal parent, and ``kind`` is the coarse category
the critical-path analyzer attributes time to (``client``, ``rpc``,
``network``, ``server``, ``queue``, ``service``).

The tracer records spans and nothing else.  Instant facts each have one
home elsewhere: audit records in :class:`~repro.audit.trace.EventTrace`,
served read sizes in :class:`~repro.devices.base.DeviceStats` (a traced
I/O's dispatch also in its ``blk.service`` span), fault windows and GC
storms in the timeline's marks.

Construction is cheap, and every instrumented site guards with ``if tracer is not None`` so a
run without observability pays one attribute load per site and nothing
else.  Spans are plain ``__slots__`` objects — a traced run allocates
one per operation, the dominant tracing cost.  Two mitigations keep
what a traced run builds down:

* **Empty-attrs sentinel.**  Spans opened without attributes share one
  immutable empty mapping (:data:`EMPTY_ATTRS`) instead of each holding
  ``None``/a fresh dict; :meth:`Span.annotate` swaps in a dict of its
  own on the first write.
  The sentinel is falsy, so every ``span.attrs or {}`` /
  ``if span.attrs:`` consumer behaves exactly as before.
* **1-in-N sampling.**  With ``sample_n > 1`` only traces whose id is
  divisible by N are retained.  :meth:`Tracer.root` returns ``None``
  for the others, and because every instrumented site hangs child
  spans off a non-``None`` parent, an unsampled trace costs one
  modulo — no span object is ever built for it.  The sampling decision
  is a pure function of the trace id and therefore constant down the
  whole request tree — every retained trace is complete.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Optional

#: Span kinds the critical-path analyzer knows how to attribute.
KIND_CLIENT = "client"
KIND_RPC = "rpc"
KIND_NETWORK = "network"
KIND_SERVER = "server"
KIND_QUEUE = "queue"
KIND_SERVICE = "service"

#: Shared immutable mapping for spans with no attributes.  Falsy (it is
#: empty), so serialization and ``attrs or {}`` call sites are
#: unchanged; :meth:`Span.annotate` swaps it for a private dict on the
#: first write.
EMPTY_ATTRS: Dict[str, Any] = MappingProxyType({})


class Span:
    """One timed operation; ``end is None`` while still open."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "kind",
                 "start", "end", "attrs")

    def __init__(self, trace_id: int, span_id: int, parent_id: Optional[int],
                 name: str, kind: str, start: float,
                 attrs: Optional[Dict[str, Any]] = None) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs if attrs else EMPTY_ATTRS

    @property
    def duration(self) -> float:
        """Span duration; 0.0 while the span is still open."""
        return 0.0 if self.end is None else self.end - self.start

    def annotate(self, **attrs: Any) -> None:
        """Attach (or update) attributes after the span was opened —
        used where the interesting fact (route taken, return value) is
        only known mid-operation.  The shared empty sentinel is never
        mutated: a first write keeps the dict the keywords were packed
        into."""
        if self.attrs:
            self.attrs.update(attrs)
        else:
            self.attrs = attrs

    def to_dict(self) -> Dict[str, Any]:
        """JSONL wire form (see :mod:`repro.obs.export`)."""
        rec: Dict[str, Any] = {
            "type": "span", "trace": self.trace_id, "id": self.span_id,
            "parent": self.parent_id, "name": self.name, "kind": self.kind,
            "t0": self.start, "t1": self.end,
        }
        if self.attrs:
            rec["attrs"] = dict(self.attrs)
        return rec

    @classmethod
    def from_dict(cls, rec: Dict[str, Any]) -> "Span":
        span = cls(rec["trace"], rec["id"], rec.get("parent"), rec["name"],
                   rec.get("kind", "other"), rec["t0"], rec.get("attrs"))
        span.end = rec.get("t1")
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Span {self.name} #{self.span_id} trace={self.trace_id} "
                f"[{self.start}, {self.end})>")


_new_span = Span.__new__


class Tracer:
    """Records spans for one simulated run.

    Retention is bounded by ``max_spans``: past the cap new spans are
    counted in :attr:`dropped` but not retained (they are still useful
    as a signal that the in-memory analysis is partial; the JSONL
    mirror written by :class:`~repro.obs.runtime.ObsRuntime` is not
    affected because it is fed from the same list before clearing).

    ``sample_n`` enables 1-in-N root-trace sampling (see the module
    docstring): :meth:`root` opens no span for an unsampled trace.
    """

    def __init__(self, max_spans: int = 200_000, sample_n: int = 1) -> None:
        self.max_spans = max_spans
        self.sample_n = max(1, int(sample_n))
        self.spans: List[Span] = []
        self.dropped = 0
        #: Trees pruned at :meth:`root` by the 1-in-N sampler (distinct
        #: from ``dropped``, which counts retention-cap overflow).
        self.unsampled = 0
        self._ids = itertools.count(1)
        #: Called with each span as it closes (see
        #: :meth:`~repro.obs.runtime.ObsRuntime.flush_spans`): the hook
        #: incremental streaming hangs off.  Closure-driven rather than a
        #: sim process, so enabling it cannot perturb event schedules.
        #: Note it fires even for spans past the retention cap — the
        #: streamed file is complete where the in-memory list is partial.
        self.sink: Optional[Callable[[Span], None]] = None

    # ------------------------------------------------------------- spans
    def root(self, name: str, kind: str, trace_id: int, start: float,
             attrs: Optional[Dict[str, Any]] = None) -> Optional[Span]:
        """Open a trace's root span — or ``None`` when the trace falls
        outside the 1-in-N sample.

        This is the hot-path form of sampling: instrumented sites hang
        child spans off a non-``None`` parent, so returning ``None``
        here prunes the *entire* tree of an unsampled trace before a
        single span object is touched.
        """
        if self.sample_n > 1 and trace_id % self.sample_n:
            self.unsampled += 1
            return None
        return self.start(name, kind, trace_id, start, attrs=attrs)

    def start(self, name: str, kind: str, trace_id: int, start: float,
              parent: Optional[Span] = None,
              parent_id: Optional[int] = None,
              attrs: Optional[Dict[str, Any]] = None) -> Span:
        """Open a span; pass either a parent span or an explicit id.

        ``attrs`` becomes the span's attribute dict as is, so pass a
        fresh one.  It is one dict, not keyword arguments: CPython
        matches each extra keyword against every parameter name before
        packing it.  The slots are filled directly, as
        ``Environment.timeout`` builds a timeout.
        """
        span = _new_span(Span)
        span.trace_id = trace_id
        span.span_id = next(self._ids)
        span.parent_id = parent_id if parent is None else parent.span_id
        span.name = name
        span.kind = kind
        span.start = start
        span.end = None
        span.attrs = attrs or EMPTY_ATTRS
        spans = self.spans
        if len(spans) < self.max_spans:
            spans.append(span)
        else:
            self.dropped += 1
        return span

    def finish(self, span: Span, end: float) -> None:
        span.end = end
        if self.sink is not None:
            self.sink(span)

    # ------------------------------------------------------------- misc
    def clear(self) -> None:
        """Drop retained spans (measurement-state reset)."""
        self.spans.clear()
        self.dropped = 0
        self.unsampled = 0

    def __len__(self) -> int:
        return len(self.spans)

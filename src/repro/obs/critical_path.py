"""Critical-path analysis and straggler attribution over span trees.

For every trace (one :class:`~repro.pfs.messages.ParentRequest`) the
analyzer:

1. walks the span tree backwards from the root's completion, always
   descending into the child whose completion gated progress (the
   *straggler chain*) — producing a sequence of segments that exactly
   tiles the parent's latency;
2. attributes each segment to its span's ``kind`` (client, rpc,
   network, server, queue-wait, device service), so the per-kind
   breakdown sums to the parent latency by construction;
3. names the straggler sub-request — the per-server piece that finished
   last — and computes the *magnification factor*: straggler time over
   the median sibling time.  This is the paper's striping-magnification
   effect (§II, Fig. 2) rendered as a per-request number: a fragment
   that costs 3x its siblings drags the whole synchronous request to
   3x, no matter how fast the other pieces were.

:func:`analyze` returns a lazy :class:`RunReport`: the trace count and
the magnification list (all the workload harness reads) come from one
pass over the closed roots and their rpc children, and the walk above
runs only when a caller reads per-trace results.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .span import KIND_RPC, Span

#: Slack for float comparisons between adjacent span boundaries.
EPS = 1e-9


@dataclass
class TraceTree:
    """One trace's spans indexed for traversal."""

    root: Span
    spans: List[Span]
    children: Dict[int, List[Span]] = field(default_factory=dict)

    def child_spans(self, span: Span) -> List[Span]:
        return self.children.get(span.span_id, [])


@dataclass
class PathSegment:
    """One interval of the critical path, attributed to one span."""

    name: str
    kind: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class TraceReport:
    """Critical-path attribution for one parent request."""

    trace_id: int
    latency: float
    #: Seconds attributed to each span kind along the critical path;
    #: values sum to ``latency`` (within float tolerance) by
    #: construction.
    breakdown: Dict[str, float]
    #: The straggler chain, root completion back to root start.
    path: List[PathSegment]
    #: Attrs of the sub-request that finished last (None for traces
    #: with no rpc children, e.g. hand-built degenerate trees).
    straggler: Optional[Dict[str, Any]] = None
    #: straggler time / median sibling time; None for single-piece
    #: requests (nothing to magnify).
    magnification: Optional[float] = None
    #: True when the straggler is also the smallest sibling — the
    #: unaligned-fragment signature the paper's Fig. 2 motivates.
    straggler_is_smallest: Optional[bool] = None


def build_trees(spans: Sequence[Span]) -> Dict[int, TraceTree]:
    """Group closed spans into per-trace trees (keyed by trace id).

    Traces without a closed root span are skipped: a bounded tracer may
    have dropped their spans, and an aborted run may have left them
    open — either way there is nothing sound to attribute.
    """
    by_trace: Dict[int, List[Span]] = {}
    for span in spans:
        if span.end is None:
            continue
        by_trace.setdefault(span.trace_id, []).append(span)
    trees: Dict[int, TraceTree] = {}
    for trace_id, group in by_trace.items():
        ids = set()
        root = None
        multiple_roots = False
        for s in group:
            ids.add(s.span_id)
            if s.parent_id is None:
                if root is None:
                    root = s
                else:
                    multiple_roots = True
        if root is None or multiple_roots:
            continue
        children: Dict[int, List[Span]] = {}
        for span in group:
            if span is root or span.parent_id not in ids:
                continue
            children.setdefault(span.parent_id, []).append(span)
        for siblings in children.values():
            siblings.sort(key=lambda s: (s.start, s.end, s.span_id))
        trees[trace_id] = TraceTree(root=root, spans=group, children=children)
    return trees


def _walk(tree: TraceTree, span: Span, lo: float, hi: float,
          breakdown: Dict[str, float], path: List[PathSegment]) -> None:
    """Attribute ``[lo, hi]`` of ``span``; recurse down gating children.

    Walks backwards from ``hi``: the child that finished last (at or
    before the current point) gated progress, so its interval belongs
    to it; any gap above it is the span's own time.  The recursion
    partitions ``[lo, hi]`` exactly, which is what makes the per-kind
    breakdown sum to the root latency.
    """
    cur = hi
    kids = tree.child_spans(span)
    while cur - lo > EPS:
        # Single pass for the gating child: the candidate with the
        # greatest (end, start, span_id).  Equivalent to building the
        # candidate list and taking max(), minus the allocations —
        # this walk runs over every retained trace at the end of every
        # traced run, so it is part of the tracing overhead budget.
        gate = None
        for c in kids:
            end = c.end
            if (end is None or end > cur + EPS or end <= lo + EPS
                    or c.start >= cur - EPS):
                continue
            if gate is None or \
                    (end, c.start, c.span_id) > (gate.end, gate.start,
                                                 gate.span_id):
                gate = c
        if gate is None:
            breakdown[span.kind] = breakdown.get(span.kind, 0.0) + (cur - lo)
            path.append(PathSegment(span.name, span.kind, lo, cur))
            return
        top = min(gate.end, cur)
        if cur - top > EPS:
            breakdown[span.kind] = breakdown.get(span.kind, 0.0) + (cur - top)
            path.append(PathSegment(span.name, span.kind, top, cur))
        child_lo = max(gate.start, lo)
        _walk(tree, gate, child_lo, top, breakdown, path)
        cur = child_lo


def _straggler(subs: List[Span]) -> Tuple[Span, Optional[float]]:
    """The straggler among a root's rpc children and its magnification
    (straggler time over the median sibling time; None with no sibling
    or a zero median)."""
    straggler = max(subs, key=lambda s: (s.end, s.duration, s.span_id))
    durs = sorted(s.duration for s in subs if s is not straggler)
    if not durs:
        return straggler, None
    n = len(durs)
    mid = durs[n // 2] if n % 2 else 0.5 * (durs[n // 2 - 1] + durs[n // 2])
    return straggler, (straggler.duration / mid if mid > 0 else None)


def analyze_trace(tree: TraceTree) -> TraceReport:
    """Critical-path attribution for one span tree."""
    root = tree.root
    breakdown: Dict[str, float] = {}
    path: List[PathSegment] = []
    _walk(tree, root, root.start, root.end, breakdown, path)
    report = TraceReport(trace_id=root.trace_id, latency=root.duration,
                         breakdown=breakdown, path=path)

    subs = [s for s in tree.child_spans(root) if s.kind == KIND_RPC]
    if subs:
        straggler, report.magnification = _straggler(subs)
        report.straggler = dict(straggler.attrs or {})
        report.straggler.setdefault("duration", straggler.duration)
        if len(subs) > 1:
            sizes = [(s.attrs or {}).get("nbytes") for s in subs]
            if all(isinstance(n, (int, float)) for n in sizes):
                report.straggler_is_smallest = (
                    (straggler.attrs or {}).get("nbytes") == min(sizes))
    return report


def _count_and_magnifications(spans: Sequence[Span]
                              ) -> Tuple[int, List[float]]:
    """How many traces :func:`build_trees` keeps over closed ``spans``
    and their magnifications in trace-id order, without building trees
    or walking paths."""
    roots: Dict[int, Optional[Span]] = {}
    for s in spans:
        if s.parent_id is None and s.end is not None:
            # A second root voids the trace, as in build_trees.
            roots[s.trace_id] = None if s.trace_id in roots else s
    subs: Dict[int, List[Span]] = {}
    for s in spans:
        if s.kind == KIND_RPC and s.end is not None:
            root = roots.get(s.trace_id)
            if root is not None and s.parent_id == root.span_id:
                subs.setdefault(s.trace_id, []).append(s)
    mags = []
    for trace_id in sorted(subs):
        mag = _straggler(subs[trace_id])[1]
        if mag is not None:
            mags.append(mag)
    return sum(1 for r in roots.values() if r is not None), mags


class RunReport:
    """Aggregate straggler attribution over every trace of a run.

    Built from spans by :func:`analyze`, the report reads them lazily:
    :attr:`count` and :meth:`magnifications` take one pass over the
    closed roots and their rpc children, and :attr:`traces` (with
    everything derived from it) walks every trace's critical path on
    its first read.  Both see the closed spans as they were at
    :func:`analyze`.
    """

    def __init__(self, traces: Optional[List[TraceReport]] = None,
                 spans: Sequence[Span] = ()) -> None:
        self._traces = traces
        self._closed = [s for s in spans if s.end is not None]
        self._summary: Optional[Tuple[int, List[float]]] = None

    @property
    def traces(self) -> List[TraceReport]:
        """Per-trace reports in trace-id order (walked on first read)."""
        if self._traces is None:
            trees = build_trees(self._closed)
            self._traces = [analyze_trace(trees[t]) for t in sorted(trees)]
        return self._traces

    def _count_and_mags(self) -> Tuple[int, List[float]]:
        if self._traces is not None:
            return len(self._traces), [t.magnification for t in self._traces
                                       if t.magnification is not None]
        if self._summary is None:
            self._summary = _count_and_magnifications(self._closed)
        return self._summary[0], list(self._summary[1])

    @property
    def count(self) -> int:
        return self._count_and_mags()[0]

    def magnifications(self) -> List[float]:
        return self._count_and_mags()[1]

    @property
    def mean_magnification(self) -> float:
        mags = self.magnifications()
        return sum(mags) / len(mags) if mags else 0.0

    @property
    def max_magnification(self) -> float:
        mags = self.magnifications()
        return max(mags) if mags else 0.0

    def breakdown_totals(self) -> Dict[str, float]:
        """Seconds per span kind summed over every critical path."""
        totals: Dict[str, float] = {}
        for trace in self.traces:
            for kind, seconds in trace.breakdown.items():
                totals[kind] = totals.get(kind, 0.0) + seconds
        return totals

    def straggler_servers(self) -> Dict[int, int]:
        """{server id: times it hosted the straggler piece}."""
        tally: TallyCounter = TallyCounter()
        for trace in self.traces:
            if trace.straggler and "server" in trace.straggler:
                tally[trace.straggler["server"]] += 1
        return dict(sorted(tally.items()))

    @property
    def straggler_smallest_fraction(self) -> float:
        """Of multi-piece requests, how often the smallest piece gated."""
        flags = [t.straggler_is_smallest for t in self.traces
                 if t.straggler_is_smallest is not None]
        if not flags:
            return 0.0
        return sum(1 for f in flags if f) / len(flags)

    def format(self) -> str:
        """Printable summary (used by the CLI after traced runs)."""
        from ..results import format_table
        totals = self.breakdown_totals()
        total = sum(totals.values()) or 1.0
        rows = [[kind, round(seconds, 6), f"{seconds / total * 100:.1f}%"]
                for kind, seconds in sorted(totals.items(),
                                            key=lambda kv: -kv[1])]
        out = format_table(
            ["span kind", "critical-path s", "share"], rows,
            title=f"Critical-path attribution over {self.count} requests")
        mags = self.magnifications()
        if mags:
            out += (f"\n  striping magnification (straggler/median sibling): "
                    f"mean {self.mean_magnification:.2f}x, "
                    f"max {self.max_magnification:.2f}x over {len(mags)} "
                    f"multi-piece requests")
            out += (f"\n  straggler was the smallest piece in "
                    f"{self.straggler_smallest_fraction * 100:.0f}% of them")
        servers = self.straggler_servers()
        if servers:
            top = sorted(servers.items(), key=lambda kv: -kv[1])[:4]
            out += ("\n  straggler server counts: "
                    + ", ".join(f"ds{s}:{n}" for s, n in top))
        return out


def analyze(spans: Sequence[Span]) -> RunReport:
    """Attribution of every complete trace in ``spans`` (lazy; see
    :class:`RunReport`)."""
    return RunReport(spans=spans)

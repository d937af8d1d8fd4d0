"""Span-slab benchmark: the observability hot path in isolation.

``span_alloc`` times spans started/finished per second with
``sample_n=1`` (every span retained, every span allocated) vs
``sample_n=4`` (1-in-4 traces retained; dropped spans recycle through
the tracer's freelist).  The sampled rate should beat the unsampled one
because three quarters of the spans never allocate a dict and reuse
slab objects.
"""

from __future__ import annotations

import time
from typing import Any, Dict

from repro.obs.span import Tracer


def _span_rate(sample_n: int, spans: int) -> float:
    """Spans started+finished per second through one Tracer."""
    # Cap retention well below the span count so the retained path
    # (append + sink) and the recycled path both run at steady state.
    tracer = Tracer(max_spans=spans, sample_n=sample_n)
    start = time.perf_counter()
    t = 0.0
    for trace_id in range(spans):
        span = tracer.start("bench", "rpc", trace_id, t)
        tracer.finish(span, t)
        t += 1e-6
    elapsed = time.perf_counter() - start
    return spans / elapsed if elapsed > 0 else 0.0


def span_alloc_bench(quick: bool = False) -> Dict[str, Any]:
    spans = 50_000 if quick else 200_000
    repeats = 2 if quick else 3
    unsampled = max(_span_rate(1, spans) for _ in range(repeats))
    sampled = max(_span_rate(4, spans) for _ in range(repeats))
    return {
        "spans": spans,
        "unsampled_ops_per_s": unsampled,
        "sampled_ops_per_s": sampled,
        "sample_n": 4,
        "sampled_speedup": sampled / unsampled if unsampled else 0.0,
    }

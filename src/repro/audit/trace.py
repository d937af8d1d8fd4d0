"""Structured event-trace sink shared by the auditors and the watchdog.

Every audit-relevant event (byte movements, cache mutations, violations,
watchdog dumps) is recorded as one flat dict with a simulated timestamp
and a ``kind``.  The trace keeps a bounded in-memory ring for test
introspection and can mirror every record to a JSON-lines file so a
failing run is replayable offline::

    {"t": 0.004096, "kind": "ssd_write", "server": 0, "nbytes": 4096, ...}

Records are append-only and self-contained; a violation record carries
the full invariant message, so ``grep '"violation"' trace.jsonl`` finds
every failure with its context.

Lifecycle contract: a trace that mirrors to a file owns that file
handle until :meth:`close` is called (idempotent; safe to call twice).
Use the trace as a context manager to guarantee the mirror is closed —
and therefore complete on disk — even when the run aborts mid-way::

    with EventTrace(path="trace.jsonl") as trace:
        ...   # emit() calls; a raised exception still closes the file

Violation records are additionally flushed to disk the moment they are
emitted, so a run killed right after detecting an invariant breach
still leaves the evidence in the mirror.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from typing import Dict, List, Optional


class EventTrace:
    """Bounded in-memory ring + optional JSONL mirror.

    A record is never mutated after :meth:`emit` returns it: the audit
    runtime's violation list keeps references to the ring's records
    instead of copies, and reads them later.  The ring and the mirror
    are the only home of audit records; the obs tracer keeps no copy.
    """

    def __init__(self, path: Optional[str] = None, limit: int = 4096) -> None:
        self._records: deque = deque(maxlen=limit if limit > 0 else None)
        self._counts: Counter = Counter()
        self._path = path
        # Append, don't truncate: one experiment may build several
        # clusters in sequence (each with its own AuditRuntime) that all
        # mirror to the same path.  Whoever owns the path for a whole
        # invocation (e.g. the CLI) truncates it once up front.
        self._file = open(path, "a", encoding="utf-8") if path else None

    def emit(self, time: float, kind: str, **fields) -> Dict:
        """Record one event; returns the record dict (never mutate it)."""
        return self.record({"t": round(time, 9), "kind": kind, **fields})

    def record(self, record: Dict) -> Dict:
        """Append one record built by the caller, shaped as :meth:`emit`
        builds it (``t`` rounded to 9 places, then ``kind``, then the
        fields); returns it (never mutate it).  The audit hooks build
        their records directly, so each costs one dict."""
        self._records.append(record)
        kind = record["kind"]
        self._counts[kind] += 1
        if self._file is not None:
            json.dump(record, self._file, default=str)
            self._file.write("\n")
            if kind == "violation":
                # An invariant breach may abort the run; make sure the
                # evidence reaches the disk before anything else happens.
                self._file.flush()
        return record

    def records(self, kind: Optional[str] = None) -> List[Dict]:
        """Retained records, optionally filtered by ``kind``."""
        if kind is None:
            return list(self._records)
        return [r for r in self._records if r["kind"] == kind]

    def count(self, kind: Optional[str] = None) -> int:
        """Events emitted over the trace's lifetime (not just retained)."""
        if kind is None:
            return sum(self._counts.values())
        return self._counts[kind]

    def summary(self) -> Dict[str, int]:
        """Lifetime event counts by kind."""
        return dict(sorted(self._counts.items()))

    def flush(self) -> None:
        if self._file is not None:
            self._file.flush()

    def close(self) -> None:
        """Close the JSONL mirror (idempotent; ring stays readable)."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "EventTrace":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

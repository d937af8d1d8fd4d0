"""Canonical run digests.

:func:`run_digest` lives here, in the module that once held the
partitioned-horizon engine, because the benchmark harness
(``perfbench/``) and its tests import it from ``repro.sim.parallel``.
The engine itself was deleted (DESIGN.md §14); every run is serial.
"""

from __future__ import annotations

import hashlib
import json


def run_digest(result) -> str:
    """A canonical sha256 over everything behavior-visible in a result.

    Request *ids* are excluded on purpose: back-to-back runs in one
    process keep counting them up, but ids are labels — they never
    influence the event schedule.  Floats are hashed via ``float.hex``
    so the digest is exact, not printf-rounded.

    Only numeric extras are hashed, so a caller may attach descriptive,
    non-numeric extras (host telemetry, labels) without changing it.
    """
    def fhex(x):
        return None if x is None else float(x).hex()

    reqs = sorted(result.requests, key=lambda r: (
        r.complete_time if r.complete_time is not None else -1.0,
        r.submit_time if r.submit_time is not None else -1.0,
        r.rank, r.offset, r.nbytes, r.op.value))
    payload = {
        "name": result.name,
        "makespan": fhex(result.makespan),
        "total_bytes": int(result.total_bytes),
        "ssd_fraction": fhex(result.ssd_fraction),
        "requests": [
            [r.op.value, r.rank, r.offset, r.nbytes,
             fhex(r.submit_time), fhex(r.complete_time)] for r in reqs],
        "extra": {k: fhex(v) for k, v in sorted(result.extra.items())
                  if v is None or isinstance(v, (int, float))},
        "recovery": {k: fhex(v) for k, v in sorted(result.recovery.items())},
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()

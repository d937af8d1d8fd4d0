"""Seeded episode-spec sampling: the fuzzer's random scenario source.

A spec is a plain JSON-able dict — no live objects — so it can be
hashed (:func:`repro.experiments.runner.stable_hash`), shipped to a
pool worker, shrunk field-by-field, and committed to the corpus
verbatim.  All randomness comes from one
:func:`~repro.util.rng.rng_stream` substream per ``(seed, index)``
pair, so ``sample_spec(0, k)`` is the same scenario on every machine,
forever.

The sampler is deliberately *constraint-aware* rather than uniform:

* Same-target fail/slow windows are placed disjointly (each exclusion
  group keeps a ``next_free`` cursor), so every sampled plan passes
  :meth:`~repro.faults.plan.FaultPlan.validate` by construction —
  rejection sampling over the overlap rule would bias the schedule
  distribution in hard-to-reason-about ways.
* The client retry budget is *derived* from the sampled plan: attempts
  and per-attempt timeouts are sized so retries outlast the last
  fail-stop window with margin.  A ``retry-exhausted`` episode verdict
  therefore indicates a genuine recovery bug, not a tester that gave up
  too early.  ``total_timeout`` (the new wall-clock cap) is set past
  the horizon so it only fires on pathological schedules.
* Workloads are kept small (a few MiB) so a fuzz run of dozens of
  episodes finishes in CI-smoke time; the *shapes* (unaligned request
  sizes, shifted offsets, read re-runs warming the SSD cache) still
  cover the paper's interesting patterns.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List

from ..faults.plan import FaultEvent, FaultKind, FaultPlan, _target_key
from ..units import KiB, MiB
from ..util.rng import rng_stream

#: Current spec schema; bump on incompatible layout changes so stale
#: corpus entries fail loudly instead of replaying the wrong scenario.
SPEC_SCHEMA = 1

#: Per-episode budgets (see ``repro.chaos.episode._budget_guard``).
#: ``sim_time``/``events`` are deterministic; ``wall_clock`` is a
#: real-time backstop that only fires when the engine itself is stuck.
DEFAULT_BUDGET: Dict[str, float] = {
    "sim_time": 30.0,
    "events": 2_000_000,
    "wall_clock": 120.0,
}

#: Latest window start the sampler places (seconds of simulated time).
_FAULT_SPAN = 0.08

_REQUEST_SIZES = [4 * KiB, 16 * KiB, 64 * KiB, 65 * KiB, 96 * KiB]
_SHIFTS = [0, 1 * KiB, 4 * KiB]
_PARTITIONS = [8 * MiB, 64 * MiB]
_RETRY_TIMEOUTS = [0.02, 0.04, 0.08]


def _pick(rng, options: List):
    """Native-typed choice (``rng.choice`` returns numpy scalars)."""
    return options[int(rng.integers(0, len(options)))]


def _round(x: float, places: int = 4) -> float:
    """Spec floats are rounded so reproducer JSON stays human-sized."""
    return round(float(x), places)


# --------------------------------------------------------------- faults
def _sample_fault(rng, kinds: List[str], cluster: Dict,
                  next_free: Dict) -> FaultEvent:
    """One fault event, shifted forward past same-target windows."""
    kind = FaultKind(_pick(rng, kinds))
    server = int(rng.integers(0, cluster["num_servers"]))
    start = _round(rng.uniform(0.0, _FAULT_SPAN))
    duration = _round(rng.uniform(0.01, 0.06))
    kwargs: Dict = {"kind": kind, "server": server, "start": start,
                    "duration": duration}
    if kind is FaultKind.DEVICE_SLOW:
        kwargs["disk"] = int(rng.integers(0, cluster["disks_per_server"]))
        kwargs["device"] = ("ssd" if cluster["ibridge"]
                            and rng.random() < 0.25 else "hdd")
        kwargs["latency_mult"] = _round(rng.uniform(2.0, 12.0), 2)
        kwargs["bw_mult"] = _round(rng.uniform(1.0, 4.0), 2)
    elif kind is FaultKind.DEVICE_FAIL:
        kwargs["disk"] = int(rng.integers(0, cluster["disks_per_server"]))
    elif kind is FaultKind.SSD_FAIL:
        kwargs["policy"] = "drain" if rng.random() < 0.5 else "forfeit"
    elif kind is FaultKind.NET_DELAY:
        kwargs["delay"] = _round(rng.uniform(0.0005, 0.005))
        if rng.random() < 0.3:
            kwargs["server"] = None  # whole-fabric delay
    elif kind is FaultKind.NET_DROP:
        kwargs["drop_prob"] = _round(rng.uniform(0.05, 0.5), 2)
    event = FaultEvent(**kwargs)
    key = _target_key(event)
    if key is not None:
        floor = next_free.get(key, 0.0)
        if event.start < floor:
            event = dataclasses.replace(event, start=_round(floor))
        next_free[key] = event.start + event.duration + 0.005
    return event


def _sample_plan(rng, cluster: Dict, index: int) -> FaultPlan:
    kinds = [FaultKind.DEVICE_SLOW.value, FaultKind.DEVICE_FAIL.value,
             FaultKind.NET_DELAY.value, FaultKind.NET_DROP.value,
             FaultKind.SERVER_CRASH.value]
    if cluster["ibridge"]:
        kinds.append(FaultKind.SSD_FAIL.value)
    n = int(rng.integers(0, 5))
    next_free: Dict = {}
    events = [_sample_fault(rng, kinds, cluster, next_free)
              for _ in range(n)]
    # Sort by start so the plan reads chronologically in reproducers
    # (driver order is irrelevant to semantics: each event gets its own
    # driver process sleeping to its window).
    events.sort(key=lambda e: (e.start, e.kind.value))
    plan = FaultPlan(events=tuple(events), name=f"chaos:{index}")
    plan.validate()
    return plan


def _derive_retry(rng, plan: FaultPlan) -> Dict:
    """Retry parameters sized to outlast the sampled fault schedule."""
    timeout = _pick(rng, _RETRY_TIMEOUTS)
    horizon = plan.horizon()
    # Worst case a sub-request issued at t=0 must keep retrying until
    # the last window reverts; give ~2x margin on top.
    need = horizon + 0.2
    max_retries = min(40, max(6, math.ceil(need / timeout) + 2))
    return {
        "timeout": timeout,
        "max_retries": int(max_retries),
        "backoff_base": 0.002,
        "backoff_cap": 0.01,
        "total_timeout": _round(horizon + 5.0, 2),
    }


# -------------------------------------------------------------- sampling
def sample_spec(seed: int, index: int) -> Dict:
    """Sample episode ``index`` of fuzzing campaign ``seed``.

    Returns the plain-dict episode spec consumed by
    :func:`repro.chaos.episode.run_episode`.
    """
    rng = rng_stream(seed, f"chaos:{index}")
    cluster = {
        "num_servers": _pick(rng, [2, 3, 4]),
        "disks_per_server": _pick(rng, [1, 1, 2]),
        "ibridge": bool(rng.random() < 0.8),
        "ssd_partition": _pick(rng, _PARTITIONS),
    }
    op = "read" if rng.random() < 0.5 else "write"
    kind = "mpi-io-test" if rng.random() < 0.6 else "ior"
    workload = {
        "kind": kind,
        "op": op,
        "nprocs": _pick(rng, [2, 4, 8]),
        "request_size": _pick(rng, _REQUEST_SIZES),
        "iterations": int(rng.integers(2, 6)),
        "offset_shift": (_pick(rng, _SHIFTS)
                         if kind == "mpi-io-test" else 0),
        # Re-runs of the same program are the paper's read-side benefit
        # case: a warm pass leaves fragments in the SSD cache, so the
        # measured pass exercises cache hits under faults.
        "warm_runs": (1 if op == "read" and cluster["ibridge"]
                      and rng.random() < 0.4 else 0),
    }
    plan = _sample_plan(rng, cluster, index)
    spec = {
        "schema": SPEC_SCHEMA,
        "seed": int(rng.integers(0, 2**31 - 1)),
        "workload": workload,
        "cluster": cluster,
        "retry": _derive_retry(rng, plan),
        "faults": plan.to_dict(),
        "budget": dict(DEFAULT_BUDGET),
    }
    # FTL/GC-storm knobs sample *after* every pre-existing draw so the
    # substream prefix — and therefore the scenario that any older
    # (seed, index) pair maps to — is unchanged.  Storm windows compose
    # with everything, so no ``next_free`` bookkeeping is needed.
    cluster["ftl"] = bool(rng.random() < 0.3)
    if rng.random() < 0.25:
        target = (None if rng.random() < 0.5  # correlated fleet storm
                  else int(rng.integers(0, cluster["num_servers"])))
        storm = FaultEvent(kind=FaultKind.GC_STORM, server=target,
                           start=_round(rng.uniform(0.0, _FAULT_SPAN)),
                           duration=_round(rng.uniform(0.01, 0.05)))
        events = sorted(plan.events + (storm,),
                        key=lambda e: (e.start, e.kind.value))
        plan = FaultPlan(events=tuple(events), name=plan.name)
        plan.validate()
        spec["faults"] = plan.to_dict()
    return spec

"""Delta-debugging reproducer minimization for failing episodes.

Given a failing spec, :func:`shrink_spec` searches for the smallest
spec that *still fails the same way*, using three passes repeated to a
fixed point:

1. **ddmin over fault events** (Zeller's classic algorithm): try
   dropping subsets and complements of the event list at increasing
   granularity, keeping any reduction that preserves the failure.
2. **Workload/cluster parameter descent**: fewer ranks, fewer
   iterations, smaller requests, no warm pass, fewer servers — each
   candidate is accepted only if the failure survives.
3. **Event-field shrinking**: shorter windows, smaller multipliers,
   lower drop probabilities — so the committed reproducer documents the
   *minimal* severity that triggers the bug, which is the most useful
   fact for whoever debugs it.

"Fails the same way" means the candidate's failure **kinds** (the token
before ``:`` in each failure entry — ``audit``, ``watchdog``,
``restore``, ``retry-exhausted``, ...) intersect the original's.
Requiring exact equality would reject reductions that merely drop a
secondary symptom; requiring nothing would let the search wander to an
unrelated bug.

The search is budgeted by episode count (``max_runs``) and every
candidate is validated before running — a reduction that produces an
ill-formed spec (e.g. dropping servers below a fault's target) counts
as uninteresting, not as an error.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..errors import ChaosError, ReproError

#: Default episode budget for one shrink (ddmin is O(n^2) worst case
#: on the event list, but our lists are tiny; parameter descent
#: dominates in practice).
DEFAULT_MAX_RUNS = 150


def failure_kinds(failures: List[str]) -> frozenset:
    """The coarse failure categories of an episode result."""
    return frozenset(f.split(":", 1)[0] for f in failures)


@dataclass
class ShrinkResult:
    """Outcome of one minimization."""

    original: Dict
    reduced: Dict
    original_failures: List[str]
    reduced_failures: List[str]
    #: Episodes executed by the search (baseline included).
    runs: int = 0
    #: Fault events before/after — the headline reduction metric.
    events_before: int = 0
    events_after: int = 0
    trail: List[str] = field(default_factory=list)


class _Search:
    """Shared state: run budget, memo of already-tried candidates."""

    def __init__(self, run_fn: Callable[[Dict], Dict], kinds: frozenset,
                 max_runs: int) -> None:
        self.run_fn = run_fn
        self.kinds = kinds
        self.max_runs = max_runs
        self.runs = 0
        self._seen: Dict[str, bool] = {}
        self.last_failures: List[str] = []

    def interesting(self, spec: Dict) -> bool:
        """Does ``spec`` still fail with an overlapping failure kind?"""
        from ..experiments.runner import stable_hash
        key = stable_hash(spec)
        if key in self._seen:
            return self._seen[key]
        if self.runs >= self.max_runs:
            return False
        self.runs += 1
        try:
            result = self.run_fn(spec)
        except ReproError:
            # A candidate the episode runner itself rejects (invalid
            # plan after a reduction, unbuildable config) is simply not
            # a reproducer.
            self._seen[key] = False
            return False
        ok = (not result["ok"]
              and bool(failure_kinds(result["failures"]) & self.kinds))
        if ok:
            self.last_failures = list(result["failures"])
        self._seen[key] = ok
        return ok


# ----------------------------------------------------------------- ddmin
def _ddmin(items: List, test: Callable[[List], bool]) -> List:
    """Classic ddmin: minimal sublist of ``items`` for which ``test``
    holds, assuming ``test(items)`` holds on entry."""
    n = 2
    while len(items) >= 2:
        chunk = max(1, len(items) // n)
        subsets = [items[i:i + chunk] for i in range(0, len(items), chunk)]
        reduced = False
        for i, subset in enumerate(subsets):
            if test(subset):
                items, n, reduced = subset, 2, True
                break
            complement = [x for j, s in enumerate(subsets) if j != i
                          for x in s]
            if complement and test(complement):
                items, n, reduced = complement, max(2, n - 1), True
                break
        if not reduced:
            if n >= len(items):
                break
            n = min(len(items), n * 2)
    if len(items) == 1 and test([]):
        return []
    return items


def _with_events(spec: Dict, events: List[Dict]) -> Dict:
    out = copy.deepcopy(spec)
    out["faults"] = {"name": spec["faults"].get("name", "fault-plan"),
                     "events": copy.deepcopy(events)}
    return out


# ------------------------------------------------------------ reductions
def _param_candidates(spec: Dict) -> List:
    """(description, candidate) pairs, most aggressive first."""
    out = []
    w, c = spec["workload"], spec["cluster"]

    def patch(desc, path, value):
        cand = copy.deepcopy(spec)
        node = cand
        for k in path[:-1]:
            node = node[k]
        node[path[-1]] = value
        out.append((desc, cand))

    if w["warm_runs"]:
        patch("drop warm run", ("workload", "warm_runs"), 0)
    for nprocs in (2, w["nprocs"] // 2):
        if 1 <= nprocs < w["nprocs"]:
            patch(f"nprocs={nprocs}", ("workload", "nprocs"), nprocs)
    if w["iterations"] > 1:
        patch("iterations=1", ("workload", "iterations"), 1)
        half = w["iterations"] // 2
        if 1 < half < w["iterations"]:
            patch(f"iterations={half}", ("workload", "iterations"), half)
    if w["offset_shift"]:
        patch("offset_shift=0", ("workload", "offset_shift"), 0)
    if c["num_servers"] > 2:
        patch("num_servers=2", ("cluster", "num_servers"), 2)
    if c["disks_per_server"] > 1:
        patch("disks_per_server=1", ("cluster", "disks_per_server"), 1)
    return out


def _event_field_candidates(spec: Dict) -> List:
    out = []
    events = spec["faults"]["events"]
    for i, ev in enumerate(events):
        def patch(desc, key, value, i=i):
            cand = copy.deepcopy(spec)
            cand["faults"]["events"][i][key] = value
            out.append((f"event[{i}] {desc}", cand))

        duration = ev.get("duration")
        if duration is not None and duration > 0.02:
            patch(f"duration={round(duration / 2, 4)}", "duration",
                  round(duration / 2, 4))
        if ev.get("latency_mult", 1.0) > 2.0:
            half = round(max(2.0, ev["latency_mult"] / 2), 2)
            patch(f"latency_mult={half}", "latency_mult", half)
        if ev.get("bw_mult", 1.0) > 2.0:
            patch("bw_mult=2.0", "bw_mult", 2.0)
        if ev.get("drop_prob", 0.0) > 0.1:
            half = round(ev["drop_prob"] / 2, 2)
            patch(f"drop_prob={half}", "drop_prob", half)
        if ev.get("start", 0.0) > 0.0:
            patch("start=0.0", "start", 0.0)
    return out


# -------------------------------------------------------------- shrinking
def shrink_spec(spec: Dict, run_fn: Callable[[Dict], Dict],
                max_runs: int = DEFAULT_MAX_RUNS,
                baseline: Optional[Dict] = None) -> ShrinkResult:
    """Minimize a failing episode spec.

    ``run_fn`` maps a spec to an episode result
    (:func:`repro.chaos.episode.run_episode` in production; tests pass
    synthetic functions to exercise the search itself).  ``baseline``
    is the already-known failing result for ``spec``, if the caller has
    one — saves one episode.
    """
    result = baseline if baseline is not None else run_fn(spec)
    if result["ok"]:
        raise ChaosError("shrink_spec needs a failing episode")
    kinds = failure_kinds(result["failures"])
    search = _Search(run_fn, kinds, max_runs)
    search.runs = 0 if baseline is not None else 1
    search.last_failures = list(result["failures"])
    out = ShrinkResult(original=copy.deepcopy(spec), reduced=spec,
                       original_failures=list(result["failures"]),
                       reduced_failures=list(result["failures"]),
                       events_before=len(spec["faults"]["events"]),
                       events_after=len(spec["faults"]["events"]))
    current = copy.deepcopy(spec)

    changed = True
    while changed and search.runs < max_runs:
        changed = False
        # 1. ddmin the fault-event list.
        events = current["faults"]["events"]
        if events:
            reduced = _ddmin(
                list(events),
                lambda subset: search.interesting(
                    _with_events(current, subset)))
            if len(reduced) < len(events):
                current = _with_events(current, reduced)
                out.trail.append(f"events {len(events)} -> {len(reduced)}")
                changed = True
        # 2. Parameter descent (first improvement wins, then re-loop).
        for desc, cand in _param_candidates(current):
            if search.interesting(cand):
                current = cand
                out.trail.append(desc)
                changed = True
                break
        # 3. Event-field severity descent.
        for desc, cand in _event_field_candidates(current):
            if search.interesting(cand):
                current = cand
                out.trail.append(desc)
                changed = True
                break

    out.reduced = current
    out.reduced_failures = (search.last_failures
                            or list(result["failures"]))
    out.runs = search.runs
    out.events_after = len(current["faults"]["events"])
    return out

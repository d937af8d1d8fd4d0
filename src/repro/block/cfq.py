"""CFQ-like scheduler: per-stream queues, round-robin service, idling.

Linux CFQ gives each process (here: each *stream*, typically an MPI
rank or a server-internal actor) its own queue, serves queues
round-robin with a quantum, sorts within a queue by LBN, and idles
briefly on a queue hoping its owner submits an adjacent request.

Merging follows Linux elevator semantics: a new request merges into any
queued request it is contiguous with, *regardless of owning process*
(``global_merge``, the default).  Whether the contiguous partner is
still queued when the new request arrives is a timing race — under the
uncoordinated process arrivals that striping produces, the partner has
often already been dispatched, which is exactly the paper's explanation
for the collapsed block-level request sizes of Figs. 2(d)/(e).
Dispatch *order*, by contrast, is strictly per-stream: CFQ never
interleaves streams within a service slice, so cross-stream spatial
locality goes unexploited at dispatch time.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from ..config import SchedulerConfig
from .request import BlockRequest, Dispatch
from .scheduler import Scheduler, SelectResult, _MergeIndex


class _StreamQueue:
    """One stream's pending dispatches, kept sorted by LBN."""

    __slots__ = ("stream", "dispatches", "served_in_slice")

    def __init__(self, stream: int) -> None:
        self.stream = stream
        self.dispatches: List[Dispatch] = []
        self.served_in_slice = 0

    def add(self, dispatch: Dispatch) -> None:
        idx = len(self.dispatches)
        for i, other in enumerate(self.dispatches):
            if dispatch.lbn < other.lbn:
                idx = i
                break
        self.dispatches.insert(idx, dispatch)

    def pop_next(self, position: int) -> Dispatch:
        """Next dispatch at-or-after ``position`` (C-LOOK within stream)."""
        chosen = None
        for d in self.dispatches:
            if d.lbn >= position:
                chosen = d
                break
        if chosen is None:
            chosen = self.dispatches[0]
        self.dispatches.remove(chosen)
        return chosen


class CFQScheduler(Scheduler):
    """Round-robin per-stream service with quantum, idling and merging."""

    def __init__(self, config: SchedulerConfig) -> None:
        super().__init__(config)
        self._queues: "OrderedDict[int, _StreamQueue]" = OrderedDict()
        self._active: Optional[int] = None
        self._idle_until: Optional[float] = None
        self._position = 0
        #: Every queued dispatch, by start and by end: the merges look
        #: their candidates up here instead of scanning the queues.
        self._index = _MergeIndex()
        self.insert_merges = 0

    # ------------------------------------------------------------- insert
    def add(self, req: BlockRequest) -> None:
        self._pending += 1
        if self._try_insert_merge(req):
            self.insert_merges += 1
            if req.stream == self._active:
                self._idle_until = None
            return
        q = self._queues.get(req.stream)
        if q is None:
            q = _StreamQueue(req.stream)
            self._queues[req.stream] = q
        dispatch = Dispatch(req)
        q.add(dispatch)
        self._index.add(dispatch)
        if req.stream == self._active:
            # The anticipated request arrived; cancel the idle window.
            self._idle_until = None

    def _try_insert_merge(self, req: BlockRequest) -> bool:
        """Linux elv_merge: absorb ``req`` into a contiguous queued
        dispatch (any stream when global_merge, else same stream).

        Takes the first that can merge in stream-queue order, then in
        dispatch order, visiting only the dispatches the index lists as
        ending at ``req``'s start or starting at its end.
        """
        index = self._index
        op = req.op
        backs = index.ends.get((op, req.lbn))
        fronts = index.starts.get((op, req.lbn + req.nbytes))
        if backs is None and fronts is None:
            return False
        limit = self.config.max_merge_bytes
        window = self.config.merge_window
        queues = self._queues
        stream = None if self.config.global_merge else req.stream
        best = best_q = best_key = None
        for group in (backs, fronts):
            for dispatch in group or ():
                if (dispatch.nbytes + req.nbytes > limit
                        or not dispatch.within_merge_window(req, window)):
                    continue
                # A queued dispatch sits in its first member's stream queue.
                q = queues[dispatch.members[0].stream]
                if stream is not None and q.stream != stream:
                    continue
                if best is None:
                    best, best_q = dispatch, q
                    continue
                if best_key is None:
                    order = list(queues)
                    best_key = (order.index(best_q.stream),
                                best_q.dispatches.index(best))
                key = (order.index(q.stream), q.dispatches.index(dispatch))
                if key < best_key:
                    best, best_q, best_key = dispatch, q, key
        if best is None:
            return False
        index.discard(best)
        if best.end == req.lbn:
            best.back_merge(req)
            index.add(best)
        else:
            best.front_merge(req)
            index.add(best)
            # Front merge moves the dispatch's start; re-sort.
            best_q.dispatches.remove(best)
            best_q.add(best)
        return True

    # ------------------------------------------------------------- dispatch
    def _rotate_to_next(self) -> Optional[_StreamQueue]:
        """Advance round-robin to the next non-empty stream queue."""
        if not self._queues:
            return None
        keys = list(self._queues.keys())
        if self._active in self._queues:
            start = keys.index(self._active) + 1
        else:
            start = 0
        order = keys[start:] + keys[:start]
        for key in order:
            q = self._queues[key]
            if q.dispatches:
                q.served_in_slice = 0
                self._active = key
                return q
            del self._queues[key]  # garbage-collect drained streams
        return None

    def select(self, now: float) -> SelectResult:
        if self._pending == 0:
            self._idle_until = None
            return None, None

        active_q = self._queues.get(self._active) if self._active is not None else None

        if active_q is not None and not active_q.dispatches:
            # Active stream is empty: idle briefly for its next request
            # (CFQ anticipation), unless the window already expired.
            if self.config.idle_window > 0:
                if self._idle_until is None:
                    self._idle_until = now + self.config.idle_window
                if now < self._idle_until:
                    return None, self._idle_until
            self._idle_until = None
            active_q = None

        if active_q is not None and active_q.served_in_slice >= self.config.quantum:
            active_q = None  # quantum exhausted, rotate

        if active_q is None:
            active_q = self._rotate_to_next()
            if active_q is None:
                return None, None

        dispatch = active_q.pop_next(self._position)
        index = self._index
        index.discard(dispatch)
        active_q.served_in_slice += 1
        limit = self.config.max_merge_bytes
        window = self.config.merge_window

        # Late merge within the active stream: absorb queued dispatches
        # contiguous with the one being issued.  A pass over the queue
        # absorbs each dispatch contiguous with the grown dispatch when
        # reached, so the next one a pass absorbs is the earliest
        # candidate in the queue at or after the last one absorbed;
        # passes repeat until one absorbs nothing.
        dispatches = active_q.dispatches
        stream = active_q.stream
        op = dispatch.op
        born = dispatch.born
        merged = True
        while merged:
            merged = False
            pos = 0
            while True:
                backs = index.starts.get((op, dispatch.end))
                fronts = index.ends.get((op, dispatch.lbn))
                if backs is None and fronts is None:
                    break
                best = None
                best_i = 0
                for group in (backs, fronts):
                    for other in group or ():
                        if (other.members[0].stream != stream
                                or abs(other.born - born) > window
                                or dispatch.nbytes + other.nbytes > limit):
                            continue
                        i = dispatches.index(other)
                        if i >= pos and (best is None or i < best_i):
                            best, best_i = other, i
                if best is None:
                    break
                del dispatches[best_i]
                index.discard(best)
                if best.lbn == dispatch.end:
                    dispatch.absorb(best)
                else:
                    dispatch.absorb_front(best)
                merged = True
                pos = best_i

        self._pending -= len(dispatch.members)
        self._position = dispatch.end
        self._idle_until = None
        return dispatch, None

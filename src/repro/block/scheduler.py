"""Scheduler interface and the Noop / Deadline elevators.

A scheduler holds pending :class:`BlockRequest` objects and decides the
dispatch order, merging contiguous requests up to the configured limit.
``select()`` returns either a :class:`Dispatch`, or an idle hint
``(None, deadline)`` telling the device runner to wait (CFQ idling), or
``(None, None)`` when empty.
"""

from __future__ import annotations

import abc
from bisect import insort
from collections import deque
from operator import attrgetter
from typing import (Callable, Deque, Dict, Iterable, List, Optional, Tuple,
                    Union)

from ..config import SchedulerConfig
from ..devices.base import Op
from ..errors import StorageError
from .request import BlockRequest, Dispatch

SelectResult = Tuple[Optional[Dispatch], Optional[float]]
#: What a :class:`_MergeIndex` lists: queued requests (noop, deadline)
#: or queued dispatches (CFQ).
Queued = Union[BlockRequest, Dispatch]


class Scheduler(abc.ABC):
    """Base class for block I/O schedulers."""

    def __init__(self, config: SchedulerConfig) -> None:
        config.validate()
        self.config = config
        self._pending = 0

    def __len__(self) -> int:
        return self._pending

    @property
    def empty(self) -> bool:
        return self._pending == 0

    @abc.abstractmethod
    def add(self, req: BlockRequest) -> None:
        """Queue a request."""

    @abc.abstractmethod
    def select(self, now: float) -> SelectResult:
        """Pick the next dispatch (see module docstring)."""


class _MergeIndex:
    """Queued requests listed by ``(op, lbn)`` and by ``(op, end)``.

    Mirrors its scheduler's queue exactly (updated on every add and
    removal; each list in insertion order, a key dropped with its last
    request), so a merge pass that cannot merge is skipped in O(1) and
    the requests it could merge with are found without a scan.
    """

    __slots__ = ("starts", "ends")

    def __init__(self) -> None:
        self.starts: Dict[Tuple[Op, int], List[Queued]] = {}
        self.ends: Dict[Tuple[Op, int], List[Queued]] = {}

    def add(self, req: Queued) -> None:
        op, lbn = req.op, req.lbn
        for lists, key in ((self.starts, (op, lbn)),
                           (self.ends, (op, lbn + req.nbytes))):
            found = lists.get(key)
            if found is None:
                lists[key] = [req]
            else:
                found.append(req)

    def discard(self, req: Queued) -> None:
        op, lbn = req.op, req.lbn
        for lists, key in ((self.starts, (op, lbn)),
                           (self.ends, (op, lbn + req.nbytes))):
            found = lists[key]
            if len(found) == 1:
                del lists[key]
            else:
                found.remove(req)


def _merge_contiguous(dispatch: Dispatch, candidates: Iterable[BlockRequest],
                      take: Callable[[BlockRequest], None],
                      index: _MergeIndex, config: SchedulerConfig) -> None:
    """Greedily absorb queued requests contiguous with ``dispatch``.

    Each pass scans a snapshot of ``candidates`` in order and removes
    what it merges through ``take``; passes repeat until one merges
    nothing.  A pass is skipped when no queued request starts where the
    dispatch ends or ends where it starts, as it could not merge.
    """
    limit = config.max_merge_bytes
    window = config.merge_window
    merged = True
    while merged and ((dispatch.op, dispatch.end) in index.starts
                      or (dispatch.op, dispatch.lbn) in index.ends):
        merged = False
        for req in list(candidates):
            if not dispatch.within_merge_window(req, window):
                continue
            if dispatch.can_back_merge(req, limit):
                take(req)
                dispatch.back_merge(req)
                merged = True
            elif dispatch.can_front_merge(req, limit):
                take(req)
                dispatch.front_merge(req)
                merged = True


class NoopScheduler(Scheduler):
    """FIFO with back/front merging at dispatch build time.

    This is Linux ``noop``: requests dispatch in arrival order; the only
    optimization is merging requests contiguous with the head of the
    queue.  The paper uses it for the SSD, where ordering does not
    matter but merging still amortizes per-command setup.
    """

    def __init__(self, config: SchedulerConfig) -> None:
        super().__init__(config)
        self._queue: Deque[BlockRequest] = deque()
        self._index = _MergeIndex()

    def add(self, req: BlockRequest) -> None:
        self._queue.append(req)
        self._index.add(req)
        self._pending += 1

    def _take(self, req: BlockRequest) -> None:
        self._queue.remove(req)
        self._index.discard(req)

    def select(self, now: float) -> SelectResult:
        if not self._queue:
            return None, None
        first = self._queue.popleft()
        self._index.discard(first)
        dispatch = Dispatch(first)
        _merge_contiguous(dispatch, self._queue, self._take, self._index,
                          self.config)
        self._pending -= len(dispatch.members)
        return dispatch, None


class DeadlineScheduler(Scheduler):
    """Simplified ``deadline``: C-LOOK elevator with an age bound.

    Requests are served in ascending LBN order from the current sweep
    position, but any request older than ``max_age`` is served first.
    Not used by the paper's configuration; provided as an ablation
    scheduler showing how a global elevator (as opposed to CFQ's
    per-process service) partially re-assembles interleaved streams.
    """

    def __init__(self, config: SchedulerConfig, max_age: float = 0.5) -> None:
        super().__init__(config)
        if max_age <= 0:
            raise StorageError("max_age must be positive")
        self.max_age = max_age
        self._sorted: list[BlockRequest] = []
        self._fifo: Deque[BlockRequest] = deque()
        self._index = _MergeIndex()
        self._position = 0

    def add(self, req: BlockRequest) -> None:
        # Kept sorted by LBN; equal LBNs stay in arrival order.
        insort(self._sorted, req, key=attrgetter("lbn"))
        self._fifo.append(req)
        self._index.add(req)
        self._pending += 1

    def _take(self, req: BlockRequest) -> None:
        self._sorted.remove(req)
        self._fifo.remove(req)
        self._index.discard(req)

    def select(self, now: float) -> SelectResult:
        if not self._sorted:
            return None, None
        if self._fifo and now - self._fifo[0].submit_time > self.max_age:
            first = self._fifo[0]
        else:
            # Next request at or past the sweep position; wrap (C-LOOK).
            first = next((r for r in self._sorted if r.lbn >= self._position),
                         self._sorted[0])
        self._take(first)
        dispatch = Dispatch(first)
        _merge_contiguous(dispatch, self._sorted, self._take, self._index,
                          self.config)
        self._position = dispatch.end
        self._pending -= len(dispatch.members)
        return dispatch, None

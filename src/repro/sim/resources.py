"""Shared-resource primitives built on the event engine.

``Resource`` models a server with limited concurrency (e.g. a NIC or a
device command slot); ``Store`` is an unbounded producer/consumer queue
(used for the iBridge manager's fill-task queue).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List

from ..errors import SimulationError
from .core import Environment
from .events import Event


class Request(Event):
    """Pending acquisition of a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, env: Environment, resource: "Resource") -> None:
        super().__init__(env)
        self.resource = resource


class Resource:
    """A counted resource with FIFO waiters."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: List[Request] = []
        self._waiters: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters)

    def request(self) -> Request:
        """Ask for a slot; the returned event fires when granted."""
        req = Request(self.env, self)
        if len(self._users) < self.capacity:
            self._users.append(req)
            req.succeed()
        else:
            self._waiters.append(req)
        return req

    def release(self, req: Request) -> None:
        """Return a slot previously granted to ``req``."""
        try:
            self._users.remove(req)
        except ValueError:
            # Releasing an un-granted (still waiting) request cancels it.
            try:
                self._waiters.remove(req)
            except ValueError:
                raise SimulationError("release() of a request not held or queued")
            return
        if self._waiters:
            nxt = self._waiters.popleft()
            self._users.append(nxt)
            nxt.succeed()


class StoreGet(Event):
    __slots__ = ()


class Store:
    """Unbounded FIFO queue of items with blocking ``get``."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of queued items (for inspection/testing)."""
        return tuple(self._items)

    def put(self, item: Any) -> None:
        """Add ``item``; wakes one waiting getter immediately."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> StoreGet:
        """Event firing with the next item (immediately if available)."""
        ev = StoreGet(self.env)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev


"""Shared-resource primitives built on the event engine.

``Resource`` models a server with limited concurrency (a NIC or the
server's Trove I/O slots); ``Store`` is an unbounded producer/consumer
queue (used for the iBridge manager's fill-task queue).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Tuple

from ..errors import SimulationError
from .core import Environment, _schedule
from .events import Event


class Resource:
    """A counted resource granting slots to waiting steps in FIFO order.

    :meth:`acquire` takes a holder (compared with ``==``, identity for
    the chains that hold slots) and the bound step to run once it holds
    a slot.  A grant is a bare entry (:func:`repro.sim.core._schedule`)
    in the normal lane at the moment of the grant, where a granted
    request event's ``succeed`` pushed its entry.
    """

    __slots__ = ("env", "capacity", "_users", "_waiters")

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: List[Any] = []
        self._waiters: Deque[Tuple[Any, Any]] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of holders waiting for a slot."""
        return len(self._waiters)

    def acquire(self, holder: Any, then) -> None:
        """Ask for a slot for ``holder``; ``then`` runs once it is held."""
        if len(self._users) < self.capacity:
            self._users.append(holder)
            _schedule(self.env, then, 0)
        else:
            self._waiters.append((holder, then))

    def release(self, holder: Any) -> None:
        """Return the slot ``holder`` holds; the next waiter gets it."""
        try:
            self._users.remove(holder)
        except ValueError:
            raise SimulationError(
                f"release() by {holder!r}, which holds no slot") from None
        if self._waiters:
            holder, then = self._waiters.popleft()
            self._users.append(holder)
            _schedule(self.env, then, 0)


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


"""Synchronization helper: a cyclic barrier for simulated MPI ranks."""

from __future__ import annotations

from typing import List

from ..errors import SimulationError
from .core import Environment
from .events import Event


class Barrier:
    """A reusable cyclic barrier for a fixed number of parties.

    Each party calls :meth:`wait` and yields the returned event; the
    event for every waiting party fires when the last one arrives.
    """

    def __init__(self, env: Environment, parties: int) -> None:
        if parties < 1:
            raise SimulationError(f"barrier needs >= 1 party, got {parties}")
        self.env = env
        self.parties = parties
        self._waiting: List[Event] = []
        self._generation = 0

    @property
    def waiting(self) -> int:
        """Number of parties currently blocked at the barrier."""
        return len(self._waiting)

    @property
    def generation(self) -> int:
        """Number of times the barrier has tripped."""
        return self._generation

    def wait(self) -> Event:
        """Arrive at the barrier; the event fires when all have arrived."""
        ev = Event(self.env)
        self._waiting.append(ev)
        if len(self._waiting) == self.parties:
            batch, self._waiting = self._waiting, []
            self._generation += 1
            gen = self._generation
            for waiter in batch:
                waiter.succeed(gen)
        return ev


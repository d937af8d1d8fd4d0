"""Block layer: requests, elevators/schedulers, device queues."""

from .cfq import CFQScheduler
from .queue import BlockQueue, make_scheduler
from .request import BlockRequest, Dispatch
from .scheduler import DeadlineScheduler, NoopScheduler, Scheduler

__all__ = [
    "BlockRequest",
    "Dispatch",
    "Scheduler",
    "NoopScheduler",
    "DeadlineScheduler",
    "CFQScheduler",
    "BlockQueue",
    "make_scheduler",
]

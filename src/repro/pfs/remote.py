"""Remote-server stub for sharded (partitioned-horizon) execution.

When a cluster is built for one shard of a partitioned run
(:mod:`repro.sim.parallel`), the servers owned by *other* shards are
represented by :class:`RemoteServerStub` objects.  A stub exposes just
enough of the :class:`~repro.pfs.server.DataServer` surface for the
cluster wiring to skip it (``is_remote``, ``ibridge is None``,
zeroed stats) and one active method — :meth:`round_trip` — that the
client's RPC attempt delegates to.

The stub never simulates the server: it plays the *sender side* of the
request message (overhead + egress wire time via
:meth:`~repro.net.network.Network.send_local_leg`) and then posts a
pickled, span-stripped copy of the sub-request to the shard mailbox.
The owning shard replays the middle of the round trip — request
arrival, ``server.submit``, service, reply departure — in its own
environment and posts a reply record that completes the client's shared
attempt event.  Lost messages (fault drops) simply never post, which
reproduces the serial failure model: no completion before the client's
retry deadline.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from ..devices.base import Op
from ..sim import Chain, Environment, Event
from .server import ServerStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .client import PFSClient
    from .messages import SubRequest


class RemoteServerStub:
    """Placeholder for a data server owned by another shard."""

    is_remote = True
    #: The cluster wiring skips iBridge/GC/obs hookup on ``None``.
    ibridge = None
    crashed = False
    crashes = 0

    def __init__(self, env: Environment, server_id: int, shard) -> None:
        self.env = env
        self.id = server_id
        self.name = f"ds{server_id}"
        #: The :class:`repro.sim.parallel.ShardContext` mailbox owner.
        self.shard = shard
        self.stats = ServerStats()

    def preallocate(self, handle: int, nbytes: int) -> None:
        """No-op: the owning shard preallocates the real store."""

    # ------------------------------------------------------------- RPC
    def round_trip(self, client: "PFSClient", sub: "SubRequest",
                   attempt_done: Event) -> None:
        """Start one cross-shard RPC attempt of ``client``.

        Completion does not happen here: the reply record delivered at
        a future window barrier succeeds ``attempt_done`` (shared across
        attempts, so a late reply to an earlier attempt still completes
        the sub-request — the retry-storm fix applies across shards
        too).
        """
        _RemoteAttempt(self, client, sub, attempt_done)


class _RemoteAttempt(Chain):
    """The sender leg of one cross-shard attempt, then the mailbox post."""

    __slots__ = ("stub", "client", "sub", "attempt_done")

    def __init__(self, stub: RemoteServerStub, client: "PFSClient",
                 sub: "SubRequest", attempt_done: Event) -> None:
        self.env = stub.env
        self.stub = stub
        self.client = client
        self.sub = sub
        self.attempt_done = attempt_done
        self._start(self._send)

    def _send(self, _event: Event) -> None:
        sub = self.sub
        req_payload = sub.nbytes if sub.op is Op.WRITE else 0
        self.client.network.send_local_leg(
            self.client.name, self.stub.name, req_payload
        ).callbacks.append(self._departed)

    def _departed(self, event: Event) -> None:
        # ``False``: a fault window dropped the message, the attempt is
        # lost.
        if event.value:
            # Strip the span before the wire: span trees are per-shard
            # (the server shard opens no job spans for remote subs).
            sub = self.sub
            self.stub.shard.post_request(self.stub, self.client.name,
                                         replace(sub, span=None),
                                         self.attempt_done, sub)
        self._end()

"""Figure 3: the striping magnification effect.

Sixteen processes collectively issue constant-size synchronous requests
at stripe-cycle-aligned offsets.  A request of ``k * 64 KB`` is served
by servers 0..k-1; a request of ``k * 64 KB + 1 KB`` additionally drops
a 1 KB fragment on server k.  A competing program simultaneously reads
64 KB random segments from server k, so the fragment lands on a busy
disk.  Throughput is compared with and without the fragment, each with
and without a barrier between iterations — more servers involved means
a *larger* relative loss from the single lagging fragment.
"""

from __future__ import annotations

from typing import List, Sequence

from ..errors import WorkloadError
from ..mpi.runtime import RankContext
from ..pfs.cluster import Cluster
from ..units import KiB, MiB
from ..util.rng import rng_stream
from ..workloads.base import Workload
from ..workloads.composite import CompositeWorkload
from .common import DEFAULT_SCALE, ExperimentResult, base_config, measure


class StridedRequester(Workload):
    """Constant-size requests at stripe-cycle-aligned offsets."""

    def __init__(self, nprocs: int, request_size: int, cycle: int,
                 iterations: int, use_barrier: bool) -> None:
        if request_size > cycle:
            raise WorkloadError("request larger than one stripe cycle")
        self._nprocs = nprocs
        self.request_size = request_size
        self.cycle = cycle
        self.iterations = iterations
        self.use_barrier = use_barrier
        self.handle: int | None = None
        self.name = f"strided[{request_size}]"

    @property
    def nprocs(self) -> int:
        return self._nprocs

    @property
    def total_bytes(self) -> int:
        return self.iterations * self._nprocs * self.request_size

    def prepare(self, cluster: Cluster) -> None:
        if self.handle is None:
            span = self.iterations * self._nprocs * self.cycle + self.cycle
            self.handle = cluster.create_file(span)

    def body(self, ctx: RankContext):
        for j in range(self.iterations):
            offset = (j * self._nprocs + ctx.rank) * self.cycle
            yield ctx.read_at(self.handle, offset, self.request_size)
            if self.use_barrier:
                yield ctx.barrier()


class RandomServerReader(Workload):
    """Reads 64 KB random stripes that all live on one target server."""

    def __init__(self, target_server: int, num_servers: int, unit: int,
                 iterations: int, nprocs: int = 4, span_stripes: int = 4096,
                 seed: int = 7) -> None:
        self._nprocs = nprocs
        self.target = target_server
        self.num_servers = num_servers
        self.unit = unit
        self.iterations = iterations
        self.span_stripes = span_stripes
        self.seed = seed
        self.handle: int | None = None
        self.name = f"random-reader[s{target_server}]"

    @property
    def nprocs(self) -> int:
        return self._nprocs

    @property
    def total_bytes(self) -> int:
        return self.iterations * self._nprocs * self.unit

    def prepare(self, cluster: Cluster) -> None:
        if self.handle is None:
            span = self.span_stripes * self.unit * self.num_servers
            self.handle = cluster.create_file(span)

    def body(self, ctx: RankContext):
        rng = rng_stream(self.seed, f"fig3-reader-{ctx.rank}")
        for _ in range(self.iterations):
            stripe_cycle = int(rng.integers(0, self.span_stripes))
            offset = (stripe_cycle * self.num_servers + self.target) * self.unit
            yield ctx.read_at(self.handle, offset, self.unit)


def _part_throughput(requests, ranks: range) -> float:
    """MiB/s of one composite part, from its own request records."""
    mine = [r for r in requests if r.rank in ranks and r.latency is not None]
    if not mine:
        return 0.0
    start = min(r.submit_time for r in mine)
    end = max(r.complete_time for r in mine)
    nbytes = sum(r.nbytes for r in mine)
    return nbytes / MiB / max(1e-9, end - start)


def run(scale: float = DEFAULT_SCALE, ks: Sequence[int] = (1, 2, 3, 4, 5, 6, 7),
        nprocs: int = 16) -> ExperimentResult:
    cfg = base_config()
    unit = cfg.stripe_unit
    cycle = unit * cfg.num_servers
    iterations = max(4, int(DEFAULT_SCALE / scale * 0) + int(40 * scale / DEFAULT_SCALE))
    iterations = max(4, iterations)
    result = ExperimentResult(
        name="fig3",
        title="Fig 3 — striping magnification (main-program MiB/s)",
        headers=["k servers", "no-frag", "frag", "loss%",
                 "no-frag+barrier", "frag+barrier", "loss% (barrier)"],
    )
    for k in ks:
        row: List[object] = [k]
        losses = []
        for barrier in (False, True):
            tps = []
            for frag in (False, True):
                size = k * unit + (KiB if frag else 0)
                main = StridedRequester(nprocs, size, cycle, iterations, barrier)
                reader = RandomServerReader(min(k, cfg.num_servers - 1),
                                            cfg.num_servers, unit,
                                            iterations=iterations * 2)
                wl = CompositeWorkload([main, reader], name=f"fig3-k{k}")
                _res, cluster = measure(cfg, wl)
                tps.append(_part_throughput(cluster.requests, wl.rank_range(0)))
            loss = (tps[0] - tps[1]) / tps[0] * 100 if tps[0] else 0.0
            losses.append(loss)
            row.extend([round(tps[0], 1), round(tps[1], 1)])
            row.insert(len(row), round(loss, 1))
        result.add_row(row, loss_nobarrier=losses[0], loss_barrier=losses[1])
    result.notes.append(
        "paper: throughput grows more slowly with server count when "
        "fragments are present; barriers amplify the fragment penalty")
    return result

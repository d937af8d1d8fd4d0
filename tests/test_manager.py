"""Integration tests for the iBridge server-side manager.

Driven through a real DataServer (devices, queues, local stores) with
hand-built sub-requests, so these cover the full redirect / cache /
coherence / writeback machinery.
"""

import random
import types
from typing import List

import pytest

from repro.config import ClusterConfig, ReturnPolicy
from repro.core.manager import BACKGROUND_STREAM
from repro.core.mapping import CacheEntry, CacheKind
from repro.core.service_model import TReport
from repro.devices import HardDisk, Op, profile_device
from repro.pfs.messages import SubRequest
from repro.pfs.server import DataServer
from repro.sim import Environment
from repro.units import KiB, MiB


def make_server(env=None, **ib_overrides):
    env = env or Environment()
    ib_overrides.setdefault("ssd_partition", 4 * MiB)
    cfg = ClusterConfig(num_servers=2, client_jitter=0.0).with_ibridge(
        **ib_overrides)
    profile = profile_device(HardDisk(cfg.hdd))
    server = DataServer(env, 0, cfg, profile)
    return env, server


def sub(op=Op.WRITE, offset=0, size=4 * KiB, fragment=False, random=False,
        siblings=(), rank=0, handle=1):
    return SubRequest(parent_id=1, op=op, handle=handle, server=0,
                      local_offset=offset, nbytes=size, rank=rank,
                      is_fragment=fragment, is_random=random,
                      sibling_servers=tuple(siblings))


def serve(env, server, s):
    done = server.submit(s)
    env.run(until=done)
    return done.value


def drain(env, server):
    proc = env.process(server.drain(), name="drain")
    env.run(until=proc)


def test_small_random_write_redirected_to_ssd():
    env, server = make_server()
    serve(env, server, sub(random=True))
    st = server.ibridge.stats
    assert st.ssd_redirected_writes == 1
    assert server.ssd.stats.writes == 1
    assert server.hdd.stats.writes == 0
    assert server.ibridge.mapping.dirty_bytes == 4 * KiB


def test_large_write_goes_to_disk():
    env, server = make_server()
    serve(env, server, sub(size=64 * KiB))
    assert server.hdd.stats.writes >= 1
    assert server.ibridge.stats.ssd_redirected_writes == 0


def test_fragment_write_redirected():
    env, server = make_server()
    serve(env, server, sub(size=2 * KiB, fragment=True, siblings=(1,)))
    assert server.ibridge.stats.ssd_redirected_writes == 1
    assert server.ibridge.stats.fragments_seen == 1


def test_threshold_gates_classification():
    env, server = make_server(fragment_threshold=1 * KiB)
    serve(env, server, sub(size=2 * KiB, fragment=True, siblings=(1,)))
    # 2 KiB >= 1 KiB threshold: not a candidate, goes to disk.
    assert server.ibridge.stats.ssd_redirected_writes == 0
    assert server.hdd.stats.writes >= 1


def test_read_hit_served_from_ssd():
    env, server = make_server()
    serve(env, server, sub(op=Op.WRITE, random=True))
    before = server.hdd.stats.reads
    serve(env, server, sub(op=Op.READ, random=True))
    assert server.hdd.stats.reads == before  # no disk read
    assert server.ibridge.stats.ssd_read_hits == 1


def test_read_miss_served_from_disk_then_admitted_when_idle():
    env, server = make_server()
    # Preallocate backing data so the read is legal.
    server.disk_store.preallocate(1, 1 * MiB)
    serve(env, server, sub(op=Op.READ, random=True))
    assert server.ibridge.stats.bytes_from_disk == 4 * KiB
    # Let the fill daemon run during idle time.
    env.run(until=env.now + 1.0)
    assert server.ibridge.stats.fill_bytes == 4 * KiB
    # A re-read now hits the SSD cache (the rerun scenario).
    before = server.hdd.stats.reads
    serve(env, server, sub(op=Op.READ, random=True))
    assert server.hdd.stats.reads == before


def test_dirty_data_flushed_on_drain():
    env, server = make_server()
    serve(env, server, sub(op=Op.WRITE, random=True))
    assert server.ibridge.mapping.dirty_bytes > 0
    drain(env, server)
    assert server.ibridge.mapping.dirty_bytes == 0
    assert server.hdd.stats.writes >= 1  # the writeback reached the disk
    assert server.ibridge.stats.writeback_bytes == 4 * KiB


def test_disk_read_sees_latest_ssd_data():
    """Coherence: dirty SSD data must serve reads that overlap it."""
    env, server = make_server()
    server.disk_store.preallocate(1, 1 * MiB)
    serve(env, server, sub(op=Op.WRITE, offset=8 * KiB, size=4 * KiB,
                           random=True))
    disk_reads_before = server.hdd.stats.bytes_read
    # A large read overlapping the dirty extent: the dirty piece must
    # come from the SSD, the rest from the disk.
    serve(env, server, sub(op=Op.READ, offset=0, size=64 * KiB))
    assert server.ssd.stats.bytes_read >= 4 * KiB
    assert (server.hdd.stats.bytes_read - disk_reads_before) == 60 * KiB


def test_large_disk_write_invalidates_and_preserves_dirty_tail():
    """A disk write overlapping a dirty entry flushes the uncovered
    part first, so no newer bytes are lost."""
    env, server = make_server()
    serve(env, server, sub(op=Op.WRITE, offset=0, size=8 * KiB, random=True))
    assert server.ibridge.mapping.dirty_bytes == 8 * KiB
    # Overwrite only the first half with a large (disk-bound) write.
    serve(env, server, sub(op=Op.WRITE, offset=0, size=4 * KiB))
    # The entry is gone; its uncovered tail got flushed beforehand.
    assert server.ibridge.mapping.dirty_bytes == 0
    assert server.ibridge.stats.writeback_bytes == 8 * KiB


def test_eviction_under_capacity_pressure():
    env, server = make_server(ssd_partition=64 * KiB,
                              dynamic_partition=False,
                              static_split=(0.0, 1.0))
    # 16 KiB class capacity is the whole 64 KiB for fragments; write
    # five 16 KiB fragments: the first must eventually be evicted.
    for i in range(5):
        serve(env, server, sub(op=Op.WRITE, offset=i * 16 * KiB,
                               size=16 * KiB, fragment=True, siblings=(1,)))
    used = server.ibridge.partition.used(CacheKind.FRAGMENT)
    assert used <= 64 * KiB
    assert server.ibridge.stats.writeback_bytes >= 16 * KiB


def test_zero_partition_disables_redirection():
    env, server = make_server(ssd_partition=0)
    serve(env, server, sub(op=Op.WRITE, random=True))
    assert server.ibridge.stats.ssd_redirected_writes == 0
    assert server.hdd.stats.writes >= 1


def test_paper_return_policy_rarely_redirects():
    """The literal Eq. 1 policy: per-request averages make small
    requests look cheap, so nothing gets redirected (DESIGN.md §5)."""
    env, server = make_server(return_policy=ReturnPolicy.PAPER)
    for i in range(8):
        serve(env, server, sub(op=Op.WRITE, offset=i * 64 * KiB,
                               size=64 * KiB))  # large writes raise T a bit
    for i in range(4):
        serve(env, server, sub(op=Op.WRITE, offset=(100 + i) * 16 * KiB,
                               size=4 * KiB, random=True))
    assert server.ibridge.stats.ssd_redirected_writes <= 1


def test_sibling_term_uses_broadcast_table():
    env, server = make_server()
    # The sibling's broadcast T is tiny, so this server's live T gates
    # the striped request and the fragment's return gains the
    # (T - T_sibling_max) * n boost.
    t_sibling = 1e-4
    server.ibridge.t_table.update(TReport(server=1, t_value=t_sibling,
                                          time=0.0))
    t_live = server.ibridge.model.t_value
    assert t_live > t_sibling
    serve(env, server, sub(op=Op.WRITE, size=2 * KiB, fragment=True,
                           siblings=(1,)))
    [entry] = server.ibridge.mapping.entries
    # base > 0 is required for redirection, so ret exceeds the boost.
    assert entry.ret > t_live - t_sibling


def test_sibling_term_ignores_stale_self_report():
    """A stale broadcast entry for *this* server must not shadow the
    live T: the boost compares live T against the other servers only."""
    env, server = make_server()
    t_sibling = 1e-4
    # Absurdly high stale self-report; the buggy Eq. 3 would have used
    # it as T^max and inflated the boost to ~1 s.
    server.ibridge.t_table.update(TReport(server=0, t_value=1.0, time=0.0))
    server.ibridge.t_table.update(TReport(server=1, t_value=t_sibling,
                                          time=0.0))
    serve(env, server, sub(op=Op.WRITE, size=2 * KiB, fragment=True,
                           siblings=(1,)))
    [entry] = server.ibridge.mapping.entries
    assert entry.ret < 0.5


def test_sibling_term_suppressed_when_sibling_slower():
    """When a sibling's disk is slower, that disk gates the parent
    request and this server's fragment gets no magnification."""
    env, server = make_server()
    server.ibridge.t_table.update(TReport(server=1, t_value=10.0, time=0.0))
    serve(env, server, sub(op=Op.WRITE, size=2 * KiB, fragment=True,
                           siblings=(1,)))
    entries = list(server.ibridge.mapping.entries)
    if entries:  # redirected on base return alone
        assert entries[0].ret < 1e-2


def test_log_cleaning_relocates_live_data():
    env, server = make_server(ssd_partition=64 * KiB,
                              dynamic_partition=False,
                              static_split=(0.0, 1.0))
    # Partition 64 KiB -> log region 128 KiB, 16 KiB segments.  Fill and
    # overwrite to generate garbage and force cleaning.
    for round_ in range(6):
        for i in range(3):
            serve(env, server, sub(op=Op.WRITE, offset=i * 16 * KiB,
                                   size=15 * KiB, fragment=True,
                                   siblings=(1,)))
    log = server.ibridge._log
    assert log.live_bytes <= 64 * KiB
    drain(env, server)


# ------------------------------------------- writeback maps each range once
class HomeLbnFlush:
    """The writeback flush before it mapped each entry's ranges once,
    verbatim: every entry's disk ranges were computed for the sort in
    ``_flush_some``, again for the re-sort in ``_flush_batch`` and again
    for its disk writes."""

    def _home_lbn(self, entry: CacheEntry) -> int:
        ranges = self.disk_store.ranges_for_write(entry.handle, entry.start,
                                                  entry.nbytes)
        return ranges[0][0]

    def _flush_some(self, dirty: List[CacheEntry]):
        """Flush up to ``writeback_batch`` bytes, sorted by disk home LBN.

        Entries larger than the *remaining* batch budget are skipped —
        not a stop condition: an oversized entry early in LBN order must
        not block every later entry, or ``flush_all`` livelocks.  When
        nothing fits the budget at all, the smallest flushable entry is
        written alone so each pass is guaranteed forward progress.
        """
        batch: List[CacheEntry] = []
        budget = self.ib.writeback_batch
        for entry in sorted(dirty, key=self._home_lbn):
            if not entry.dirty or entry.busy:
                continue
            if entry.nbytes > budget:
                continue
            batch.append(entry)
            budget -= entry.nbytes
        if not batch:
            flushable = [e for e in dirty if e.dirty and not e.busy]
            if flushable:
                batch = [min(flushable, key=lambda e: e.nbytes)]
        yield from self._flush_batch(batch)

    def _flush_batch(self, batch: List[CacheEntry]):
        """Pipelined flush of exactly ``batch`` (assumed dirty, idle)."""
        batch = [e for e in batch if e.dirty and not e.busy]
        batch.sort(key=self._home_lbn)
        if not batch:
            return
        # Pipeline the whole batch: read everything from the SSD log,
        # then submit all disk writes together so the elevator sees one
        # LBN-sorted burst and dispatches it as a (near-)sequential
        # sweep — "as many long sequential accesses as possible".
        for entry in batch:
            entry.busy = True
        reads = [self.ssd_queue.submit(Op.READ, e.ssd_lbn, e.nbytes,
                                       stream=BACKGROUND_STREAM)
                 for e in batch]
        yield self.env.all_of([r.done for r in reads])
        writes = []
        for entry in batch:
            for lbn, size in self.disk_store.ranges_for_write(
                    entry.handle, entry.start, entry.nbytes):
                writes.append(self.hdd_queue.submit(Op.WRITE, lbn, size,
                                                    stream=BACKGROUND_STREAM))
        if writes:
            self.model.observe_disk(Op.WRITE, writes[0].lbn,
                                    sum(w.nbytes for w in writes),
                                    self.hdd_queue.device.head)
            yield self.env.all_of([w.done for w in writes])
        for entry in batch:
            entry.busy = False
            if entry.forfeited:
                # Forfeited mid-flight by an SSD fail-stop: the bytes
                # were already accounted as lost, not written back.
                continue
            self.mapping.mark_clean(entry)
            self.stats.writeback_bytes += entry.nbytes
            if self.audit:
                self.audit.note_writeback(entry.nbytes)
        if self.audit:
            self.audit.check("writeback_batch", entries=batch)


def dirty_server(writeback_batch):
    """A server with 24 dirty SSD entries on two preallocated files,
    admitted in an order unrelated to their disk homes; one entry
    straddles the end of file 1 and so maps to two disk ranges."""
    env, server = make_server(writeback_batch=writeback_batch,
                              writeback_idle=10.0)
    mgr = server.ibridge
    mgr.disk_store.preallocate(1, 256 * KiB)
    mgr.disk_store.preallocate(2, 256 * KiB)
    rng = random.Random(7)
    slots = [(handle, i * 16 * KiB) for handle in (1, 2) for i in range(12)]
    rng.shuffle(slots)
    slots[5] = (1, 252 * KiB)
    for handle, offset in slots:
        size = 8 * KiB if offset == 252 * KiB else rng.choice((4, 8)) * KiB
        serve(env, server, sub(offset=offset, size=size, random=True,
                               handle=handle))
    assert mgr.stats.ssd_redirected_writes == len(slots)
    assert len(mgr.mapping.dirty_entries()) == len(slots)
    return env, server


def flush_once(env, server):
    """One ``_flush_some`` pass over every dirty entry: the HDD writes it
    submitted and the ``ranges_for_write`` calls it made."""
    mgr = server.ibridge
    writes, calls = [], []
    submit = mgr.hdd_queue.submit
    ranges_for_write = mgr.disk_store.ranges_for_write

    def recording_submit(op, lbn, nbytes, **kw):
        writes.append((op, lbn, nbytes, kw.get("stream")))
        return submit(op, lbn, nbytes, **kw)

    def counting_ranges(*args):
        calls.append(args)
        return ranges_for_write(*args)

    mgr.hdd_queue.submit = recording_submit
    mgr.disk_store.ranges_for_write = counting_ranges
    env.run(until=env.process(mgr._flush_some(mgr.mapping.dirty_entries())))
    return writes, calls


@pytest.mark.parametrize("writeback_batch", [4 * MiB, 48 * KiB, 2 * KiB])
def test_flush_maps_each_range_once_and_writes_like_home_lbn(writeback_batch):
    env, server = dirty_server(writeback_batch)
    writes, calls = flush_once(env, server)
    old_env, old_server = dirty_server(writeback_batch)
    old = old_server.ibridge
    for name in ("_home_lbn", "_flush_some", "_flush_batch"):
        setattr(old, name, types.MethodType(getattr(HomeLbnFlush, name), old))
    old_writes, old_calls = flush_once(old_env, old_server)
    mgr = server.ibridge
    # Same disk writes (LBN, size, order), same state after the pass.
    assert writes == old_writes and writes
    if writeback_batch == 4 * MiB:
        # The straddling entry's two ranges, in order at its home LBN:
        # its last 4 KiB were allocated past file 2's data.
        at = writes.index((Op.WRITE, 252 * KiB, 4 * KiB, BACKGROUND_STREAM))
        assert writes[at + 1] == (Op.WRITE, 512 * KiB, 4 * KiB,
                                  BACKGROUND_STREAM)
    assert (mgr.stats.writeback_bytes, mgr.mapping.dirty_bytes) == \
        (old.stats.writeback_bytes, old.mapping.dirty_bytes)
    assert env.now == old_env.now
    # One mapping per flushable entry, flushed or not; the old flush
    # mapped every entry for the sort and each flushed one twice more.
    flushed = sum(1 for e in mgr.mapping.entries if not e.dirty)
    assert flushed >= 1
    assert len(calls) == 24
    assert len(old_calls) == 24 + 2 * flushed
    if writeback_batch == 4 * MiB:
        assert flushed == 24 and mgr.mapping.dirty_bytes == 0


def test_candidate_write_on_disk_maps_its_range_once():
    """A redirection candidate that ends up on the disk (no room, or a
    non-positive return) reuses the range its admission mapped: no
    ``ranges_for_write`` call repeats within one ``handle()``."""
    env, server = make_server(ssd_partition=24 * KiB, writeback_idle=10.0)
    mgr = server.ibridge
    calls_of_step, repeats, handles = [None], [], []
    ranges_for_write = mgr.disk_store.ranges_for_write

    def recording(*args):
        calls = calls_of_step[0]
        if calls is not None:
            if args in calls:
                repeats.append(args)
            calls.append(args)
        return ranges_for_write(*args)

    handle = mgr.handle

    def stepping(s, span=None):
        # Attribute the calls made while this handle() runs (and none
        # made by the daemons between its steps) to it.
        gen, calls, value = handle(s, span), [], None
        handles.append(calls)
        while True:
            calls_of_step[0] = calls
            try:
                event = gen.send(value)
            except StopIteration:
                return
            finally:
                calls_of_step[0] = None
            value = yield event

    mgr.disk_store.ranges_for_write = recording
    mgr.handle = stepping
    rng = random.Random(3)
    for i in range(64):
        serve(env, server, sub(offset=i * 32 * KiB,
                               size=rng.choice((4, 8, 16, 19)) * KiB,
                               random=True))
    st = mgr.stats
    assert len(handles) == 64
    # Every write is a candidate; the ones the full partition turned
    # away were served at the disk.
    assert st.randoms_seen == 64 and st.ssd_redirected_writes
    assert st.ssd_redirected_writes + st.disk_served == 64
    assert st.rejected_admissions and st.negative_returns
    assert repeats == []

"""Bounds on the incremental audit's detection of out-of-band corruption.

Per-mutation checks re-read only what the mutation touched, so state
planted *behind* the manager's check sites is not always seen at the
next check.  Each test plants one of ``test_audit.py``'s corruptions,
never calls ``check()`` itself, and keeps the simulation running: the
violation must be reported no later than the first full recount after
the plant (an amortised recount, or ``final_check``).
"""

import pytest

from repro.config import AuditConfig, ClusterConfig
from repro.core.manager import TABLE_ENTRY_BYTES
from repro.core.mapping import CacheEntry, CacheKind
from repro.devices import HardDisk, profile_device
from repro.errors import AuditError
from repro.pfs.server import DataServer
from repro.sim import Environment
from repro.units import KiB, MiB

from .test_audit import cached_server, serve, sub


def ftl_server():
    """``cached_server`` on a drive that models an FTL."""
    env = Environment()
    cfg = ClusterConfig(num_servers=2, client_jitter=0.0,
                        audit=AuditConfig(enabled=True, strict=True))
    cfg = cfg.with_ibridge(ssd_partition=4 * MiB).with_ftl(capacity=16 * MiB)
    server = DataServer(env, 0, cfg, profile_device(HardDisk(cfg.hdd)))
    serve(env, server, sub(size=2 * KiB, fragment=True, siblings=(1,)))
    mgr = server.ibridge
    return env, server, mgr, mgr.audit


def _bump_partition(server, mgr):
    mgr.partition._bytes[CacheKind.FRAGMENT] += 1


def _drop_index_key(server, mgr):
    [entry] = mgr.mapping.entries
    del mgr._by_lbn[entry.ssd_lbn]


def _kill_extent(server, mgr):
    [entry] = mgr.mapping.entries
    mgr._log.invalidate(entry.ssd_lbn)


def _flip_dirty(server, mgr):
    [entry] = mgr.mapping.entries
    entry.dirty = False


def _bump_dirty_counter(server, mgr):
    mgr.mapping._dirty_bytes += 1


def _bump_gc_copies(server, mgr):
    server.ssd.ftl.gc_pages_copied += 1


def _bump_block_valid(server, mgr):
    block, _slot = next(iter(server.ssd.ftl.page_map.values()))
    block.valid += 1


#: name: (server factory, plant, the check that must report it)
PLANTS = {
    "partition-bytes": (cached_server, _bump_partition, "partition-bytes"),
    "lbn-key": (cached_server, _drop_index_key, "lbn-index"),
    "log-extent": (cached_server, _kill_extent, "log-extent"),
    "dirty-flip": (cached_server, _flip_dirty, "dirty-ledger"),
    "dirty-counter": (cached_server, _bump_dirty_counter, "dirty-counter"),
    "ftl-gc-copies": (ftl_server, _bump_gc_copies, "ftl-ledger"),
    "ftl-valid-count": (ftl_server, _bump_block_valid, "ftl-ledger"),
}


def keep_running(env, server, auditor, writes=48):
    """More fragment writes elsewhere in the file, a drain, and the
    final check: every check on the way is a per-mutation check."""
    for k in range(1, writes + 1):
        serve(env, server, sub(offset=k * 64 * KiB, size=2 * KiB,
                               fragment=True, siblings=(1,)))
    proc = env.process(server.drain(), name="drain")
    env.run(until=proc)
    auditor.final_check()


@pytest.mark.parametrize("name", sorted(PLANTS))
def test_planted_corruption_reported_by_next_full_recount(name):
    make, plant, check = PLANTS[name]
    env, server, mgr, auditor = make()
    plant(server, mgr)
    recounts = auditor.recounts
    with pytest.raises(AuditError, match=check):
        keep_running(env, server, auditor)
    assert auditor.recounts == recounts + 1


def test_full_recount_cadence_matches_its_cost():
    """After a full recount visiting V items, the next one is due after
    V per-mutation checks: O(1) amortised recount work per mutation."""
    env, server, mgr, auditor = cached_server()
    auditor.check("explicit")
    cost, checks, recounts = auditor._full_cost, auditor.checks, \
        auditor.recounts
    k = 0
    while auditor.recounts == recounts:
        k += 1
        serve(env, server, sub(offset=k * 64 * KiB, size=2 * KiB,
                               fragment=True, siblings=(1,)))
    assert auditor.checks - checks == cost + 1


# ------------------------------------------------- lbn-index message bound
def big_table(n=1024):
    """A manager holding ``n`` clean cached entries, placed directly."""
    env, server, mgr, auditor = cached_server(strict=False)
    for i in range(1, n):
        start = i * 4 * KiB
        lbn = mgr._log.append(2 * KiB + TABLE_ENTRY_BYTES)
        entry = CacheEntry(handle=1, start=start, end=start + 2 * KiB,
                           ssd_lbn=lbn, kind=CacheKind.FRAGMENT,
                           dirty=False, ret=0.0, last_use=0.0)
        mgr.mapping.insert(entry)
        mgr.partition.add(entry)
        mgr._by_lbn[lbn] = entry
    assert len(mgr.mapping) == n
    auditor.check("setup")
    assert server.audit.ok
    return server, mgr, auditor


def test_lbn_index_message_is_bounded_for_one_missing_key():
    server, mgr, auditor = big_table()
    missing = sorted(mgr._by_lbn)[500]
    del mgr._by_lbn[missing]
    auditor.check("test")
    [record] = server.audit.violations
    assert record["check"] == "lbn-index"
    message = record["message"]
    assert "_by_lbn holds 1023 keys" in message
    assert "1024 entry LBNs" in message
    assert f"only in the table: [{missing}]" in message
    assert "only in _by_lbn: []" in message
    assert len(message) < 200


def test_lbn_index_message_quotes_at_most_eight_keys_a_side():
    server, mgr, auditor = big_table()
    gone = sorted(mgr._by_lbn)[:20]
    for lbn in gone:
        mgr._by_lbn[lbn + 1] = mgr._by_lbn.pop(lbn)
    auditor.check("test")
    [record] = server.audit.violations
    message = record["message"]
    assert f"only in the table: {gone[:8]} (+12 more)" in message
    assert f"only in _by_lbn: {[g + 1 for g in gone[:8]]} (+12 more)" \
        in message
    assert len(message) < 400

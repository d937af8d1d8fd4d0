"""Tests for iBridge's Eq. 1–3 service-time model."""

import pytest

from repro.config import IBridgeConfig, ReturnPolicy
from repro.core.service_model import (DiskServiceModel, GlobalTTable, TReport,
                                      fragment_return)
from repro.devices import HardDisk, Op, profile_device
from repro.units import GiB, KiB, MiB


@pytest.fixture(scope="module")
def profile():
    return profile_device(HardDisk())


def make_model(profile, policy=ReturnPolicy.EFFICIENCY):
    cfg = IBridgeConfig(enabled=True, return_policy=policy)
    return DiskServiceModel(profile, read_bw=85 * MiB, write_bw=80 * MiB,
                            stripe_unit=64 * KiB, config=cfg,
                            disk=HardDisk())


def test_initial_t_is_ideal_stripe_time(profile):
    model = make_model(profile)
    assert model.t_value == pytest.approx(64 * KiB / (85 * MiB))


def test_ewma_weights_follow_paper(profile):
    """Eq. 1: T_i = T_{i-1}/8 + sample * 7/8."""
    model = make_model(profile)
    t0 = model.t_value
    sample = model.sample(Op.READ, 1 * GiB, 64 * KiB, head=0)
    t1 = model.observe_disk(Op.READ, 1 * GiB, 64 * KiB, head=0)
    assert t1 == pytest.approx(t0 / 8 + sample * 7 / 8)


def test_ssd_observation_leaves_t_unchanged(profile):
    """Eq. 2."""
    model = make_model(profile)
    model.observe_disk(Op.READ, 1 * GiB, 64 * KiB, head=0)
    t = model.t_value
    assert model.observe_ssd() == t
    assert model.t_value == t


def test_efficiency_policy_boosts_small_requests(profile):
    """A 1 KiB fragment costing a full seek is very inefficient."""
    model = make_model(profile)
    small = model.sample(Op.READ, 1 * GiB, 1 * KiB, head=0)
    large = model.sample(Op.READ, 1 * GiB, 64 * KiB, head=0)
    assert small > large * 10


def test_paper_policy_small_requests_cheaper_per_request(profile):
    """The literal Eq. 1 sample is *smaller* for a fragment — the
    bistability documented in DESIGN.md."""
    model = make_model(profile, policy=ReturnPolicy.PAPER)
    small = model.sample(Op.READ, 1 * GiB, 1 * KiB, head=0)
    large = model.sample(Op.READ, 1 * GiB, 64 * KiB, head=0)
    assert small < large


def test_positive_return_for_fragment_on_busy_disk(profile):
    model = make_model(profile)
    ret = model.base_return(Op.READ, 5 * GiB, 2 * KiB, head=0)
    assert ret > 0


def test_return_sign_matches_t_direction(profile):
    model = make_model(profile)
    # Drive T high with expensive observations.
    for _ in range(5):
        model.observe_disk(Op.READ, 500 * GiB, 1 * KiB, head=0)
    # A cheap (contiguous, large) request now has negative return.
    ret = model.base_return(Op.READ, 0, 64 * KiB, head=0)
    assert ret < 0


# ---------------------------------------------------------------- T table
def test_t_table_max_and_second():
    """Eq. 3's ``T^sec_max`` is the largest T among the *other* siblings,
    not the smallest: the boost is (3.0 − 2.0) * n, not (3.0 − 1.0) * n."""
    table = GlobalTTable()
    for server, t in [(0, 1.0), (1, 3.0), (2, 2.0)]:
        table.update(TReport(server=server, t_value=t, time=0.0))
    ret = fragment_return(0.0, this_server=1, this_t=3.0,
                          sibling_servers=[0, 1, 2], n_siblings=2,
                          table=table)
    assert ret == pytest.approx((3.0 - 2.0) * 2)


def test_t_table_missing_servers_skipped():
    """Siblings with no broadcast T yet are skipped, not read as 0."""
    table = GlobalTTable()
    table.update(TReport(server=0, t_value=1.0, time=0.0))
    table.update(TReport(server=1, t_value=0.5, time=0.0))
    assert fragment_return(0.001, 0, 1.0, [7], 1, table) == 0.001
    assert (fragment_return(0.0, 0, 1.0, [1, 7], 2, table)
            == pytest.approx(fragment_return(0.0, 0, 1.0, [1], 2, table)))
    assert fragment_return(0.0, 0, 1.0, [1, 7], 2, table) == pytest.approx(
        (1.0 - 0.5) * 2)


def test_t_table_empty():
    table = GlobalTTable()
    assert table.get(1) is None


# ---------------------------------------------------------------- Eq. 3
def test_fragment_return_adds_magnification_when_slowest():
    table = GlobalTTable()
    table.update(TReport(server=0, t_value=0.010, time=0.0))
    table.update(TReport(server=1, t_value=0.004, time=0.0))
    # This server (0) is the slowest among siblings: Eq. 3 applies.
    ret = fragment_return(0.001, this_server=0, this_t=0.010,
                          sibling_servers=[1], n_siblings=1, table=table)
    assert ret == pytest.approx(0.001 + (0.010 - 0.004) * 1)


def test_fragment_return_scales_with_sibling_count():
    table = GlobalTTable()
    table.update(TReport(server=0, t_value=0.010, time=0.0))
    table.update(TReport(server=1, t_value=0.004, time=0.0))
    r1 = fragment_return(0.0, 0, 0.010, [1], 1, table)
    r4 = fragment_return(0.0, 0, 0.010, [1, 2, 3, 4], 4, table)
    assert r4 == pytest.approx(r1 * 4)


def test_fragment_return_unchanged_when_not_slowest():
    table = GlobalTTable()
    table.update(TReport(server=0, t_value=0.002, time=0.0))
    table.update(TReport(server=1, t_value=0.010, time=0.0))
    ret = fragment_return(0.001, this_server=0, this_t=0.002,
                          sibling_servers=[1], n_siblings=1, table=table)
    assert ret == pytest.approx(0.001)


def test_fragment_return_disabled():
    table = GlobalTTable()
    table.update(TReport(server=0, t_value=0.010, time=0.0))
    ret = fragment_return(0.001, 0, 0.010, [1], 1, table, enabled=False)
    assert ret == pytest.approx(0.001)


def test_fragment_return_uses_live_t_over_stale_self_report():
    """A stale broadcast entry for this server must not act as T^max:
    the boost is (live T − max over *other* servers) * n."""
    table = GlobalTTable()
    table.update(TReport(server=0, t_value=1.0, time=0.0))  # stale, huge
    table.update(TReport(server=1, t_value=0.004, time=0.0))
    ret = fragment_return(0.001, this_server=0, this_t=0.010,
                          sibling_servers=[1], n_siblings=1, table=table)
    assert ret == pytest.approx(0.001 + (0.010 - 0.004) * 1)


def test_fragment_return_stale_self_report_does_not_shadow_second_max():
    """A stale high self-report must not become T^sec_max either (that
    would zero the boost when we are genuinely the slowest)."""
    table = GlobalTTable()
    table.update(TReport(server=0, t_value=0.008, time=0.0))  # stale
    table.update(TReport(server=1, t_value=0.002, time=0.0))
    ret = fragment_return(0.0, this_server=0, this_t=0.010,
                          sibling_servers=[1], n_siblings=1, table=table)
    assert ret == pytest.approx((0.010 - 0.002) * 1)


def test_fragment_return_dedupes_self_in_sibling_list():
    """Layouts that include this server among the siblings must not let
    its own (stale) table entry masquerade as another server's T."""
    table = GlobalTTable()
    table.update(TReport(server=0, t_value=1.0, time=0.0))
    table.update(TReport(server=1, t_value=0.004, time=0.0))
    with_self = fragment_return(0.0, 0, 0.010, [0, 1], 2, table)
    without = fragment_return(0.0, 0, 0.010, [1], 2, table)
    assert with_self == pytest.approx(without)
    assert with_self == pytest.approx((0.010 - 0.004) * 2)


def test_fragment_return_no_boost_without_sibling_knowledge():
    """With no broadcast data about any *other* server the term cannot
    claim this disk gates the request."""
    table = GlobalTTable()
    table.update(TReport(server=0, t_value=0.010, time=0.0))  # self only
    ret = fragment_return(0.001, 0, 0.010, [1, 2], 2, table)
    assert ret == pytest.approx(0.001)

"""Integration tests for the Cluster wiring and the metadata server."""

import pytest

from repro.config import ClusterConfig
from repro.errors import ConfigError
from repro.pfs import Cluster
from repro.units import KiB, MiB


def test_create_file_preallocates_shares():
    cluster = Cluster(ClusterConfig(num_servers=4, client_jitter=0.0))
    handle = cluster.create_file(1 * MiB)
    total = sum(s.disk_store.file_size(handle) for s in cluster.servers)
    assert total == 1 * MiB


def test_handles_are_unique():
    cluster = Cluster(ClusterConfig(num_servers=2, client_jitter=0.0))
    h1 = cluster.create_file(64 * KiB)
    h2 = cluster.create_file(64 * KiB)
    assert h1 != h2


def test_invalid_file_size():
    cluster = Cluster(ClusterConfig(num_servers=2))
    with pytest.raises(ConfigError):
        cluster.create_file(0)


def test_ssd_primary_store_configuration():
    cfg = ClusterConfig(num_servers=2, client_jitter=0.0,
                        primary_store="ssd")
    cluster = Cluster(cfg)
    handle = cluster.create_file(1 * MiB)
    client = cluster.client(0)
    done = client.read(handle, 0, 64 * KiB, rank=0)
    cluster.env.run(until=done)
    assert sum(s.ssd.stats.reads for s in cluster.servers) > 0
    assert sum(s.hdd.stats.reads for s in cluster.servers) == 0


def test_ssd_primary_with_ibridge_rejected():
    with pytest.raises(ConfigError):
        ClusterConfig(primary_store="ssd").with_ibridge().validate()


def test_t_exchange_broadcasts_to_all_servers():
    cfg = ClusterConfig(num_servers=4, client_jitter=0.0).with_ibridge(
        ssd_partition=8 * MiB, report_period=0.1)
    cluster = Cluster(cfg)
    handle = cluster.create_file(8 * MiB)
    client = cluster.client(0)

    def traffic(env):
        for i in range(16):
            yield client.read(handle, i * 64 * KiB, 64 * KiB, rank=0)

    proc = cluster.env.process(traffic(cluster.env))
    cluster.env.run(until=proc)
    cluster.env.run(until=cluster.env.now + 0.5)
    # Every server's broadcast table knows every other server.
    for server in cluster.servers:
        table = server.ibridge.t_table
        assert all(table.get(s) is not None for s in range(4))
    assert cluster.mds.broadcasts > 0


def test_drain_completes_with_no_traffic():
    cluster = Cluster(ClusterConfig(num_servers=2, client_jitter=0.0))
    cluster.drain()  # should not hang


def test_ibridge_stats_aggregation():
    cfg = ClusterConfig(num_servers=2, client_jitter=0.0).with_ibridge(
        ssd_partition=8 * MiB)
    cluster = Cluster(cfg)
    handle = cluster.create_file(1 * MiB, preallocate=False)
    client = cluster.client(0)
    done = client.write(handle, 0, 4 * KiB, rank=0)
    cluster.env.run(until=done)
    agg = cluster.ibridge_stats()
    assert agg.ssd_redirected_writes == 1
    stock = Cluster(ClusterConfig(num_servers=2))
    assert stock.ibridge_stats() is None


def test_seek_profile_cache_reused():
    from repro.pfs.cluster import _profile_cache
    before = len(_profile_cache)
    Cluster(ClusterConfig(num_servers=2))
    Cluster(ClusterConfig(num_servers=2))
    after = len(_profile_cache)
    assert after <= before + 1

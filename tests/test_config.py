"""Tests for configuration validation and helpers."""

import dataclasses

import pytest

from repro import config as config_module
from repro.config import (SSD_SCHEDULER, ClusterConfig, HDDConfig,
                          IBridgeConfig, NetworkConfig, ReturnPolicy,
                          SchedulerConfig, ServerConfig, SSDConfig)
from repro.errors import ConfigError
from repro.units import GiB, KiB


def test_default_config_is_paper_testbed():
    cfg = ClusterConfig()
    cfg.validate()
    assert cfg.num_servers == 8
    assert cfg.stripe_unit == 64 * KiB
    assert cfg.hdd_scheduler.kind == "cfq"
    assert SSD_SCHEDULER.kind == "noop"
    assert not cfg.ibridge.enabled
    assert cfg.ibridge.ssd_partition == 10 * GiB
    assert cfg.ibridge.random_threshold == 20 * KiB


def test_with_ibridge_returns_new_config():
    base = ClusterConfig()
    ib = base.with_ibridge(random_threshold=10 * KiB)
    assert not base.ibridge.enabled
    assert ib.ibridge.enabled
    assert ib.ibridge.random_threshold == 10 * KiB
    assert ib.without_ibridge().ibridge.enabled is False


def test_replace_validates():
    with pytest.raises(ConfigError):
        ClusterConfig().replace(num_servers=0)


def test_scheduler_validation():
    with pytest.raises(ConfigError):
        SchedulerConfig(kind="bogus").validate()
    with pytest.raises(ConfigError):
        SchedulerConfig(quantum=0).validate()
    with pytest.raises(ConfigError):
        SchedulerConfig(idle_window=-1).validate()
    with pytest.raises(ConfigError):
        SchedulerConfig(merge_window=-0.1).validate()


def test_network_validation():
    with pytest.raises(ConfigError):
        NetworkConfig(bandwidth=0).validate()
    with pytest.raises(ConfigError):
        NetworkConfig(latency=-1).validate()


def test_server_validation():
    with pytest.raises(ConfigError):
        ServerConfig(io_depth=0).validate()


def test_ibridge_validation():
    with pytest.raises(ConfigError):
        IBridgeConfig(random_threshold=0).validate()
    with pytest.raises(ConfigError):
        IBridgeConfig(report_period=0).validate()
    with pytest.raises(ConfigError):
        IBridgeConfig(ewma_old_weight=0.5, ewma_new_weight=0.6).validate()
    with pytest.raises(ConfigError):
        IBridgeConfig(dynamic_partition=False,
                      static_split=(0.7, 0.7)).validate()
    IBridgeConfig(dynamic_partition=False, static_split=(0.3, 0.7)).validate()


def test_ssd_validation():
    with pytest.raises(ConfigError):
        SSDConfig(capacity=0).validate()
    with pytest.raises(ConfigError):
        SSDConfig(read_setup=-1).validate()


def test_hdd_validation():
    with pytest.raises(ConfigError):
        HDDConfig(skip_window=-1).validate()
    with pytest.raises(ConfigError):
        HDDConfig(write_sweep_window=-1).validate()


def test_return_policy_enum():
    assert ReturnPolicy("paper") is ReturnPolicy.PAPER
    assert ReturnPolicy("efficiency") is ReturnPolicy.EFFICIENCY


def test_primary_store_validation():
    with pytest.raises(ConfigError):
        ClusterConfig(primary_store="tape").validate()


#: Every settable config field.  A new knob must be added here, so it
#: shows up in review as an edit to this list; a field needs a workload
#: (not only a test) that sets a value other than its default.
CONFIG_FIELDS = {
    "AuditConfig": ["enabled", "strict", "watchdog_window", "trace_path"],
    "ClusterConfig": ["num_servers", "stripe_unit", "hdd", "ssd",
                      "hdd_scheduler", "network", "server", "ibridge",
                      "audit", "retry", "obs", "client_overhead",
                      "client_jitter", "primary_store", "seed"],
    "HDDConfig": ["capacity", "seq_read_bw", "seq_write_bw", "seek_base",
                  "seek_full", "rotational_miss", "write_settle",
                  "write_sweep_window", "skip_window"],
    "IBridgeConfig": ["enabled", "ssd_partition", "random_threshold",
                      "fragment_threshold", "return_policy",
                      "report_period", "ewma_old_weight",
                      "ewma_new_weight", "dynamic_partition",
                      "static_split", "writeback_idle", "writeback_batch",
                      "use_sibling_term"],
    "NetworkConfig": ["latency", "bandwidth", "message_overhead"],
    "ObsConfig": ["enabled", "trace", "metrics", "trace_path",
                  "timeline_dt", "timeline_path", "trace_sample_n"],
    "RetryConfig": ["enabled", "timeout", "max_retries", "backoff_base",
                    "backoff_cap", "total_timeout"],
    "SSDConfig": ["capacity", "seq_read_bw", "seq_write_bw", "read_setup",
                  "write_setup", "ftl_enabled", "ftl_over_provision",
                  "gc_low_watermark", "gc_high_watermark", "gc_mode",
                  "gc_policy"],
    "SchedulerConfig": ["kind", "max_merge_bytes", "global_merge",
                        "merge_window", "quantum", "idle_window"],
    "ServerConfig": ["request_overhead", "io_depth", "disks_per_server"],
}


def test_config_fields_are_pinned():
    found = {name: [f.name for f in dataclasses.fields(obj)]
             for name, obj in vars(config_module).items()
             if isinstance(obj, type) and dataclasses.is_dataclass(obj)}
    assert found == CONFIG_FIELDS
    assert sum(len(names) for names in found.values()) == 77

"""Tier-1 harness defaults: every simulated system runs audited.

Each :class:`~repro.pfs.cluster.Cluster` and standalone
:class:`~repro.pfs.server.DataServer` built by a test gets the
invariant auditor + livelock watchdog (:mod:`repro.audit`) in strict
mode, so a byte-conservation or coherence regression fails the suite at
the violating event with a stack trace into the buggy code path — not
at some downstream throughput assertion.  Tests that configure auditing
explicitly (``AuditConfig``/``with_audit``) keep their own settings.
"""

import pytest

import repro.pfs.cluster as _cluster_mod
import repro.pfs.server as _server_mod
from repro.config import ClusterConfig
from repro.experiments import common as _exp_common
from repro.experiments import runner as _exp_runner


def _audited(config):
    if config.audit.enabled:
        return config
    return config.with_audit()


_cluster_init = _cluster_mod.Cluster.__init__
_server_init = _server_mod.DataServer.__init__


def _audited_cluster_init(self, config=None, **kwargs):
    _cluster_init(self, _audited(config or ClusterConfig()), **kwargs)


def _audited_server_init(self, env, server_id, config, *args, **kwargs):
    _server_init(self, env, server_id, _audited(config), *args, **kwargs)


_cluster_mod.Cluster.__init__ = _audited_cluster_init
_server_mod.DataServer.__init__ = _audited_server_init


@pytest.fixture(autouse=True)
def _no_experiment_audit_override():
    """Keep the experiments' process-wide audit/obs/fault-plan hooks
    and sweep defaults test-local: a CLI call installs its ``--jobs``,
    telemetry and ``--fault-plan`` defaults, and a later experiment test
    must not inherit them."""
    yield
    _exp_common.set_default_audit(None)
    _exp_common.set_default_obs(None)
    _exp_common.set_default_fault_plan(None)
    _exp_runner.set_sweep_defaults()

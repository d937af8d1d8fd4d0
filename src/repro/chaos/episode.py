"""Run one sampled chaos episode and judge it with the oracles.

An **episode** = build a fresh cluster from the spec, run the sampled
workload under the sampled fault plan, settle past the fault horizon so
every window has reverted, drain, and then read the oracles:

* the audit :meth:`~repro.audit.runtime.AuditRuntime.verdict`
  (conservation/coherence ledgers + livelock watchdog) collected
  non-strictly, so one episode reports every violation;
* **restoration** checks — after the last window reverts and the system
  settles, no server may still be crashed, no block queue paused, no
  iBridge manager in SSD-bypass mode, and every finite fault window
  must have logged its ``end`` transition;
* **recovery telemetry** — retry exhaustion means the client gave up on
  a sub-request even though the generator sized the retry budget to
  outlast every window: a recovery bug by construction.

A budget guard process bounds the episode in simulated seconds and
engine events (both deterministic) plus real seconds (backstop), so a
livelocked sample surfaces as a ``budget-exceeded`` verdict instead of
hanging the harness.

Everything an episode returns is a plain picklable dict, and
:func:`episode_signature` hashes the deterministic subset — the replay
contract ``same spec ⇒ same signature`` is what the CLI's determinism
check and the corpus replay assert.
"""

from __future__ import annotations

import time
from typing import Dict

from ..config import (AuditConfig, ClusterConfig, ObsConfig, RetryConfig,
                      ServerConfig)
from ..devices.base import Op
from ..errors import (AuditError, ChaosError, EpisodeBudgetError,
                      ReproError, RequestTimeoutError)
from ..experiments.runner import stable_hash
from ..faults.health import restoration_failures
from ..faults.plan import FaultPlan
from ..pfs.cluster import Cluster
from ..workloads import IorMpiIo, MpiIoTest, recovery_snapshot, run_workload

#: Type alias for readability; an episode result is a plain dict.
EpisodeResult = Dict

#: Simulated seconds run past the fault horizon before the restoration
#: oracles are read — covers the injector's cleanup transitions and the
#: first post-recovery writeback pass.
SETTLE_SLACK = 0.05

#: Sim-time gap between budget-guard checks.  The guard is a sim
#: process (it consumes event-heap sequence numbers), but its schedule
#: is a pure function of the spec, so determinism is preserved.
_GUARD_PERIOD = 0.05


# ---------------------------------------------------------------- build
def build_config(spec: Dict) -> ClusterConfig:
    """The cluster config an episode runs under (audited, non-strict)."""
    c = spec["cluster"]
    config = ClusterConfig(
        num_servers=c["num_servers"],
        server=ServerConfig(disks_per_server=c["disks_per_server"]),
        audit=AuditConfig(enabled=True, strict=False),
        retry=RetryConfig(enabled=True, **spec["retry"]),
        obs=ObsConfig(enabled=False),
        seed=spec["seed"],
    )
    if c["ibridge"]:
        config = config.with_ibridge(ssd_partition=c["ssd_partition"])
    if c.get("ftl"):
        # Shrink the drive so the few-MiB chaos workloads actually put
        # the FTL under page pressure (a 120 GiB drive would never GC).
        from ..units import MiB
        config = config.with_ftl(
            capacity=max(8 * c["ssd_partition"], 64 * MiB))
    config.validate()
    return config


def build_workload(spec: Dict):
    w = spec["workload"]
    op = Op.READ if w["op"] == "read" else Op.WRITE
    size = w["iterations"] * w["nprocs"] * w["request_size"]
    if w["kind"] == "mpi-io-test":
        return MpiIoTest(nprocs=w["nprocs"], request_size=w["request_size"],
                         file_size=size, op=op,
                         offset_shift=w["offset_shift"])
    if w["kind"] == "ior":
        return IorMpiIo(nprocs=w["nprocs"], request_size=w["request_size"],
                        file_size=size, op=op)
    raise ChaosError(f"unknown workload kind {w['kind']!r}")


# ---------------------------------------------------------------- guard
def _budget_guard(env, budget: Dict, wall_start: float):
    sim_cap = budget["sim_time"]
    event_cap = budget["events"]
    wall_cap = budget["wall_clock"]
    while True:
        yield env.timeout(_GUARD_PERIOD)
        if env.now > sim_cap:
            raise EpisodeBudgetError(
                f"episode passed {sim_cap}s of simulated time "
                f"(now {env.now:.3f}s) — livelock or runaway workload")
        if env._seq > event_cap:
            raise EpisodeBudgetError(
                f"episode scheduled more than {event_cap} engine events")
        if time.monotonic() - wall_start > wall_cap:
            raise EpisodeBudgetError(
                f"episode exceeded the {wall_cap}s real-time backstop")


def _classify(exc: BaseException) -> str:
    if isinstance(exc, EpisodeBudgetError):
        return "budget-exceeded"
    if isinstance(exc, RequestTimeoutError):
        return "retry-exhausted"
    if isinstance(exc, AuditError):
        return "violation"
    return "crash"


# -------------------------------------------------------------- running
def run_episode(spec: Dict) -> EpisodeResult:
    """Execute one episode; never raises for in-simulation failures.

    Infrastructure errors (a broken spec, an unbuildable config) raise
    normally — those are tester bugs, not findings.
    """
    if spec.get("schema") != 1:
        raise ChaosError(f"unsupported episode spec schema "
                         f"{spec.get('schema')!r}")
    config = build_config(spec)
    workload = build_workload(spec)
    plan = FaultPlan.from_dict(spec["faults"])
    cluster = Cluster(config, fault_plan=plan if len(plan) else None)
    env = cluster.env
    wall_start = time.monotonic()
    env.process(_budget_guard(env, spec["budget"], wall_start),
                name="chaos-budget-guard")

    status, error = "ok", None
    start = env.now
    try:
        run_workload(cluster, workload, drain=True,
                     warm_runs=spec["workload"]["warm_runs"])
    except ReproError as exc:
        status, error = _classify(exc), f"{type(exc).__name__}: {exc}"

    # Settle past the fault horizon so every window reverts, then drain
    # once more: recovery writeback after the last window is part of
    # the episode.  Skipped when the budget already fired — the guard
    # died raising and the run is torn anyway.
    settled = False
    if status != "budget-exceeded":
        try:
            horizon = plan.horizon() + SETTLE_SLACK
            if env.now < horizon:
                env.run(until=horizon)
            cluster.drain()
            settled = True
        except ReproError as exc:
            if status == "ok":
                status, error = _classify(exc), f"{type(exc).__name__}: {exc}"
    makespan = env.now - start
    cluster.shutdown()

    verdict = cluster.audit.verdict()
    recovery = recovery_snapshot(cluster)
    failures = []
    if status != "ok":
        failures.append(status)
    if not verdict["ok"]:
        failures.append("audit:" + "+".join(verdict["checks"]))
    elif verdict["watchdog_fired"]:
        failures.append("watchdog")
    if status == "ok" and recovery["exhausted_subrequests"] > 0:
        failures.append("retry-exhausted")
    if settled:
        failures.extend(restoration_failures(cluster))

    fault_log = ([{"time": round(r.time, 9), "phase": r.phase,
                   "event": r.event.to_dict()}
                  for r in cluster.faults.records]
                 if cluster.faults is not None else [])
    result: EpisodeResult = {
        "spec": spec,
        "status": status,
        "ok": not failures,
        "failures": failures,
        "error": error,
        "makespan": round(makespan, 9),
        "recovery": recovery,
        "verdict": verdict,
        "fault_log": fault_log,
    }
    result["signature"] = episode_signature(result)
    return result


def episode_signature(result: EpisodeResult) -> str:
    """Hash of the deterministic episode outcome (the replay contract).

    The error *message* is excluded: the wall-clock backstop writes a
    real-time figure into budget messages, and determinism must not
    hinge on prose.  Everything else — spec, status, fault transition
    log, makespan, telemetry, verdict — replays bit-identically.
    """
    return stable_hash({
        "spec": result["spec"],
        "status": result["status"],
        "failures": result["failures"],
        "makespan": result["makespan"],
        "recovery": result["recovery"],
        "verdict": result["verdict"],
        "fault_log": result["fault_log"],
    })


def run_episode_cell(spec: Dict) -> EpisodeResult:
    """Cell-shaped entry point for the experiments process pool.

    The fuzz loop fans episodes out through
    :func:`repro.experiments.runner.sweep`, so ``--jobs N`` gives the
    same order-stable results as the experiment matrix does.
    """
    return run_episode(spec)

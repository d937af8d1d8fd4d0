"""Post-recovery health checks: did every fault window actually heal?

:func:`restoration_failures` is the chaos episode runner's restoration
oracle.  It reads a settled cluster — one run past its plan's horizon
and drained — and reports every wound the recovery paths failed to
close: a server still crashed, a block queue still paused, an iBridge
manager still in SSD-bypass mode, a GC storm still active, or an
injector log whose ``begin`` transitions outnumber its ``end``\\ s.
"""

from __future__ import annotations

from typing import List


def restoration_failures(cluster) -> List[str]:
    """Post-settle recovery checks; every entry is one unhealed wound."""
    out = []
    for server in cluster.servers:
        if server.crashed:
            out.append(f"restore:server{server.id}-still-crashed")
        if server.ssd_queue.paused:
            out.append(f"restore:server{server.id}-ssd-queue-paused")
        if server.ssd._storm_depth > 0:
            out.append(f"restore:server{server.id}-ssd-storm-active")
        for d, unit in enumerate(server.disks):
            if unit.queue.paused:
                out.append(f"restore:server{server.id}-hdd{d}-queue-paused")
            if unit.ibridge is not None and not unit.ibridge.ssd_available:
                out.append(f"restore:server{server.id}-disk{d}-ssd-bypass")
    if cluster.faults is not None:
        records = cluster.faults.records
        begun = sum(1 for r in records if r.phase == "begin")
        ended = sum(1 for r in records if r.phase == "end")
        events = cluster.faults.plan.events
        finite = sum(1 for e in events if e.duration is not None)
        if begun != len(events) or ended != finite:
            out.append(f"restore:fault-log-unbalanced"
                       f"({begun}/{len(events)} begun,"
                       f" {ended}/{finite} ended)")
    return out

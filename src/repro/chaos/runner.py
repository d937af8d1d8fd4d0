"""The fuzz loop: sample -> run -> (on failure) shrink -> record.

Episodes fan out through the experiment matrix machinery
(:func:`repro.experiments.runner.sweep`), so ``--jobs N`` reuses the
pool-worker context plumbing and keeps results in input order — the
campaign digest is identical for every ``N``.  Shrinking runs
in-process afterwards: it is an adaptive search, each candidate
depends on the previous verdict, so there is nothing to parallelize.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..experiments.runner import cell, stable_hash, sweep
from .corpus import Reproducer, save_reproducer
from .episode import run_episode
from .generator import sample_spec
from .shrink import DEFAULT_MAX_RUNS, shrink_spec


@dataclass
class FuzzReport:
    """Outcome of one fuzzing campaign."""

    seed: int
    episodes: int
    results: List[Dict] = field(default_factory=list)
    #: (episode index, reproducer path) for every failure recorded.
    reproducers: List = field(default_factory=list)
    shrink_trails: List = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def failures(self) -> List[Dict]:
        return [r for r in self.results if not r["ok"]]

    @property
    def digest(self) -> str:
        """Hash over every episode signature — the determinism handle:
        two campaigns with the same seed/count must agree on this."""
        return stable_hash([r["signature"] for r in self.results])


def fuzz(seed: int, episodes: int, jobs: int = 1,
         corpus_dir: Optional[str] = None, shrink: bool = True,
         max_shrink_runs: int = DEFAULT_MAX_RUNS,
         wall_budget: Optional[float] = None,
         log=None) -> FuzzReport:
    """Run one campaign of ``episodes`` sampled episodes.

    ``wall_budget`` (real seconds) stops *sampling new batches* once
    exceeded — episodes already dispatched still finish, so a budgeted
    campaign ends at a batch boundary with a well-defined digest.
    """
    t0 = time.monotonic()
    report = FuzzReport(seed=seed, episodes=episodes)
    say = log if log is not None else (lambda msg: None)

    batch = max(1, jobs)
    index = 0
    while index < episodes:
        if wall_budget is not None and time.monotonic() - t0 > wall_budget:
            say(f"wall budget {wall_budget}s exhausted after "
                f"{index}/{episodes} episodes")
            break
        count = min(batch, episodes - index)
        specs = [sample_spec(seed, index + k) for k in range(count)]
        cells = [cell("repro.chaos.episode:run_episode_cell", spec=s)
                 for s in specs]
        results = sweep(cells, jobs=jobs)
        for k, result in enumerate(results):
            i = index + k
            report.results.append(result)
            mark = "ok" if result["ok"] else "FAIL"
            say(f"episode {i:4d}  {mark:4s}  {result['status']:16s} "
                f"sig={result['signature'][:12]}"
                + ("" if result["ok"]
                   else "  " + ",".join(result["failures"])))
            if result["ok"]:
                continue
            spec, note = result["spec"], f"seed {seed} episode {i}"
            failures = result["failures"]
            if shrink:
                sr = shrink_spec(spec, run_episode,
                                 max_runs=max_shrink_runs,
                                 baseline=result)
                spec, failures = sr.reduced, sr.reduced_failures
                note += (f"; shrunk {sr.events_before}->"
                         f"{sr.events_after} fault events "
                         f"in {sr.runs} runs")
                report.shrink_trails.append((i, sr.trail))
                say(f"  shrunk: {sr.events_before} -> {sr.events_after} "
                    f"events ({sr.runs} runs)")
            if corpus_dir is not None:
                final = run_episode(spec) if shrink else result
                path = save_reproducer(corpus_dir, Reproducer(
                    spec=spec, expect="fail", failures=list(failures),
                    signature=final["signature"], note=note))
                report.reproducers.append((i, path))
                say(f"  reproducer: {path}")
        index += count

    report.wall_seconds = time.monotonic() - t0
    return report

"""repro.chaos: seeded fault-space fuzzing with invariant oracles.

The subsystem closes the loop the hand-written fault experiments leave
open: instead of replaying a handful of curated scenarios, it *samples*
the joint space of fault schedules, workload mixes, and cluster shapes,
runs each sample as a budgeted **episode** with the audit invariants,
livelock watchdog, and recovery telemetry acting as oracles, and — when
an episode fails — delta-debugs the scenario down to a smallest
still-failing **reproducer** that is written out as replayable JSON.

Three properties make this useful rather than noisy:

* **Determinism.**  An episode is a pure function of its spec (a plain
  JSON-able dict): same spec, same seed ⇒ bit-identical simulation,
  asserted through :func:`repro.chaos.episode.episode_signature`.
* **Oracles, not assertions.**  Episodes run with the auditor in
  non-strict mode and read one structured
  :meth:`~repro.audit.runtime.AuditRuntime.verdict` at the end, so a
  single episode reports *every* violation instead of dying on the
  first.
* **Budgets.**  A guard process bounds each episode in simulated time,
  engine events, and (as a backstop) real time, so a livelocked sample
  becomes a ``budget-exceeded`` verdict instead of a hung harness.

Entry points: ``python -m repro.chaos`` (see :mod:`repro.chaos.cli`),
:func:`fuzz` for programmatic use, and the corpus helpers that replay
committed reproducers as regression tests.  docs/CHAOS.md walks through
the workflow.
"""

from .corpus import (Reproducer, load_corpus, replay_reproducer,
                     save_reproducer)
from .episode import (EpisodeResult, episode_signature, run_episode,
                      run_episode_cell)
from .generator import DEFAULT_BUDGET, sample_spec
from .runner import FuzzReport, fuzz
from .shrink import ShrinkResult, shrink_spec

__all__ = [
    "sample_spec",
    "DEFAULT_BUDGET",
    "run_episode",
    "run_episode_cell",
    "episode_signature",
    "EpisodeResult",
    "shrink_spec",
    "ShrinkResult",
    "Reproducer",
    "save_reproducer",
    "load_corpus",
    "replay_reproducer",
    "fuzz",
    "FuzzReport",
]

"""Pinned simulated outputs: what every benchmark repetition must produce.

``pins.json`` records, per workload, the seed-independent counts
(parent requests and sub-requests of one repetition) and, for each
pinned seed, the ``run_digest`` and the simulated outputs.  A
repetition on a pinned seed must reproduce them exactly; on any other
seed the counts must match and each output must fall in the band the
pinned seeds span, widened by its entry in ``OUTPUTS``.

Regenerate after a change that is meant to alter simulated behaviour::

    python3 perfbench/pins.py --seeds 0-31
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any, Dict, List

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "pins.json")

#: Outputs compared against the pins (all non-negative floats), with the
#: relative widening of the pinned band for seeds that are not pinned.
#: Tail latency moves most from seed to seed, so its band is widest.
OUTPUTS = {"mib_s": 0.25, "ssd_fraction": 0.25, "p50_ms": 0.5,
           "p99_ms": 1.0}
#: Counts that do not depend on the seed.
COUNTS = ("parents", "parents_all", "subrequests")


def load() -> Dict[str, Any]:
    """The pins, or ``{}`` before any have been recorded."""
    if not os.path.exists(PINS_PATH):
        return {}
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check(pins: Dict[str, Any], workload: str, seed: int,
          digest: str, outputs: Dict[str, float]) -> List[str]:
    """Problems with one repetition's outputs (empty when correct)."""
    pin = pins.get(workload)
    if pin is None:
        return [f"no pins for workload {workload!r}"]
    problems = []
    for key in COUNTS:
        if outputs[key] != pin[key]:
            problems.append(f"{key} {outputs[key]} != pinned {pin[key]}")
    exact = pin["seeds"].get(str(seed))
    if exact is not None:
        if digest != exact["digest"]:
            problems.append(f"run_digest {digest[:12]} != pinned "
                            f"{exact['digest'][:12]} for seed {seed}")
        for key in OUTPUTS:
            if not math.isclose(outputs[key], exact[key], rel_tol=1e-9,
                                abs_tol=1e-12):
                problems.append(f"{key} {outputs[key]!r} != pinned "
                                f"{exact[key]!r} for seed {seed}")
        return problems
    for key, band in OUTPUTS.items():
        values = [s[key] for s in pin["seeds"].values()]
        lo, hi = min(values) * (1 - band), max(values) * (1 + band)
        if not lo <= outputs[key] <= hi:
            problems.append(f"{key} {outputs[key]!r} outside the pinned "
                            f"band [{lo:.6g}, {hi:.6g}]")
    return problems


def _seed_list(spec: str) -> List[int]:
    seeds: List[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31",
                        help="seeds to pin, e.g. 0-31 or 0,3,7")
    parser.add_argument("--workload", action="append",
                        help="pin only this workload (repeatable)")
    args = parser.parse_args(argv)
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    import run
    from cells import CELLS

    pins = load()
    for name in args.workload or list(CELLS):
        entry: Dict[str, Any] = {"seeds": {}}
        for seed in _seed_list(args.seeds):
            rep = run.one_rep(CELLS[name], seed)
            if rep["error"] or rep["failures"]:
                raise SystemExit(f"{name} seed {seed}: {rep['error']} "
                                 f"({rep['failures']} client give-ups)")
            outputs = rep["outputs"]
            for key in COUNTS:
                if entry.setdefault(key, outputs[key]) != outputs[key]:
                    raise SystemExit(f"{name}: {key} depends on the seed")
            entry["seeds"][str(seed)] = dict(
                digest=rep["digest"], **{k: outputs[k] for k in OUTPUTS})
            print(f"{name} seed {seed}: {rep['digest'][:12]} "
                  f"{outputs['mib_s']:.3f} MiB/s", flush=True)
        pins[name] = entry
    with open(PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

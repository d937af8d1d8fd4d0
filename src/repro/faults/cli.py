"""``python -m repro.faults`` — lint fault plans offline.

A malformed fault plan otherwise surfaces only at cluster build time,
deep inside a run.  The ``validate`` subcommand runs the full plan
linter (schema, per-event field validation, the same-target overlap
rule, horizon computation) without building anything::

    python -m repro.faults validate plan.json
    python -m repro.faults validate plan.json --num-servers 4 \\
        --disks-per-server 2

The optional topology flags additionally run
:meth:`~repro.faults.FaultPlan.check_targets` (server ids, disk
indices) against the cluster the plan is meant for — the same check
:class:`repro.faults.FaultInjector` performs, minus the build.

Exit status: 0 for a valid plan, 1 for any
:class:`~repro.errors.FaultError` (the message goes to stderr).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..errors import FaultError
from .plan import FaultPlan


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Fault-plan utilities (offline plan linting).")
    sub = p.add_subparsers(dest="command", required=True)
    v = sub.add_parser("validate",
                       help="lint a plan file: schema, overlaps, horizon")
    v.add_argument("plan", help="plan file (JSON, or YAML with PyYAML)")
    v.add_argument("--num-servers", type=int, default=None, metavar="N",
                   help="also bound-check event targets against an "
                        "N-server cluster")
    v.add_argument("--disks-per-server", type=int, default=None,
                   metavar="N",
                   help="also bound-check disk indices (needs "
                        "--num-servers)")
    return p


def _validate(args) -> int:
    try:
        plan = FaultPlan.from_file(args.plan)
        if args.num_servers is not None:
            plan.check_targets(args.num_servers, args.disks_per_server)
        elif args.disks_per_server is not None:
            raise FaultError("--disks-per-server needs --num-servers")
    except OSError as exc:
        print(f"error: cannot read {args.plan}: {exc}", file=sys.stderr)
        return 1
    except FaultError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    finite = sum(1 for e in plan.events if e.duration is not None)
    kinds = sorted({e.kind.value for e in plan.events})
    print(f"ok: plan {plan.name!r}: {len(plan)} event(s) "
          f"({finite} finite), horizon {plan.horizon():g}s"
          + (f", kinds: {', '.join(kinds)}" if kinds else ""))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    if args.command == "validate":
        return _validate(args)
    raise AssertionError(args.command)  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover - module CLI
    sys.exit(main())

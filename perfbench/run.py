"""The prodb benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_threads --seed 1 --seconds 15 --trace 0

Runs the named workload against the program in ``src/`` for the given
number of seconds, checks every answer against the independent oracle
(``perfbench/oracle.py``), prints a few report lines and, as the last
line of standard output, one JSON object::

    {"correct": true, "attempted": 1234, "failed": 0,
     "metrics": {"latency_p50_ms": {"value": 0.61, "unit": "ms"}, ...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs half
the time untraced and half with the span recorder installed, and
reports the per-layer metrics. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import common


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; expected one of "
            + ", ".join(workloads.WORKLOADS),
            file=sys.stderr,
        )
        return 2
    work = common.WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        outcome, report = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            common.WORK.rmdir()
        except OSError:
            pass
    for line in report:
        print(line)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())

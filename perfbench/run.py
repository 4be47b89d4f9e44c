"""Run one workload of the mediator benchmark and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload newsroom_reads --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``perfbench/README.md``).  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The program under test is imported from ``src/`` of the
checkout; without it the run fails with exit code 2 before measuring.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("newsroom_reads", "bindjoin_sweep", "live_ingest")


def _workload(name: str):
    if name == "newsroom_reads":
        from perfbench.newsroom import NewsroomReads
        return NewsroomReads()
    if name == "bindjoin_sweep":
        from perfbench.bindjoin import BindJoinSweep
        return BindJoinSweep()
    from perfbench.live import LiveIngest
    return LiveIngest()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the mediator sources are missing under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if hasattr(os, "sched_setaffinity"):
        # One CPU: the interpreter lock lets the mediator's threads run
        # Python on one core at a time anyway, and handing the lock across
        # two cores made concurrent timings swing with the host's load
        # (newsroom_reads: queries_per_s 138-208 free vs 195-213 pinned,
        # same seed, alternating runs on a 2-CPU host).
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    from perfbench import harness

    return harness.run(_workload(args.workload), args.seed, args.seconds,
                       bool(args.trace))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

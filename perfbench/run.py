"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload zerocopy_stream --seed 1 \\
        --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it carries the run's details (``sim_digest``, op counts, the recorded
arming state).  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones.  The exit code is 0 only when every
correctness check passed; the benchmark needs the repository's
``src/`` tree and exits 2 without a result when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the sim window and plans (tests)")
    parser.add_argument("--spans", default=None,
                        help="where the traced run writes its spans "
                        "(default perfbench/out/<workload>.spans.jsonl)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no src/repro under {ROOT}: nothing to benchmark",
              file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.harness import Refused, run
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    spans = args.spans
    if args.trace and spans is None:
        out_dir = os.path.join(ROOT, "perfbench", "out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, f"{args.workload}.spans.jsonl")
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), tiny=args.tiny, spans_path=spans)
    except Refused as exc:
        print(exc, file=sys.stderr)
        return 3
    print(json.dumps(result.info))
    print(result.line())
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())

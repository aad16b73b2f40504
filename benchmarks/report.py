"""Aggregate benchmark runs into one machine-readable ``BENCH.json``.

Runs the benchmark suite twice over, in one pytest invocation:

* with ``REPRO_BENCH_RECORD`` pointed at a scratch JSONL file, so every
  table/series/metric the experiments print (simulated-time numbers,
  deterministic) is captured in machine-readable form by
  :func:`repro.bench.harness.record`;
* with ``--benchmark-json``, so pytest-benchmark's host-time statistics
  (which measure the simulator itself, not the simulated hardware) are
  captured alongside.

The two are merged into ``BENCH.json``::

    {"meta":    {...run info...},
     "records": [ ...tables / series / metrics, in emit order... ],
     "metrics": {"<title>": { ...observability snapshot... }},
     "host":    {"<test name>": {"median_s": ..., "mean_s": ...,
                                 "stddev_s": ..., "rounds": ...}}}

``metrics`` collects every ``kind == "metrics"`` record (the
observability snapshots emitted by E15) keyed by title, so the headline
numbers — regcache hit rate, DMA burst histogram, fabric retransmit
counters — are addressable without scanning the record stream.  The run
also points ``REPRO_BENCH_TRACE`` at ``BENCH_TRACE.json`` next to the
output, so E15 drops its Chrome trace (``chrome://tracing``) there for
CI to archive.

Usage::

    python benchmarks/report.py               # full suite
    python benchmarks/report.py --quick       # E13 + E5 + E15 (CI smoke)
    python benchmarks/report.py -o OUT.json BENCH_DIR...

Exit status is pytest's: a failing benchmark assertion fails the report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent

#: CI smoke selection: the fast-path data plane (E13), one paper
#: messaging experiment (E5) and the observability layer (E15), all
#: cheap enough for a per-push job.
QUICK = ["bench_e13_fastpath.py", "bench_e5_messaging.py",
         "bench_e15_observability.py"]


def run(targets: list[str], out_path: Path, quick: bool) -> int:
    with tempfile.TemporaryDirectory(prefix="bench-report-") as tmp:
        records_path = Path(tmp) / "records.jsonl"
        hostjson_path = Path(tmp) / "benchmark.json"

        env = dict(os.environ)
        env["REPRO_BENCH_RECORD"] = str(records_path)
        env.setdefault("REPRO_BENCH_TRACE",
                       str(out_path.parent / "BENCH_TRACE.json"))
        env.setdefault("PYTHONPATH", str(REPO / "src"))

        cmd = [sys.executable, "-m", "pytest", "-q", "-s",
               "--benchmark-json", str(hostjson_path),
               *targets]
        proc = subprocess.run(cmd, cwd=REPO, env=env)

        records = []
        if records_path.exists():
            with open(records_path, encoding="utf-8") as fh:
                records = [json.loads(line) for line in fh if line.strip()]

        host = {}
        # pytest-benchmark leaves the file empty (not absent) when the
        # selected targets register no host-time benchmarks.
        if hostjson_path.exists() and hostjson_path.stat().st_size:
            with open(hostjson_path, encoding="utf-8") as fh:
                data = json.load(fh)
            for bench in data.get("benchmarks", []):
                stats = bench.get("stats", {})
                host[bench["name"]] = {
                    "median_s": stats.get("median"),
                    "mean_s": stats.get("mean"),
                    "stddev_s": stats.get("stddev"),
                    "rounds": stats.get("rounds"),
                }

        metrics = {rec["title"]: {k: v for k, v in rec.items()
                                  if k not in ("kind", "title")}
                   for rec in records if rec.get("kind") == "metrics"}

        report = {
            "meta": {
                "quick": quick,
                "targets": targets,
                "python": platform.python_version(),
                "platform": platform.platform(),
                "pytest_exit": proc.returncode,
            },
            "records": records,
            "metrics": metrics,
            "host": host,
        }
        out_path.write_text(json.dumps(report, indent=2) + "\n",
                            encoding="utf-8")
        print(f"\nwrote {out_path} "
              f"({len(records)} records, {len(host)} host benchmarks)")
        return proc.returncode


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("targets", nargs="*",
                    help="bench files/dirs (default: all of benchmarks/)")
    ap.add_argument("--quick", action="store_true",
                    help=f"CI smoke selection: {', '.join(QUICK)}")
    ap.add_argument("-o", "--output", default=str(REPO / "BENCH.json"),
                    help="output path (default: BENCH.json)")
    args = ap.parse_args(argv)

    if args.quick:
        targets = [str(HERE / t) for t in QUICK]
    elif args.targets:
        targets = args.targets
    else:
        targets = [str(HERE)]
    return run(targets, Path(args.output), args.quick)


if __name__ == "__main__":
    raise SystemExit(main())

"""One cold repeat of one workload, in its own process.

Run by ``perfbench/run.py`` with ``PYTHONPATH=src``; prints one JSON object
on its last stdout line.  ``--trace FILE`` wraps the layers of
``perfbench/layers.py`` and writes the spans to FILE as Chrome trace-event
JSON; ``--check`` adds the checks that serve the trace a second time (the
per-request terminal states of a materialised serve, and daemon == batch).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import layers
import workloads
from tracing import Tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() at which the parent spawned this process")
    parser.add_argument("--trace", default=None, metavar="FILE")
    parser.add_argument("--check", action="store_true",
                        help="add the checks that serve the trace again")
    args = parser.parse_args()

    tracer = None
    if args.trace is not None and args.workload != "daemon-live":
        tracer = Tracer()
        layers.install(tracer)

    if args.workload == "daemon-live":
        report = workloads.run_daemon(args.seed, Path(args.out_dir), args.trace,
                                      check=args.check)
    elif args.workload == "paper-grid":
        report = workloads.run_grid(args.seed, args.spawned_at, tracer)
    else:
        report = workloads.run_serve(args.workload, args.seed, args.spawned_at,
                                     tracer, check=args.check)

    if tracer is not None:
        tracer.unwrap()
        report["layers"], report["roots"] = tracer.fold()
        report["spans"] = tracer.span_count()
        tracer.write_chrome(args.trace, os.getpid())
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

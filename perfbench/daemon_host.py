"""The daemon process of the daemon-live workload: ``repro serve --daemon``.

Runs the repository's own CLI entry point in this process, after installing
the engine capture (and, with ``--trace FILE``, the layer wrappers), so the
benchmark can read the daemon's peak memory, serving time, drain invariants
and spans when it exits.  The report is the stdout line starting
``PERFBENCH``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import layers
from tracing import Tracer
from workloads import peak_rss_mb


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--trace", default=None, metavar="FILE")
    args = parser.parse_args()

    from repro import cli
    from repro.sim.engine import BuiltOuroboros

    tracer = None
    if args.trace is not None:
        tracer = Tracer()
        layers.install(tracer)
    capture = layers.EngineCapture()

    # Time the engine thread's serve from outside (wall and process CPU),
    # the denominator of the self-time sum and of the tracing overhead.
    serve_live = BuiltOuroboros.serve_live
    timing: dict[str, float] = {}

    def timed_serve_live(*call_args, **kwargs):
        wall, cpu = time.perf_counter(), _cpu_s()
        try:
            return serve_live(*call_args, **kwargs)
        finally:
            timing["serve_wall_s"] = time.perf_counter() - wall
            timing["serve_cpu_s"] = _cpu_s() - cpu

    BuiltOuroboros.serve_live = timed_serve_live

    code = cli.main(["serve", "--spec", args.spec, "--daemon",
                     "--listen", "127.0.0.1:0"])
    report = {
        "code": code,
        "peak_rss_mb": peak_rss_mb(),
        "failures": capture.drain_failures(),
        "counters": capture.counters(),
        **timing,
    }
    if tracer is not None:
        tracer.unwrap()
        report["layers"], report["roots"] = tracer.fold()
        report["spans"] = tracer.span_count()
        tracer.write_chrome(args.trace, os.getpid())
    print("PERFBENCH " + json.dumps(report), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())

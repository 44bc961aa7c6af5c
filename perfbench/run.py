"""Benchmark entry point: one workload, repeated cold, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stream-wikitext2 --seed 1 --seconds 30 --trace 0

Each repeat runs ``perfbench/worker.py`` in a fresh process (so no in-process
memo or grid cache carries over), with ``PYTHONPATH=src``.  Repeats continue
until the next one would overrun ``--seconds``, with at least
``MIN_REPEATS``.  Every repeat uses the same seed, so the simulated outputs
must repeat exactly.  Host times are scaled to reference seconds (see
``workloads.reference_s``) and reported as medians over the repeats.

``--trace 0`` prints the ``end_to_end`` metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced repeats and prints the
``per_layer`` metrics, a layer the workload does not exercise reading 0.
The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
The traced spans are left in ``.perfbench/trace-<workload>.json`` (Chrome
trace-event format).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import REFERENCE_S, WORKLOADS  # noqa: E402

MIN_REPEATS = 3
#: a run must end within this many seconds, so a repeat still running when
#: the budget is spent is killed and counted as failed
RUN_BUDGET_S = 170.0

#: per-layer metrics read from the folded spans: suffix -> span field
SPAN_FIELDS = {"calls": "calls", "self_s": "self_s", "wait_s": "total_s"}


class RepeatFailed(Exception):
    pass


def run_repeat(workload: str, seed: int, out_dir: Path, env: dict, timeout: float,
               trace_file: Path | None = None, check: bool = False) -> dict:
    """Run one cold repeat in its own process group and return its report."""
    command = [sys.executable, str(HERE / "worker.py"), workload,
               "--seed", str(seed), "--out-dir", str(out_dir)]
    if trace_file is not None:
        command += ["--trace", str(trace_file)]
    if check:
        command.append("--check")
    started = time.perf_counter()
    command += ["--spawned-at", repr(time.time())]
    # Its own process group, so a timeout also stops the daemon a worker spawned.
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True, env=env,
                               start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RepeatFailed(f"repeat timed out after {timeout:.0f} s")
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)  # stragglers of the group
        except ProcessLookupError:
            pass
    if process.returncode != 0 or not stdout.strip():
        tail = "\n".join(stderr.strip().splitlines()[-5:])
        raise RepeatFailed(f"worker exited {process.returncode}: {tail}")
    report = json.loads(stdout.strip().splitlines()[-1])
    report["wall_s"] = time.perf_counter() - started
    return report


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), q in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def scaled(report: dict, key: str) -> float:
    """A host time of a repeat in reference seconds (see ``reference_s``)."""
    return report[key] * REFERENCE_S / report["reference_s"]


def rate(report: dict) -> float:
    """Requests per second; a paced replay is timed on the wall clock."""
    seconds = report["measured_s"] if report.get("paced") else scaled(report, "measured_s")
    return report["terminal"] / seconds


def end_to_end(reports: list[dict]) -> dict[str, float]:
    metrics = {
        "setup_s": statistics.median(scaled(r, "setup_s") for r in reports),
        "requests_per_s": statistics.median(rate(r) for r in reports),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }
    metrics.update(reports[0]["sim"])
    return metrics


def per_layer(untraced: list[dict], traced: list[dict],
              names: list[str]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics: medians over the traced repeats, plus checks."""
    failures: list[str] = []
    time_key = "serve_cpu_s" if "serve_cpu_s" in traced[0] else "measured_s"
    base = statistics.median(scaled(r, time_key) for r in untraced)
    overhead = statistics.median(scaled(r, time_key) for r in traced) / base - 1.0

    def one(report: dict) -> dict[str, float]:
        layers = report.get("layers", {})
        values: dict[str, float] = dict(report["counters"])
        for name in names:
            layer, _, field = name.rpartition(".")
            span = layers.get(layer)
            if field in SPAN_FIELDS:
                values[name] = span[SPAN_FIELDS[field]] if span else 0
            elif field == "ok_ratio":
                values[name] = span["ok"] / span["calls"] if span else 0.0
        run = layers.get("pipeline.engine.run")
        epochs = values["pipeline.engine.epochs"]
        values["pipeline.engine.self_us_per_epoch"] = (
            run["self_s"] / epochs * 1e6 if run and epochs else 0.0
        )
        roots = report["roots"]
        if "serve_wall_s" in report:  # daemon: the engine thread's serve
            measured = report["serve_wall_s"]
            attributed = roots["pipeline.engine.run"]["self_sum_s"]
        else:
            measured = report["build_wall_s"] + report["phase_wall_s"]
            attributed = roots["build"]["self_sum_s"] + roots["phase"]["self_sum_s"]
        values["trace.self_sum_share"] = attributed / measured
        values["trace.spans"] = report["spans"]
        return values

    samples = [one(report) for report in traced]
    metrics = {
        name: statistics.median(sample[name] for sample in samples)
        for name in samples[0]
    }
    metrics["trace.overhead_share"] = overhead
    for sample in samples:
        if abs(sample["trace.self_sum_share"] - 1.0) > max(overhead, 0.01):
            failures.append(
                f"self times sum to {sample['trace.self_sum_share']:.4f} of the "
                f"measured time, beyond the {overhead:.4f} tracing overhead"
            )

    late = [value for r in untraced for value in r.get("late_ms", [])]
    lag = [value for r in untraced for value in r.get("lag_ms", [])]
    sim = untraced[0]["sim"]
    metrics.update({
        "host.setup_s": statistics.median(r["setup_s"] for r in untraced),
        "host.requests_per_s": statistics.median(
            r["terminal"] / r["measured_s"] for r in untraced
        ),
        "host.reference_s": statistics.median(r["reference_s"] for r in untraced),
        "loadgen.late_p99_ms": percentile(late, 99.0),
        "daemon.lag_p50_ms": percentile(lag, 50.0),
        "daemon.lag_p99_ms": percentile(lag, 99.0),
        "daemon.lag_samples": len(lag),
        "grid.sim_speedup_geomean": sim.get("grid.sim_speedup_geomean", 0.0),
        "grid.sim_efficiency_geomean": sim.get("grid.sim_efficiency_geomean", 0.0),
        "slo.sim_goodput": sim.get("sim_goodput") or 0.0,
    })
    return metrics, failures


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics as JSON."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro is missing)",
              file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in declared[kind]}

    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{args.workload}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # One sweep process keeps the grid's layers in the traced process, and
    # 1 <= nproc on every machine; no on-disk result cache, so runs are cold.
    env["REPRO_SWEEP_PROCS"] = "1"
    env.pop("REPRO_RESULT_CACHE_DIR", None)

    started = time.perf_counter()
    untraced: list[dict] = []
    traced: list[dict] = []
    errors: list[str] = []

    def remaining() -> float:
        return RUN_BUDGET_S - (time.perf_counter() - started)

    while remaining() > 0 and len(errors) < MIN_REPEATS:
        round_start = time.perf_counter()
        try:
            untraced.append(run_repeat(args.workload, args.seed, out_dir, env,
                                       remaining(), check=not untraced))
            if args.trace:
                traced.append(run_repeat(args.workload, args.seed, out_dir, env,
                                         remaining(), trace_file=trace_file))
        except RepeatFailed as exc:
            errors.append(str(exc))
            if not untraced:
                break
        now = time.perf_counter()
        enough = len(untraced) >= (1 if args.trace else MIN_REPEATS)
        if enough and (now - started) + (now - round_start) > args.seconds:
            break

    if not untraced or (args.trace and not traced):
        print("perfbench: no repeat completed: " + "; ".join(errors), file=sys.stderr)
        return 1

    reports = untraced + traced
    per_repeat = untraced[0]["attempted"]
    attempted = sum(r["attempted"] for r in reports) + per_repeat * len(errors)
    failed = sum(r["attempted"] - r["terminal"] for r in reports)
    failed += per_repeat * len(errors)
    failures = errors + [text for r in reports for text in r["failures"]]
    if any(r["sim"] != untraced[0]["sim"] for r in reports):
        failures.append("simulated outputs differ between repeats of one seed")

    if args.trace:
        values, trace_failures = per_layer(untraced, traced, list(units))
        failures += trace_failures
    else:
        values = end_to_end(untraced)
        values["ok_share"] = 1.0 - failed / attempted

    missing = sorted(set(units) - set(values))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    for text in failures:
        print(f"perfbench: check failed: {text}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

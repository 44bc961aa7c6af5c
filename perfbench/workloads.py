"""The benchmark's workloads: frozen inputs and one measured repeat of each.

Every input is a constant here; only the request seed comes from the command
line.  Offered rates are numbers, never derived from a simulated run, so a
change to the model cannot silently change the load it is measured under.

Each ``run_*`` function performs one cold repeat inside a fresh worker
process and returns a plain dict: host timings, the simulated outputs, the
request accounting and a list of failed checks.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any

from layers import BUILD, PHASE, EngineCapture

MODEL = "llama-13b"

#: closed-batch service rate of 150 wikitext2 requests on llama-13b (req/s),
#: measured once and frozen: the saturation point of a single fcfs tenant
SATURATION_RATE_PER_S = 93.1

#: SLO of the wikitext2 (interactive) traffic in every serve workload; the
#: ttft bound sits just above the saturated stream's p95
INTERACTIVE_SLO = {"ttft_s": 0.7, "latency_s": 2.0}

STREAM_REQUESTS = 2000

TENANTS_REQUESTS = 1500
#: half the saturation rate: the interactive tenant still meets its SLO while
#: the KV-hungry batch tenant is preempted hundreds of times
TENANTS_RATE_PER_S = 46.5
TENANTS_INTERACTIVE_SHARE = 2 / 3
TENANTS_INTERACTIVE_WEIGHT = 8.0
TENANTS_BATCH_KV_QUOTA = 0.3
TENANTS_MAX_ACTIVE = 16

DAEMON_REQUESTS = 1000
#: simulated seconds replayed per wall-clock second: the client offers
#: 1.5 x 93.1 = 140 req/s, about half of what the daemon process sustains
DAEMON_REPLAY_SPEED = 1.5

GRID_REQUESTS_PER_CELL = 150

WORKLOADS = ("stream-wikitext2", "tenants-preempt", "daemon-live", "paper-grid")


def spec_for(workload: str, seed: int):
    """The DeploymentSpec a serve workload runs under ``seed``."""
    from repro.api import SLOTarget, TenantSpec
    from repro.experiments.common import ExperimentSettings

    slo = SLOTarget(**INTERACTIVE_SLO)
    if workload in ("stream-wikitext2", "daemon-live"):
        count = STREAM_REQUESTS if workload == "stream-wikitext2" else DAEMON_REQUESTS
        settings = ExperimentSettings(
            num_requests=count,
            seed=seed,
            arrival_rate_per_s=SATURATION_RATE_PER_S,
            slo=slo,
        )
        return settings.deployment(MODEL, "wikitext2")
    if workload == "tenants-preempt":
        interactive = round(TENANTS_REQUESTS * TENANTS_INTERACTIVE_SHARE)
        batch = TENANTS_REQUESTS - interactive
        tenants = (
            TenantSpec(
                name="interactive",
                workload="wikitext2",
                num_requests=interactive,
                arrival_rate_per_s=TENANTS_RATE_PER_S * interactive / TENANTS_REQUESTS,
                slo=slo,
                weight=TENANTS_INTERACTIVE_WEIGHT,
            ),
            TenantSpec(
                name="batch",
                workload="lp2048_ld2048",
                num_requests=batch,
                arrival_rate_per_s=TENANTS_RATE_PER_S * batch / TENANTS_REQUESTS,
                kv_quota=TENANTS_BATCH_KV_QUOTA,
            ),
        )
        settings = ExperimentSettings(
            seed=seed,
            tenants=tenants,
            scheduling_policy="wfq",
            preemptive=True,
            max_active_sequences=TENANTS_MAX_ACTIVE,
        )
        return settings.deployment(MODEL, "wikitext2")
    raise ValueError(f"{workload} has no single deployment spec")


def _sim_outputs(result: dict[str, Any]) -> dict[str, float]:
    """The simulated end-to-end outputs of a ``RunResult.as_dict()``."""
    return {
        "sim_tokens_per_s": result["throughput_tokens_per_s"],
        "sim_energy_per_token_mj": result["energy_per_output_token_j"] * 1e3,
        "sim_ttft_p95_s": result["ttft"]["p95_s"],
        "sim_latency_p99_s": result["latency"]["p99_s"],
        "sim_goodput": result["goodput"],
    }


def _tenant_failures(result_dict: dict[str, Any], total: int) -> list[str]:
    """Terminal-state accounting of a drained run, from its result dict."""
    tenants = result_dict["tenants"].values()
    completed = sum(stats["requests"] for stats in tenants)
    shed = sum(stats["shed"] for stats in tenants)
    failures = []
    if completed != result_dict["latency"]["count"]:
        failures.append(
            f"per-tenant completions {completed} != aggregate "
            f"{result_dict['latency']['count']}"
        )
    if shed != result_dict["shed_requests"]:
        failures.append(
            f"per-tenant sheds {shed} != aggregate {result_dict['shed_requests']}"
        )
    if completed + shed != total:
        failures.append(
            f"{completed} completed + {shed} shed != {total} requests"
        )
    return failures


def _id_failures(completed_ids: list[int], shed_ids: list[int],
                 all_ids: list[int]) -> list[str]:
    """Every request ends completed or shed: never both, never neither."""
    failures = []
    if len(set(completed_ids)) != len(completed_ids):
        failures.append("a request completed more than once")
    if len(set(shed_ids)) != len(shed_ids):
        failures.append("a request was shed more than once")
    both = set(completed_ids) & set(shed_ids)
    if both:
        failures.append(f"{len(both)} requests both completed and shed")
    neither = set(all_ids) - set(completed_ids) - set(shed_ids)
    if neither:
        failures.append(f"{len(neither)} requests neither completed nor shed")
    unknown = (set(completed_ids) | set(shed_ids)) - set(all_ids)
    if unknown:
        failures.append(f"{len(unknown)} terminal requests not in the trace")
    return failures


def _json_normal(payload: Any) -> Any:
    """The value after a JSON round trip (what crosses the daemon socket)."""
    return json.loads(json.dumps(payload))


# ---------------------------------------------------------------- in-process


def _timings(spawned_at: float, build: "_Timer", phase: "_Timer") -> dict[str, float]:
    """Timing fields of an in-process repeat.

    ``setup_s`` is the cold start: wall seconds from the spawn of the worker
    process (``spawned_at``, a ``time.time()`` taken by its parent) until
    the deployment is built, so work moved into imports shows too.
    ``measured_s``, the denominator of requests_per_s, is the CPU time of
    the phase.  The wall times of the two spans feed the traced run's
    self-time check.
    """
    return {
        "setup_s": build.ended_at - spawned_at,
        "measured_s": phase.cpu_s,
        "build_wall_s": build.wall_s,
        "phase_wall_s": phase.wall_s,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _reference_work(iterations: int) -> int:
    """Dict updates in a Python loop with a small numpy call every few steps."""
    import numpy as np

    free = np.arange(4096, dtype=np.int64)
    table: dict[int, int] = {}
    total = 0
    for i in range(iterations):
        key = i & 255
        table[key] = table.get(key, 0) + i
        if i % 8 == 0:
            low = i % 1000
            total += int(np.bincount(free[low:low + 32] & 63, minlength=64).max())
    return total


#: CPU seconds ``reference_s`` takes on the host the benchmark was defined on
#: (median, 2-vCPU x86-64 VM at 2.0 GHz): the unit of every scaled host time
REFERENCE_S = 0.3


def reference_s() -> float:
    """CPU seconds of a fixed computation shaped like the simulator's hot path.

    No repository code runs in it, so no change to the program moves it,
    but a slower or busier host does.  Host times are scaled by
    ``REFERENCE_S / reference_s()`` measured in the same process, which
    cancels most of a shared host's drift in speed.  A short untimed pass
    first takes the one-off warm-up cost out of the timing.
    """
    _reference_work(20_000)
    start = time.process_time()
    _reference_work(300_000)
    return time.process_time() - start


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


class _Timer:
    """Wall and CPU seconds of a block.

    The in-process phases are single-threaded and do no I/O, so their CPU
    time equals their wall time on an idle host; unlike wall time, it leaves
    out the time the host gave to other processes.
    """

    def __enter__(self) -> "_Timer":
        self._wall, self._cpu = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc: object) -> None:
        self.wall_s = time.perf_counter() - self._wall
        self.cpu_s = time.process_time() - self._cpu
        self.ended_at = time.time()


def run_serve(workload: str, seed: int, spawned_at: float, tracer=None,
              check: bool = False) -> dict:
    """One repeat of stream-wikitext2 or tenants-preempt (streaming serve)."""
    from repro import api

    capture = EngineCapture()
    spec = spec_for(workload, seed).validate()
    total = api.total_spec_requests(spec)

    with _Timer() as build, _span(tracer, BUILD):
        system = api.build_deployment(spec, cache=False)
        system.built

    stream = api.stream_for(spec)
    reference = reference_s()
    with _Timer() as phase, _span(tracer, PHASE):
        result = system.serve(stream, workload_name=spec.label())
    rss_mb = peak_rss_mb()  # before the checks below serve the trace again
    reference = (reference + reference_s()) / 2

    result_dict = result.as_dict()
    counters = capture.counters()
    failures = _tenant_failures(result_dict, total)
    if stream.stream.emitted != total or not stream.stream.exhausted:
        failures.append(f"stream emitted {stream.stream.emitted} of {total} requests")

    if check:
        # Outside the timed phase: serve the materialised trace, whose
        # scheduler keeps every terminal sequence, and require the streamed
        # run to equal it bit for bit.
        trace = api.trace_for(spec)
        materialised = system.serve(trace, workload_name=spec.label())
        scheduler = capture.engines[-1].scheduler
        failures += _id_failures(
            [s.request.request_id for s in scheduler.completed],
            [s.request.request_id for s in scheduler.shed],
            [r.request_id for r in trace.requests],
        )
        if materialised.as_dict() != result_dict:
            failures.append("streamed result differs from the materialised one")
    failures += capture.drain_failures()

    return {
        **_timings(spawned_at, build, phase),
        "attempted": total,
        "terminal": total if not failures else 0,
        "failures": failures,
        "sim": _sim_outputs(result_dict),
        "counters": counters,
        "peak_rss_mb": rss_mb,
        "reference_s": reference,
    }


def run_grid(seed: int, spawned_at: float, tracer=None) -> dict:
    """One repeat of the cold headline grid (4 models x 4 workloads x systems)."""
    from repro import api
    from repro.experiments import headline
    from repro.experiments.common import (
        DECODER_MODELS,
        OUROBOROS_NAME,
        PAPER_WORKLOAD_ORDER,
        ExperimentSettings,
        geometric_mean,
    )
    from repro.experiments.fig13_throughput import main_comparison_grid

    capture = EngineCapture()
    settings = ExperimentSettings(num_requests=GRID_REQUESTS_PER_CELL, seed=seed)

    # Set-up: one cold llama-13b deployment build, outside the build memo so
    # the grid below still builds everything itself.
    with _Timer() as build, _span(tracer, BUILD):
        api.build_deployment(
            settings.deployment(MODEL, PAPER_WORKLOAD_ORDER[0]), cache=False
        ).built

    reference = reference_s()
    with _Timer() as phase, _span(tracer, PHASE):
        grid = main_comparison_grid(settings, DECODER_MODELS, PAPER_WORKLOAD_ORDER)
        summary = headline.run(settings, models=DECODER_MODELS)
    reference = (reference + reference_s()) / 2

    failures = capture.drain_failures()
    served = 0
    ours = []
    for (model, workload), cell in grid.items():
        if OUROBOROS_NAME not in cell:
            failures.append(f"{model}/{workload}: Ouroboros did not serve")
            continue
        served += GRID_REQUESTS_PER_CELL * len(cell)
        result = cell[OUROBOROS_NAME]
        ours.append(result)
        failures += [
            f"{model}/{workload}: {text}"
            for text in _tenant_failures(result.as_dict(), GRID_REQUESTS_PER_CELL)
        ]
        for name, other in cell.items():
            if not (other.output_tokens > 0 and other.total_time_s > 0):
                failures.append(f"{model}/{workload}: {name} produced no output")
    if len(ours) != len(DECODER_MODELS) * len(PAPER_WORKLOAD_ORDER):
        failures.append(f"only {len(ours)} grid cells served")
    for value in (summary.average_speedup, summary.average_efficiency_gain):
        if not (math.isfinite(value) and value > 0):
            failures.append(f"headline ratio {value} is not a positive number")

    per_cell = [_sim_outputs(result.as_dict()) for result in ours]
    # The closed-batch grid has no SLO, so no goodput.
    sim = {
        key: geometric_mean([cell[key] for cell in per_cell])
        for key in per_cell[0] if key != "sim_goodput"
    } if per_cell else {}
    sim["grid.sim_speedup_geomean"] = summary.average_speedup
    sim["grid.sim_efficiency_geomean"] = summary.average_efficiency_gain
    return {
        **_timings(spawned_at, build, phase),
        "attempted": served,
        "terminal": served if not failures else 0,
        "failures": failures,
        "sim": sim,
        "counters": capture.counters(),
        "peak_rss_mb": peak_rss_mb(),
        "reference_s": reference,
    }


# ------------------------------------------------------------------- daemon


def run_daemon(seed: int, out_dir: Path, trace_path: str | None = None,
               check: bool = False) -> dict:
    """One repeat of daemon-live: boot a daemon process, replay, drain, stop."""
    from repro import api
    from repro.errors import ProtocolError
    from repro.serving import DaemonClient

    spec = spec_for("daemon-live", seed).validate()
    requests = list(api.stream_for(spec))
    total = len(requests)
    spec_path = out_dir / f"daemon-spec-{os.getpid()}.json"
    spec_path.write_text(json.dumps(spec.to_dict()))

    command = [sys.executable, str(Path(__file__).with_name("daemon_host.py")),
               "--spec", str(spec_path)]
    if trace_path is not None:
        command += ["--trace", trace_path]
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    failures: list[str] = []
    errors = 0
    reference = reference_s()
    start = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True, env=env)
    try:
        assert process.stdout is not None
        while True:
            line = process.stdout.readline()
            if not line:
                raise RuntimeError("daemon exited before it listened")
            if "listening on " in line:
                host, _, port = line.rsplit("listening on ", 1)[1].strip().rpartition(":")
                break
        setup_s = time.perf_counter() - start

        events: list[tuple[float, dict]] = []
        subscriber = DaemonClient(host, int(port), timeout=60.0)
        subscriber.subscribe()

        def collect() -> None:
            for event in subscriber.events(timeout=120.0):
                events.append((time.perf_counter(), event))

        collector = threading.Thread(target=collect, name="perfbench-events")
        collector.start()
        late_ms: list[float] = []
        with DaemonClient(host, int(port), timeout=60.0) as client:
            client.begin_stream()
            clock_start = time.perf_counter() + 0.05
            for request in requests:
                due = clock_start + request.arrival_time / DAEMON_REPLAY_SPEED
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                late_ms.append((time.perf_counter() - due) * 1e3)
                try:
                    client.submit(request)
                except (ProtocolError, OSError):
                    errors += 1
            try:
                client.end_stream()
                drained = client.drain(timeout=120.0)
            except (ProtocolError, OSError) as exc:
                failures.append(f"drain failed: {exc}")
                drained = None
            measured_s = time.perf_counter() - clock_start
            client.shutdown()
        collector.join(timeout=60.0)
        if collector.is_alive():
            failures.append("event stream did not finish")
        subscriber.close()
        output, _ = process.communicate(timeout=60.0)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        spec_path.unlink(missing_ok=True)

    reference = (reference + reference_s()) / 2
    report = None
    for line in output.splitlines():
        if line.startswith("PERFBENCH "):
            report = json.loads(line[len("PERFBENCH "):])
    if report is None or process.returncode != 0:
        failures.append(f"daemon exited {process.returncode} without a report")
        report = {"failures": [], "counters": {}}
    failures += report.pop("failures")
    if errors:
        failures.append(f"{errors} submits got an error reply or timed out")

    completion_ids, shed_ids, lag_ms = [], [], []
    for arrived, event in events:
        if event.get("event") == "completion":
            completion_ids.append(event["request_id"])
            due = clock_start + event["completion_time_s"] / DAEMON_REPLAY_SPEED
            lag_ms.append((arrived - due) * 1e3)
        elif event.get("event") == "shed":
            shed_ids.append(event["request_id"])
    failures += _id_failures(completion_ids, shed_ids,
                             [r.request_id for r in requests])

    sim: dict[str, float] = {}
    if drained is not None:
        failures += _tenant_failures(drained, total)
        sim = _sim_outputs(drained)
        # Outside the timed window: the live result must be the batch one.
        if check and _json_normal(api.serve(spec).as_dict()) != drained:
            failures.append("drained daemon result differs from batch serve")
    # The daemon's own report carries peak_rss_mb, the serve timings, the
    # engine counters and (traced) the layer spans of the process under test.
    report.pop("code", None)
    return {
        **report,
        "setup_s": setup_s,
        "measured_s": measured_s,
        "paced": True,
        "reference_s": reference,
        "attempted": total,
        "terminal": total if not failures else 0,
        "failures": failures,
        "sim": sim,
        "lag_ms": lag_ms,
        "late_ms": late_ms,
    }

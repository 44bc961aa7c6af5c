"""Which simulator entry points the traced run wraps, and how they are named.

Every per-layer metric is ``<module>.<function>.<field>``, with the module
path relative to the ``repro`` package.  The end-to-end metric each layer is
predicted to move, and on which workload, is listed in ``perfbench/README.md``.
"""

from __future__ import annotations

from typing import Any

from tracing import Tracer

#: the benchmark's own spans around the deployment build and the measured
#: phase; their self times are the time spent outside every wrapped layer
BUILD = "build"
PHASE = "phase"


def _baseline_serve_name(args: tuple) -> str:
    # BaselineSystem.serve is inherited by every baseline; attribute each
    # call to the module that defines the concrete baseline.
    module = type(args[0]).__module__.rsplit(".", 1)[-1]
    return f"baselines.{module}.serve"


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point; ``tracer.unwrap()`` restores them."""
    from repro.baselines.common import BaselineSystem
    from repro.kvcache.manager import DistributedKVCacheManager
    from repro.mapping import intercore
    from repro.pipeline.engine import PipelineEngine
    from repro.results import ServeAccumulator
    from repro.serving import feed, protocol, telemetry
    from repro.workload import policies, scheduler, streams

    # Load every module that imports a wrapped function by name, so the
    # aliases are rebound too.
    import repro.cli  # noqa: F401
    import repro.experiments.headline  # noqa: F401
    import repro.serving.client  # noqa: F401
    import repro.serving.daemon  # noqa: F401
    import repro.sim.engine  # noqa: F401

    kv = DistributedKVCacheManager
    tracer.wrap_method(kv, "append_tokens", "kvcache.manager.append_tokens",
                       seq=True, ok=True)
    tracer.wrap_method(kv, "try_admit", "kvcache.manager.try_admit",
                       seq=True, ok=True)
    tracer.wrap_method(kv, "release", "kvcache.manager.release", seq=True)

    sched = scheduler.InterSequenceScheduler
    tracer.wrap_method(sched, "fill", "workload.scheduler.fill")
    tracer.wrap_method(sched, "grow_sequence", "workload.scheduler.grow_sequence",
                       seq=True, ok=True)
    for policy in (policies.FCFSPolicy, policies.WFQPolicy,
                   policies.PriorityAgingPolicy):
        tracer.wrap_method(policy, "select", "workload.policies.select")
    tracer.wrap_method(streams.RequestStream, "pop", "workload.streams.pop")

    tracer.wrap_method(PipelineEngine, "run", "pipeline.engine.run")
    tracer.wrap_method(ServeAccumulator, "note_completed",
                       "results.note_completed", seq=True)

    tracer.wrap_function(protocol, "encode_message",
                         "serving.protocol.encode_message")
    tracer.wrap_function(protocol, "decode_message",
                         "serving.protocol.decode_message")
    tracer.wrap_method(feed.LiveArrivalFeed, "wait_ready",
                       "serving.feed.wait_ready")
    tracer.wrap_method(telemetry.TelemetryHub, "record_epoch",
                       "serving.telemetry.record_epoch")
    tracer.wrap_method(telemetry.TelemetryHub, "pop_events",
                       "serving.telemetry.pop_events")

    tracer.wrap_function(intercore, "map_model", "mapping.intercore.map_model")
    tracer.wrap_method(BaselineSystem, "serve", _baseline_serve_name)


class EngineCapture:
    """Keep every pipeline engine the simulator builds, for post-run checks.

    Wraps ``BuiltOuroboros.make_pipeline`` (called once per serve, so the
    cost is nil) in every run, traced or not: the engine's scheduler and KV
    manager are where the drain invariants and the program's own counters
    live.
    """

    def __init__(self) -> None:
        from repro.sim.engine import BuiltOuroboros

        self.engines: list[Any] = []
        original = BuiltOuroboros.make_pipeline

        def make_pipeline(built):
            engine = original(built)
            self.engines.append(engine)
            return engine

        BuiltOuroboros.make_pipeline = make_pipeline

    def counters(self) -> dict[str, float]:
        """Program-side counters summed over every captured engine."""
        totals = {
            "kvcache.manager.quota_rejections": 0,
            "kvcache.manager.quota_blocked_growths": 0,
            "kvcache.manager.peak_used_share": 0.0,
            "workload.scheduler.preemptions": 0,
            "workload.scheduler.evictions": 0,
            "workload.scheduler.recomputed_tokens": 0,
            "pipeline.engine.epochs": 0,
        }
        for engine in self.engines:
            kv, stats = engine.kv_manager, engine.scheduler.stats
            totals["kvcache.manager.quota_rejections"] += kv.stats.quota_rejections
            totals["kvcache.manager.quota_blocked_growths"] += (
                kv.stats.quota_blocked_growths
            )
            totals["kvcache.manager.peak_used_share"] = max(
                totals["kvcache.manager.peak_used_share"],
                kv.stats.peak_used_blocks / max(1, kv.total_blocks),
            )
            totals["workload.scheduler.preemptions"] += stats.preemptions
            totals["workload.scheduler.evictions"] += stats.evictions
            totals["workload.scheduler.recomputed_tokens"] += stats.recomputed_tokens
            totals["pipeline.engine.epochs"] += engine.epoch_count
        return totals

    def drain_failures(self) -> list[str]:
        """Invariant breaches of every captured engine after its run drained."""
        failures = []
        for index, engine in enumerate(self.engines):
            scheduler = engine.scheduler
            if engine.kv_manager.used_blocks != 0:
                failures.append(
                    f"engine {index}: {engine.kv_manager.used_blocks} KV blocks "
                    "still used at drain"
                )
            if scheduler.num_active or len(scheduler.waiting):
                failures.append(
                    f"engine {index}: {scheduler.num_active} active and "
                    f"{len(scheduler.waiting)} waiting sequences at drain"
                )
        return failures

#!/usr/bin/env python3
"""Fault-tolerance study: inject core failures and observe the recovery.

Builds an Ouroboros deployment of LLaMA-13B through the fluent spec API and
draws a series of weight-core / KV-core failures.  Each failure is first
replayed on a standalone fault-tolerance manager to report the recovery:
for weight-core failures the replacement-chain remapping (chain length,
reclaimed KV core, recovery latency); for KV-core failures the set of
sequences needing recomputation.  The same failures are then injected at
t=0 into a serving run through ``DeploymentSpec.faults``, and the script
compares throughput before and after them: the degradation is bounded by
the lost KV capacity and the recomputation, not by a remap of the whole
wafer.  The script asserts that the degraded run is slower than the
healthy one.

Run:  python examples/fault_tolerance_study.py [num_failures]
"""

from __future__ import annotations

import dataclasses
import random
import sys

from repro import api, deployment
from repro.kvcache.manager import DistributedKVCacheManager
from repro.mapping.fault_tolerance import FaultToleranceManager
from repro.sim.faults import FaultEvent, FaultPlan
from repro.workload.requests import Request, Sequence


def main(num_failures: int = 6) -> None:
    spec = (
        deployment("llama-13b")
        .anneal(20)
        .workload("lp128_ld2048", num_requests=60)
        .build()
    )
    built = api.build_deployment(spec).built
    mapping = built.mappings[0]
    wafer = built.wafers[0]
    print(f"Deployment: {built.num_weight_cores} weight cores, "
          f"{built.num_kv_cores} KV cores on {wafer.num_healthy_cores} healthy cores\n")

    model = api.resolve_model(spec.model)
    kv_manager = DistributedKVCacheManager(model, mapping.kv_core_ids, threshold=0.1)
    # Put a few sequences in the cache so KV-core failures have victims.
    for seq_id in range(8):
        sequence = Sequence(Request(request_id=seq_id, prefill_length=512, decode_length=128))
        sequence.start()
        kv_manager.try_admit(sequence)
        kv_manager.append_tokens(sequence, 512)

    # Alternate weight-core and KV-core failures, all at t=0.  A fault
    # event's target is an index into the currently healthy cores of its
    # kind, which is how the runtime injector resolves it.
    rng = random.Random(0)
    events = tuple(
        FaultEvent(time_s=0.0, kind="weight_core" if i % 2 == 0 else "kv_core",
                   target=rng.randrange(1 << 16))
        for i in range(num_failures)
    )

    ft = FaultToleranceManager(wafer, mapping, kv_manager=kv_manager)
    print(f"Injecting {num_failures} runtime core failures:")
    for event in events:
        if event.kind == "weight_core":
            healthy = sorted(ft.weight_cores)
        else:
            failed = kv_manager.failed_cores
            healthy = [c for c in kv_manager.kv_core_ids if c not in failed]
        core = healthy[event.target % len(healthy)]
        result = ft.fail_core(core)
        kind = "weight" if event.kind == "weight_core" else "kv"
        print(f"  core {core:>5} ({kind:>6}): chain length {result.chain_length}, "
              f"reclaimed KV core {result.reclaimed_kv_core}, "
              f"{len(result.affected_sequences)} sequences to recompute, "
              f"recovery {result.recovery_latency_s * 1e6:.1f} us")

    print("\nServing impact (same trace before/after failures):")
    healthy_result = api.serve(spec)
    degraded_result = api.serve(dataclasses.replace(spec, faults=FaultPlan(events)))
    healthy_tps = healthy_result.throughput_tokens_per_s
    degraded_tps = degraded_result.throughput_tokens_per_s
    faults = degraded_result.faults
    print(f"  before failures: {healthy_tps:,.0f} tokens/s")
    print(f"  after  failures: {degraded_tps:,.0f} tokens/s "
          f"({degraded_tps / healthy_tps:.1%} of healthy; "
          f"{faults.recovered_sequences} sequences recomputed)")
    assert degraded_tps < healthy_tps, "core failures did not degrade throughput"


if __name__ == "__main__":
    failures = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    main(failures)

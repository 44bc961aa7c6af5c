"""Fig. 25 -- goodput under runtime faults, with and without overload shedding.

This figure (beyond the paper) stresses the fault-tolerance story end to end:
the two-tenant mix of the SLO-goodput figure is served at increasing offered
load while a deterministic :class:`~repro.sim.faults.FaultPlan` fails cores,
destroys KV blocks and freezes admission mid-run.  Every load point runs twice
-- once with the admission queue shedding nothing (every request waits out its
blown deadline in the queue) and once with deadline-aware early rejection
enabled -- so the figure reads off what graceful degradation buys: past
saturation the shedding run stops burning wafer time on requests that can no
longer meet their TTFT deadline, and its aggregate SLO goodput stays strictly
above the non-shedding run's.

The sweep is anchored exactly like Fig. 23: a closed-batch run of the mix
defines the service rate the load fractions scale, and the lightest swept
load (served fault-free) defines the per-tenant SLOs plus the shedding
headroom -- requests are dropped once their remaining TTFT budget falls below
a fraction of the *tightest* tenant deadline, i.e. once even an immediate
admission could not save them.  Fault event times are spread across each
run's arrival span, so the same plan stresses every load point at the same
relative phase of the run.

Only Ouroboros is swept: the analytic baselines have no runtime to break.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..perf.sweep import SweepRunner
from ..results import FaultStats, RunResult
from ..sim.faults import FaultPlan, make_fault_plan
from ..workload.generator import TenantSpec
from ..workload.requests import SLOTarget
from .common import DEFAULT_SETTINGS, OUROBOROS_NAME, ExperimentSettings, FigureResult
from .fig23_slo_goodput import anchor, default_tenants, with_default_cap

#: offered load as a fraction of the closed-batch service rate; the last
#: fraction is well past saturation, which is where shedding earns its keep
DEFAULT_LOAD_FRACTIONS = (0.5, 1.0, 4.0)

#: fault events injected per run (0 = the fault-free control); expressed as a
#: count rather than a rate so the same sweep stresses every load point
#: equally -- the rate is count / arrival-span, which shrinks as load grows
DEFAULT_FAULT_COUNTS = (0, 4)

#: event mix the plans cycle through: transient KV loss, an admission freeze,
#: a permanent KV-core failure and a weight-core replacement chain
DEFAULT_FAULT_KINDS = ("kv_block", "stall", "kv_core", "weight_core")

#: shedding headroom as a fraction of the tightest tenant TTFT deadline: a
#: request is dropped once its remaining TTFT budget falls below this slack
#: (roughly the service time of one admission at light load).  Must stay
#: below 1.0 or interactive requests would be shed on arrival.
DEFAULT_HEADROOM_FRACTION = 0.4

#: injected stall length as a fraction of the tightest tenant TTFT deadline
DEFAULT_STALL_FRACTION = 0.5


@dataclass
class FaultRecoveryResult(FigureResult):
    model: str = ""
    #: per-tenant SLOs the goodput numbers are evaluated against
    tenant_slos: dict[str, SLOTarget] = field(default_factory=dict)
    #: combined closed-batch request service rate (requests/s) of the mix
    base_rate_per_s: float = 0.0
    #: deadline slack the shedding variants reject against
    shed_headroom_s: float = 0.0
    #: RunResult per (fault_count, load_fraction, shed) sweep point
    results: dict[tuple[int, float, bool], RunResult] = field(default_factory=dict)

    def headline(self) -> dict[str, float]:
        """Deterministic headline metrics at the harshest sweep point.

        Read at the highest fault count and highest load: aggregate SLO
        goodput and TTFT p95 with and without shedding, plus the fault
        accounting of the shedding run.  These are the numbers the benchmark
        trajectory asserts on.
        """
        if not self.results:
            return {}
        fault_count = max(key[0] for key in self.results)
        load = max(key[1] for key in self.results)
        shed = self.results[(fault_count, load, True)]
        no_shed = self.results[(fault_count, load, False)]
        faults = shed.faults if shed.faults is not None else FaultStats()
        return {
            "fault_goodput_shed": shed.goodput or 0.0,
            "fault_goodput_no_shed": no_shed.goodput or 0.0,
            "fault_ttft_p95_shed_s": shed.ttft.p95_s,
            "fault_ttft_p95_no_shed_s": no_shed.ttft.p95_s,
            "fault_shed_requests": float(shed.shed_requests),
            "fault_injected": float(faults.injected),
            "fault_recovered_sequences": float(faults.recovered_sequences),
            "fault_recompute_tokens": float(faults.recompute_tokens),
        }


def run(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    model: str = "llama-13b",
    tenants: tuple[TenantSpec, ...] | None = None,
    load_fractions: tuple[float, ...] = DEFAULT_LOAD_FRACTIONS,
    fault_counts: tuple[int, ...] = DEFAULT_FAULT_COUNTS,
    runner: SweepRunner | None = None,
) -> FaultRecoveryResult:
    """Sweep fault count x offered load, with and without overload shedding."""
    runner = runner or SweepRunner()
    settings = with_default_cap(settings)
    tenants = tenants if tenants is not None else default_tenants(settings.num_requests)
    # Anchored exactly like Fig. 23 (the lightest load served fault-free), so
    # the anchor cells are shared between the two figures.
    load = anchor(settings, model, tenants, min(load_fractions), runner)
    slos = load.slos
    tightest_ttft = min(target.ttft_s for target in slos.values())
    headroom_s = DEFAULT_HEADROOM_FRACTION * tightest_ttft

    def fault_plan(count: int, fraction: float) -> FaultPlan | None:
        if count <= 0:
            return None
        # Spread the events across the run's arrival span so every load point
        # is stressed at the same relative phase.
        horizon_s = load.num_requests / (fraction * load.base_rate_per_s)
        return make_fault_plan(
            count / horizon_s,
            horizon_s,
            kinds=DEFAULT_FAULT_KINDS,
            stall_duration_s=DEFAULT_STALL_FRACTION * tightest_ttft,
            seed=settings.seed,
        )

    points = [
        (count, fraction, shed)
        for count in fault_counts
        for fraction in load_fractions
        for shed in (False, True)
    ]
    variants = [
        replace(
            settings,
            tenants=load.tenants_at(fraction),
            faults=fault_plan(count, fraction),
            shed_deadline=shed,
            shed_headroom_s=headroom_s if shed else 0.0,
        )
        for count, fraction, shed in points
    ]
    sweep = runner.run_variants(load.cell, variants)

    slo_text = " ".join(
        f"{name}:ttft<={target.ttft_s:.3f}s,latency<={target.latency_s:.3f}s"
        for name, target in slos.items()
    )
    result = FaultRecoveryResult(
        figure="Fig. 25",
        description=(
            f"Fault recovery and overload shedding on {model} "
            f"({'+'.join(t.name for t in load.tenants)}; load relative to the "
            f"closed-batch rate, {load.base_rate_per_s:.1f} req/s; faults cycle "
            f"{'/'.join(DEFAULT_FAULT_KINDS)}; shed headroom "
            f"{headroom_s * 1e3:.2f} ms; {slo_text})"
        ),
        model=model,
        tenant_slos=slos,
        base_rate_per_s=load.base_rate_per_s,
        shed_headroom_s=headroom_s,
    )
    for (count, fraction, shed), cell_results in zip(points, sweep):
        run_result = cell_results[OUROBOROS_NAME]
        result.results[(count, fraction, shed)] = run_result
        faults = run_result.faults if run_result.faults is not None else FaultStats()
        result.rows_data.append(
            {
                "faults": count,
                "load": fraction,
                "shed": shed,
                "goodput": run_result.goodput,
                "ttft_p95_s": run_result.ttft.p95_s,
                "shed_requests": run_result.shed_requests,
                "injected": faults.injected,
                "recovered_sequences": faults.recovered_sequences,
                "recompute_tokens": faults.recompute_tokens,
                "stall_time_s": faults.stall_time_s,
                "recovery_latency_s": faults.recovery_latency_s,
            }
        )
    return result

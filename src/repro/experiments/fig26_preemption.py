"""Fig. 26 -- preemptive scheduling and the recompute tax it pays.

PR 10's scheduler can *preempt*: when the batch cap or the KV cache is full
and a higher-ranked request arrives, the policy may evict an active
lower-ranked sequence (dropping its KV blocks), re-queue it with its tenant
and priority preserved, and admit the arrival in its place.  The evicted
sequence recomputes its prefill when it is re-admitted, so preemption trades
batch-tenant recompute work for interactive-tenant TTFT tail.

This figure measures both sides of that trade.  The fig24 two-tenant mix is
re-served at the saturated 4x load under ``wfq`` and ``priority`` admission,
co-sweeping the continuous-batching cap (``max_active_sequences``) with the
``preemptive`` knob off and on.  Offered loads and per-tenant SLOs come from
the same FCFS closed-batch anchor construction as fig23/fig24, so the
preemptive numbers are directly comparable against fig24's non-preemptive
headline: the interactive tenant's TTFT p95 under preemptive wfq must land
*below* the fig24 wfq anchor at the same load, and the recompute tax shows up
as the batch tenant's preemption and recomputed-token counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..perf.sweep import SweepRunner
from ..workload.generator import TenantSpec
from ..workload.policies import validate_policy_name
from ..workload.requests import SLOTarget
from . import fig23_slo_goodput as fig23
from . import fig24_policy_comparison as fig24
from .common import DEFAULT_SETTINGS, ExperimentSettings, FigureResult

#: swept preemption-capable policies (fcfs never nominates a victim, so it is
#: only run as the anchor that defines loads and SLOs)
DEFAULT_POLICIES = ("wfq", "priority")

#: swept continuous-batching caps; the first is the fig23/fig24 default and
#: carries the headline comparison against fig24's wfq anchor
DEFAULT_MAX_ACTIVE_CAPS = (8, 16)

#: swept loads: the lightest fraction anchors the per-tenant SLOs exactly as
#: in fig23/fig24, the heaviest (past saturation) is where the headline is
#: read -- preemption only matters when admission actually contends
DEFAULT_LOAD_FRACTIONS = (0.25, 4.0)


@dataclass
class PreemptionResult(FigureResult):
    model: str = ""
    #: load fraction the headline numbers are read at
    headline_load: float = 0.0
    #: per-tenant SLOs shared by every swept cell (FCFS anchor)
    tenant_slos: dict[str, SLOTarget] = field(default_factory=dict)
    #: closed-batch service rate shared by every swept cell (FCFS anchor)
    base_rate_per_s: float = 0.0
    #: full sweep result per (policy, max_active, preemptive) cell
    results: dict[tuple[str, int, bool], fig23.SLOGoodputResult] = field(
        default_factory=dict
    )
    #: headline metrics: preemptive wfq at the first swept cap and heaviest
    #: load, with the non-preemptive run of the same cell as the baseline
    headline: dict[str, float] = field(default_factory=dict)


def run(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    model: str = "llama-13b",
    tenants: tuple[TenantSpec, ...] | None = None,
    load_fractions: tuple[float, ...] = DEFAULT_LOAD_FRACTIONS,
    policies: tuple[str, ...] = DEFAULT_POLICIES,
    max_active_caps: tuple[int, ...] = DEFAULT_MAX_ACTIVE_CAPS,
    runner: SweepRunner | None = None,
) -> PreemptionResult:
    """Co-sweep policy x batch cap x preemption at the saturated load."""
    runner = runner or SweepRunner()
    policies = tuple(validate_policy_name(policy) for policy in policies)
    tenants = (
        tenants
        if tenants is not None
        else fig24.default_policy_tenants(settings.num_requests)
    )
    anchor_cap = max_active_caps[0]

    # The FCFS anchor (non-preemptive, first swept cap) defines the offered
    # loads and per-tenant SLOs exactly as fig24 does, so the preemptive
    # numbers below are judged against the same deadlines as fig24's rows.
    fcfs = replace(
        settings,
        scheduling_policy="fcfs",
        max_active_sequences=anchor_cap,
        preemptive=False,
    )
    load = fig23.anchor(fcfs, model, tenants, min(load_fractions), runner)
    sweeps = {
        (policy, cap, preemptive): fig23.sweep(
            load,
            replace(
                settings,
                scheduling_policy=policy,
                max_active_sequences=cap,
                preemptive=preemptive,
            ),
            load_fractions,
            runner,
        )
        for policy in policies
        for cap in max_active_caps
        for preemptive in (False, True)
    }

    headline_load = max(load_fractions)
    result = PreemptionResult(
        figure="Fig. 26",
        description=(
            f"Preemptive scheduling on {model} "
            f"({'+'.join(t.name for t in tenants)}; policies "
            f"{'/'.join(policies)} x caps "
            f"{'/'.join(str(c) for c in max_active_caps)} x preempt off/on; "
            f"loads and SLOs from the FCFS anchor, headline at "
            f"{headline_load:g}x the closed-batch rate, "
            f"{load.base_rate_per_s:.1f} req/s)"
        ),
        model=model,
        headline_load=headline_load,
        tenant_slos=load.slos,
        base_rate_per_s=load.base_rate_per_s,
        results=sweeps,
    )
    interactive_name = tenants[0].name
    batch_name = tenants[-1].name
    for (policy, cap, preemptive), sweep in sweeps.items():
        for fraction in load_fractions:
            run_result = sweep.results[fraction]
            interactive = run_result.tenants[interactive_name]
            batch = run_result.tenants[batch_name]
            result.rows_data.append(
                {
                    "policy": policy,
                    "max_active": cap,
                    "preemptive": preemptive,
                    "load": fraction,
                    "goodput": run_result.goodput,
                    "interactive_ttft_p95_s": interactive.ttft.p95_s,
                    "interactive_goodput": interactive.goodput,
                    "batch_goodput": batch.goodput,
                    "preemptions": interactive.preemptions + batch.preemptions,
                    "recomputed_tokens": interactive.recomputed_tokens
                    + batch.recomputed_tokens,
                }
            )

    # Headline: preemptive wfq at the anchor cap versus its own
    # non-preemptive twin (same policy, cap, loads, SLOs), read past
    # saturation -- the apples-to-apples cut preemption buys, plus the
    # recompute tax it pays for it.
    headline_policy = "wfq" if "wfq" in policies else policies[0]
    on = sweeps[(headline_policy, anchor_cap, True)].results[headline_load]
    off = sweeps[(headline_policy, anchor_cap, False)].results[headline_load]
    result.headline = {
        "interactive_ttft_p95_s": on.tenants[interactive_name].ttft.p95_s,
        "baseline_interactive_ttft_p95_s": off.tenants[interactive_name].ttft.p95_s,
        "goodput": float(on.goodput or 0.0),
        "baseline_goodput": float(off.goodput or 0.0),
        "preemptions": float(
            on.tenants[interactive_name].preemptions
            + on.tenants[batch_name].preemptions
        ),
        "recomputed_tokens": float(
            on.tenants[interactive_name].recomputed_tokens
            + on.tenants[batch_name].recomputed_tokens
        ),
    }
    return result

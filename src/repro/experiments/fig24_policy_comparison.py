"""Fig. 24 -- per-tenant scheduling policies under the multi-tenant SLO sweep.

PR 4's fig23 made head-of-line blocking *measurable*: under FCFS admission, a
long batch request at the queue head starves the interactive tenant even when
the wafer has capacity for the interactive request.  This figure makes it
*tunable*: the fig23 multi-tenant SLO sweep is re-run under all three
admission policies of the scheduler --

* ``fcfs``      -- the paper's arrival-order queue (the fig23 baseline),
* ``wfq``       -- weighted fair queueing over tenants (token-cost fairness;
  the interactive tenant's small requests stop waiting behind the batch
  tenant's 4k-token requests),
* ``priority``  -- strict priority admission for the interactive tenant with
  starvation-free aging (the batch tenant ages back in within
  ``gap / aging_rate`` seconds, so it is delayed, not starved)

-- and reports, per policy and offered load, the interactive tenant's TTFT
p95 and the aggregate SLO goodput.  All three policies are swept at
*identical* offered loads and judged against *identical* per-tenant SLOs: the
closed-batch service rate and the light-load SLO deadlines are derived once,
from the FCFS anchor, and passed into the wfq/priority sweeps verbatim.  The
headline comparison is read at the heaviest swept load (past saturation):
at and below the closed-batch rate the waiting queue is almost always short
and every policy degenerates to the same admission order, while past it the
queue is persistent and head-of-line blocking dominates the interactive
tenant's TTFT tail.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..perf.sweep import SweepRunner
from ..workload.generator import TenantSpec
from ..workload.policies import POLICY_NAMES, validate_policy_name
from ..workload.requests import SLOTarget
from . import fig23_slo_goodput as fig23
from .common import DEFAULT_SETTINGS, ExperimentSettings, FigureResult

#: swept policies, in table order (fcfs first: it is the anchor)
DEFAULT_POLICIES = ("fcfs", "wfq", "priority")

#: WFQ share of the interactive tenant (the batch tenant keeps weight 1.0);
#: together with token-cost fairness this stops 4k-token batch requests from
#: head-of-line-blocking the interactive stream
INTERACTIVE_WEIGHT = 2.0

#: static priority of the interactive tenant under the ``priority`` policy
#: (the batch tenant stays at 0 and ages back in)
INTERACTIVE_PRIORITY = 1


def default_policy_tenants(num_requests: int) -> tuple[TenantSpec, ...]:
    """The fig23 two-tenant mix with policy knobs set on the tenants.

    The interactive tenant carries the WFQ weight and the static priority;
    both fields are inert under ``fcfs``, so the FCFS anchor sweep serves the
    exact fig23 trace.
    """
    interactive, batch = fig23.default_tenants(num_requests)
    return (
        replace(
            interactive, weight=INTERACTIVE_WEIGHT, priority=INTERACTIVE_PRIORITY
        ),
        batch,
    )


@dataclass
class PolicyComparisonResult(FigureResult):
    model: str = ""
    #: load fraction the headline per-policy numbers are read at
    headline_load: float = 0.0
    #: per-tenant SLOs shared by every policy (derived from the FCFS anchor)
    tenant_slos: dict[str, SLOTarget] = field(default_factory=dict)
    #: closed-batch service rate shared by every policy (FCFS anchor)
    base_rate_per_s: float = 0.0
    #: full fig23 sweep result per policy
    results: dict[str, fig23.SLOGoodputResult] = field(default_factory=dict)
    #: per policy: headline metrics at ``headline_load``
    headline: dict[str, dict[str, float]] = field(default_factory=dict)


def run(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    model: str = "llama-13b",
    tenants: tuple[TenantSpec, ...] | None = None,
    load_fractions: tuple[float, ...] = fig23.DEFAULT_LOAD_FRACTIONS,
    policies: tuple[str, ...] = DEFAULT_POLICIES,
    runner: SweepRunner | None = None,
) -> PolicyComparisonResult:
    """Re-run the fig23 SLO sweep under every scheduling policy."""
    runner = runner or SweepRunner()
    policies = tuple(validate_policy_name(policy) for policy in policies)
    if "fcfs" not in policies:
        policies = ("fcfs",) + policies  # the baseline the others are read against
    tenants = (
        tenants if tenants is not None else default_policy_tenants(settings.num_requests)
    )

    # One FCFS anchor defines the offered loads and the per-tenant SLOs that
    # every policy, FCFS included, is judged against.
    fcfs = replace(settings, scheduling_policy="fcfs")
    load = fig23.anchor(fcfs, model, tenants, min(load_fractions), runner)
    sweeps = {
        policy: fig23.sweep(
            load, replace(settings, scheduling_policy=policy), load_fractions, runner
        )
        for policy in policies
    }

    # Admission order only matters when requests actually queue: at and
    # below the closed-batch rate the waiting queue is almost always short
    # and every policy degenerates to the same order.  The headline is
    # therefore read at the heaviest swept load (past saturation), where
    # head-of-line blocking dominates the interactive tenant's TTFT tail.
    headline_load = max(load_fractions)
    result = PolicyComparisonResult(
        figure="Fig. 24",
        description=(
            f"Scheduling-policy comparison on {model} "
            f"({'+'.join(t.name for t in tenants)}; policies "
            f"{'/'.join(policies)}; identical loads and SLOs from the FCFS "
            f"anchor, headline at {headline_load:g}x the closed-batch rate, "
            f"{load.base_rate_per_s:.1f} req/s)"
        ),
        model=model,
        headline_load=headline_load,
        tenant_slos=load.slos,
        base_rate_per_s=load.base_rate_per_s,
        results=sweeps,
    )
    # The first tenant is the latency-sensitive one whose TTFT tail the
    # policies are judged on (named "interactive" in the default mix).
    interactive_name = tenants[0].name
    batch_name = tenants[-1].name
    for policy in policies:
        sweep = sweeps[policy]
        for fraction in load_fractions:
            run_result = sweep.results[fraction]
            interactive = run_result.tenants[interactive_name]
            row = {
                "policy": policy,
                "load": fraction,
                "goodput": run_result.goodput,
                "interactive_ttft_p95_s": interactive.ttft.p95_s,
                "interactive_goodput": interactive.goodput,
                "batch_goodput": run_result.tenants[batch_name].goodput,
                "max_load_meeting_slo": sweep.max_load_meeting_slo(),
            }
            result.rows_data.append(row)
            if fraction == headline_load:
                result.headline[policy] = {
                    "goodput": float(run_result.goodput or 0.0),
                    "interactive_ttft_p95_s": interactive.ttft.p95_s,
                    "interactive_goodput": float(interactive.goodput or 0.0),
                }
    return result

"""Fig. 23 -- multi-tenant SLO goodput versus offered load.

This figure answers the capacity-planning question the paper's wafer-scale
design motivates but its closed-batch evaluation cannot: *how much offered
load can one deployment carry while still honouring a latency SLO, per
tenant?*  Two tenants with different request mixes share one wafer -- an
interactive tenant (WikiText-like prompts and outputs, latency-sensitive) and
a batch tenant (long fixed prefill/decode, throughput-oriented) -- and the
sweep serves the interleaved trace at increasing offered load, expressed as
fractions of the measured closed-batch service rate of the same mix.  Each
tenant's arrival rate scales with its share of the request mix, so a load
fraction of 1.0 offers exactly the combined rate the wafer sustains closed
batch.

*Goodput* is the fraction of requests meeting the per-request SLO deadlines
(see :class:`~repro.workload.requests.SLOTarget`); the figure's headline
number is the maximum swept load at which every tenant's goodput still
reaches the SLO's ``goodput_target``.  Sub-epoch admission (epochs split at
arrival boundaries) is what makes the low-load end of the curve meaningful:
without it, TTFT at light load would be dominated by the epoch quantisation
rather than by the actual queueing behaviour.

Only Ouroboros is swept (the analytic baselines have no notion of arrival
times); cells run through :class:`repro.perf.SweepRunner`, so the load
variants fan out across a process pool and reuse the on-disk result cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..perf.sweep import SweepCell, SweepRunner
from ..results import RunResult
from ..workload.generator import TenantSpec
from ..workload.requests import SLOTarget
from .common import DEFAULT_SETTINGS, OUROBOROS_NAME, ExperimentSettings, FigureResult

#: offered load as a fraction of the closed-batch service rate, in plot order
DEFAULT_LOAD_FRACTIONS = (0.25, 0.5, 1.0, 2.0, 4.0)

#: multipliers deriving each tenant's default SLO from *its own* latency at
#: the lightest swept load: deadline = factor x the tenant's light-load p95
#: (the serving-systems convention of "SLO scale x unloaded latency", taken
#: at a tail percentile because heavy-tailed request lengths give even an
#: unloaded system a wide latency spread a median-scaled deadline cannot
#: cover).  Below saturation the percentiles sit within a small factor of
#: the unloaded tail; past saturation the queueing delay grows without bound
#: and pushes them beyond any fixed deadline -- which is exactly the crossing
#: the max-load-meeting-SLO metric reads off.  Deriving per tenant keeps the
#: deadlines meaningful for mixes whose intrinsic service times differ by
#: orders of magnitude (interactive vs. long-context batch).
DEFAULT_TTFT_FACTOR = 2.0
DEFAULT_LATENCY_FACTOR = 2.0
DEFAULT_GOODPUT_TARGET = 0.95

#: continuous-batching limit the figure serves under.  Unbounded concurrency
#: lets the wafer swallow any offered load as one ever-growing batch (the KV
#: cache fits hundreds of sequences), which flattens the goodput curve into
#: the closed-batch value; capping the batch like a real deployment makes
#: offered load saturate at a realistic operating point, so the curve bends.
DEFAULT_MAX_ACTIVE = 8


def default_tenants(num_requests: int) -> tuple[TenantSpec, ...]:
    """The figure's two-tenant mix, scaled to a total of ``num_requests``.

    Two thirds of the requests belong to the interactive tenant, one third to
    the batch tenant; rates are attached per swept load fraction by
    :meth:`LoadAnchor.tenants_at`.
    """
    interactive = max(1, (2 * num_requests) // 3)
    batch = max(1, num_requests - interactive)
    return (
        TenantSpec(name="interactive", workload="wikitext2", num_requests=interactive),
        TenantSpec(name="batch", workload="lp2048_ld2048", num_requests=batch),
    )


@dataclass
class SLOGoodputResult(FigureResult):
    model: str = ""
    #: per-tenant SLOs the goodput numbers are evaluated against
    tenant_slos: dict[str, SLOTarget] = field(default_factory=dict)
    #: combined closed-batch request service rate (requests/s) of the mix
    base_rate_per_s: float = 0.0
    #: RunResult per swept load fraction, in sweep order
    results: dict[float, RunResult] = field(default_factory=dict)
    #: per tenant: the largest swept load fraction whose goodput still
    #: reached the SLO target (0.0 when no swept load met it)
    max_load: dict[str, float] = field(default_factory=dict)

    def max_load_meeting_slo(self) -> float:
        """Largest swept load at which *every* tenant met the SLO target."""
        if not self.max_load:
            return 0.0
        return min(self.max_load.values())


@dataclass(frozen=True)
class LoadAnchor:
    """The closed-batch service rate and per-tenant SLOs fig23-26 read every
    swept load against: measured once by :func:`anchor`, served by
    :func:`sweep`."""

    model: str
    #: the closed mix (every arrival rate 0) with each tenant's SLO attached
    tenants: tuple[TenantSpec, ...]
    #: combined closed-batch request service rate (requests/s) of the mix
    base_rate_per_s: float

    @property
    def cell(self) -> SweepCell:
        return SweepCell(model=self.model, workload="wikitext2", systems=())

    @property
    def num_requests(self) -> int:
        return sum(tenant.num_requests for tenant in self.tenants)

    @property
    def slos(self) -> dict[str, SLOTarget]:
        return {
            tenant.name: tenant.slo for tenant in self.tenants if tenant.slo is not None
        }

    def rate(self, fraction: float, tenant: TenantSpec) -> float:
        """``tenant``'s arrival rate at ``fraction`` of the closed-batch rate:
        each tenant's rate scales with its share of the request mix."""
        share = tenant.num_requests / self.num_requests
        return fraction * self.base_rate_per_s * share

    def tenants_at(self, fraction: float) -> tuple[TenantSpec, ...]:
        return tuple(
            replace(tenant, arrival_rate_per_s=self.rate(fraction, tenant))
            for tenant in self.tenants
        )


def with_default_cap(settings: ExperimentSettings) -> ExperimentSettings:
    """``settings`` capped at :data:`DEFAULT_MAX_ACTIVE` unless it sets a cap."""
    if settings.max_active_sequences is None:
        return replace(settings, max_active_sequences=DEFAULT_MAX_ACTIVE)
    return settings


def anchor(
    settings: ExperimentSettings,
    model: str,
    tenants: tuple[TenantSpec, ...],
    light_fraction: float,
    runner: SweepRunner,
) -> LoadAnchor:
    """Measure the closed-batch rate and attach per-tenant SLOs to ``tenants``."""
    settings = with_default_cap(settings)
    closed = tuple(replace(tenant, arrival_rate_per_s=0.0) for tenant in tenants)
    load = LoadAnchor(model=model, tenants=closed, base_rate_per_s=0.0)

    # Anchor 1: the closed-batch run of the same mix defines the service rate
    # the load fractions are scaled by.  With every arrival at t=0 it also
    # regression-anchors the multi-tenant path to closed batch.
    batch_settings = replace(settings, tenants=closed, slo=None, arrival_rate_per_s=0.0)
    batch = runner.run_variants(load.cell, [batch_settings])[0][OUROBOROS_NAME]
    load = replace(load, base_rate_per_s=load.num_requests / batch.total_time_s)

    # Anchor 2: the light load, served without an SLO, defines each tenant's
    # *unloaded* latency scale (at light load a request faces little
    # queueing, so its latency is close to intrinsic service time).  Skipped
    # when every tenant already carries an SLO, which it keeps.
    if all(tenant.slo is not None for tenant in closed):
        return load
    light = runner.run_variants(
        load.cell, [replace(settings, tenants=load.tenants_at(light_fraction))]
    )[0][OUROBOROS_NAME]

    def tenant_slo(tenant: TenantSpec) -> SLOTarget:
        if tenant.slo is not None:
            return tenant.slo
        unloaded = light.tenants[tenant.name]
        return SLOTarget(
            ttft_s=max(DEFAULT_TTFT_FACTOR * unloaded.ttft.p95_s, 1e-9),
            latency_s=max(DEFAULT_LATENCY_FACTOR * unloaded.latency.p95_s, 1e-9),
            goodput_target=DEFAULT_GOODPUT_TARGET,
        )

    slo_tenants = tuple(replace(tenant, slo=tenant_slo(tenant)) for tenant in closed)
    return replace(load, tenants=slo_tenants)


def sweep(
    load: LoadAnchor,
    settings: ExperimentSettings,
    load_fractions: tuple[float, ...],
    runner: SweepRunner,
) -> SLOGoodputResult:
    """Serve ``settings`` at each load fraction of ``load`` and read goodput."""
    settings = with_default_cap(settings)
    variants = [
        replace(settings, tenants=load.tenants_at(fraction))
        for fraction in load_fractions
    ]
    cells = runner.run_variants(load.cell, variants)

    slos = load.slos
    slo_text = " ".join(
        f"{name}:ttft<={target.ttft_s:.3f}s,latency<={target.latency_s:.3f}s"
        for name, target in slos.items()
    )
    result = SLOGoodputResult(
        figure="Fig. 23",
        description=(
            f"Multi-tenant SLO goodput on {load.model} "
            f"({'+'.join(t.name for t in load.tenants)}; load relative to the "
            f"closed-batch rate, {load.base_rate_per_s:.1f} req/s; {slo_text} @ "
            f"goodput {next(iter(slos.values())).goodput_target:.0%})"
        ),
        model=load.model,
        tenant_slos=slos,
        base_rate_per_s=load.base_rate_per_s,
    )
    for fraction, cell_results in zip(load_fractions, cells):
        run_result = cell_results[OUROBOROS_NAME]
        result.results[fraction] = run_result
        for tenant in load.tenants:
            stats = run_result.tenants[tenant.name]
            target = slos[tenant.name]
            met = stats.goodput is not None and stats.goodput >= target.goodput_target
            if met:
                current = result.max_load.get(tenant.name, 0.0)
                result.max_load[tenant.name] = max(current, fraction)
            else:
                result.max_load.setdefault(tenant.name, 0.0)
            result.rows_data.append(
                {
                    "load": fraction,
                    "tenant": tenant.name,
                    "arrival_rate_req_s": load.rate(fraction, tenant),
                    "goodput": stats.goodput,
                    "meets_slo": met,
                    "ttft_p99_s": stats.ttft.p99_s,
                    "latency_p99_s": stats.latency.p99_s,
                }
            )
    return result


def run(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    model: str = "llama-13b",
    tenants: tuple[TenantSpec, ...] | None = None,
    load_fractions: tuple[float, ...] = DEFAULT_LOAD_FRACTIONS,
    runner: SweepRunner | None = None,
) -> SLOGoodputResult:
    """Sweep per-tenant offered load against a TTFT / end-to-end SLO."""
    runner = runner or SweepRunner()
    tenants = tenants if tenants is not None else default_tenants(settings.num_requests)
    load = anchor(settings, model, tenants, min(load_fractions), runner)
    return sweep(load, settings, load_fractions, runner)

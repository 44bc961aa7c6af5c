"""Shared infrastructure for the per-figure experiment drivers.

Every experiment module exposes a ``run(settings)`` function that returns a
result object with a ``rows()`` method (list of dictionaries, one per plotted
bar/point) and a ``format_table()`` helper for human-readable output.  The
drivers are deliberately deterministic: the same settings produce the same
numbers, so the benchmark harness can assert on the qualitative shape of each
figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .. import api
from ..api import DeploymentSpec, comparison_grid_keys, get_system
from ..errors import ConfigurationError
from ..models.architectures import ModelArch
from ..pipeline.engine import PipelineConfig
from ..results import RunResult
from ..sim.engine import OuroborosSystemConfig
from ..sim.faults import FaultPlan
from ..workload.generator import TenantSpec
from ..workload.requests import SLOTarget

#: workloads of the main evaluation figures, in plotting order
PAPER_WORKLOAD_ORDER = ("wikitext2", "lp128_ld2048", "lp2048_ld128", "lp2048_ld2048")

#: decoder-only models of Fig. 13/14, in plotting order
DECODER_MODELS = ("llama-13b", "baichuan-13b", "llama-32b", "qwen-32b")

#: encoder-containing models of Fig. 16
ENCODER_MODELS = ("bert-large", "t5-11b")

OUROBOROS_NAME = "Ours"


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs shared by all experiment drivers.

    The defaults are sized so the full figure suite runs in minutes on a
    laptop; pass ``num_requests=1000`` to match the paper's trace size exactly.
    """

    num_requests: int = 200
    seed: int = 0
    chunk_tokens: int = 256
    anneal_iterations: int = 50
    kv_threshold: float = 0.1
    model_defects: bool = True
    #: mean Poisson request arrival rate in requests/s (0 = closed batch);
    #: nonzero rates serve the trace open-loop and populate the TTFT /
    #: end-to-end latency fields of RunResult
    arrival_rate_per_s: float = 0.0
    #: multi-tenant serving: per-tenant workloads and arrival processes
    #: (empty = the single-tenant workload named by the figure driver)
    tenants: tuple[TenantSpec, ...] = ()
    #: per-request SLO the run's goodput is evaluated against (optional)
    slo: SLOTarget | None = None
    #: continuous-batching limit (None = bounded only by KV capacity)
    max_active_sequences: int | None = None
    #: admission-order policy of the scheduler (fcfs / wfq / priority)
    scheduling_policy: str = "fcfs"
    #: priority units gained per second of waiting (priority policy only)
    priority_aging_rate: float = 1.0
    #: deterministic runtime fault plan injected while serving (None = no
    #: faults; Ouroboros only)
    faults: FaultPlan | None = None
    #: admission-queue bound for overload shedding (None = unbounded)
    max_queue_depth: int | None = None
    #: shed waiting requests whose TTFT deadline can no longer be met
    shed_deadline: bool = False
    #: service-time slack reserved by deadline shedding (see PipelineConfig)
    shed_headroom_s: float = 0.0
    #: retry-with-backoff budget before a shed becomes permanent
    shed_retries: int = 0
    #: base backoff delay for shed retries (doubles per retry)
    shed_backoff_s: float = 0.0
    #: let the scheduling policy preempt active lower-ranked sequences
    preemptive: bool = False

    def pipeline_config(self) -> PipelineConfig:
        return PipelineConfig(
            chunk_tokens=self.chunk_tokens,
            max_active_sequences=self.max_active_sequences,
            scheduling_policy=self.scheduling_policy,
            priority_aging_rate=self.priority_aging_rate,
            max_queue_depth=self.max_queue_depth,
            shed_deadline=self.shed_deadline,
            shed_headroom_s=self.shed_headroom_s,
            shed_retries=self.shed_retries,
            shed_backoff_s=self.shed_backoff_s,
            preemptive=self.preemptive,
        )

    def system_config(self, **overrides) -> OuroborosSystemConfig:
        config = replace(
            OuroborosSystemConfig(),
            anneal_iterations=self.anneal_iterations,
            kv_threshold=self.kv_threshold,
            model_defects=self.model_defects,
            pipeline=self.pipeline_config(),
        )
        if overrides:
            config = replace(config, **overrides)
        return config

    def deployment(
        self,
        model: ModelArch | str,
        workload: str,
        system: str = "ouroboros",
        *,
        workload_label: str | None = None,
        options: dict | None = None,
        config: OuroborosSystemConfig | None = None,
        **config_overrides,
    ) -> DeploymentSpec:
        """Build the :class:`DeploymentSpec` these settings describe."""
        return DeploymentSpec(
            model=api.resolve_model_name(model),
            system=get_system(system).key,
            config=config if config is not None else self.system_config(**config_overrides),
            options=dict(options or {}),
            workload=workload,
            workload_label=workload_label,
            num_requests=self.num_requests,
            seed=self.seed,
            arrival_rate_per_s=self.arrival_rate_per_s,
            tenants=self.tenants,
            slo=self.slo,
            faults=self.faults,
        )


DEFAULT_SETTINGS = ExperimentSettings()


# ---------------------------------------------------------------------------
# Running systems
# ---------------------------------------------------------------------------


def run_grid(
    models: tuple[str, ...],
    workloads: tuple[str, ...],
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    runner=None,
) -> dict[tuple[str, str], dict[str, RunResult]]:
    """Run a model x workload grid through the parallel :class:`SweepRunner`.

    Cells fan out across a process pool on multi-core machines and can be
    served from the on-disk result cache (``REPRO_RESULT_CACHE_DIR``); on a
    single core the runner reuses one built system per model, exactly like
    the historical serial loop.
    """
    from ..perf.sweep import SweepRunner

    runner = runner or SweepRunner()
    return runner.run_grid(tuple(models), tuple(workloads), settings)


def cell_deployments(
    model: ModelArch | str,
    workload: str,
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    systems: tuple[str, ...] | None = None,
) -> list[DeploymentSpec]:
    """The specs one comparison cell serves: the baselines, then Ouroboros.

    ``systems`` restricts the baseline set by key or display name (Ouroboros
    always runs); ``()`` means Ouroboros only, e.g. for the open-loop arrival
    sweep, where the analytic baselines have no notion of arrival times.
    """
    specs: list[DeploymentSpec] = []
    for key in comparison_grid_keys():
        entry = get_system(key)
        if systems is not None and not {entry.key, entry.display_name} & set(systems):
            continue
        specs.append(settings.deployment(model, workload, system=key))
    specs.append(settings.deployment(model, workload))
    return specs


def run_all_systems(
    model: ModelArch | str,
    workload: str,
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    systems: tuple[str, ...] | None = None,
) -> dict[str, RunResult]:
    """Run every baseline plus Ouroboros on one (model, workload) cell.

    Every system is constructed and served through the unified
    :func:`repro.api.serve` entry point.  Specs are validated loudly first
    (e.g. a nonzero arrival rate with closed-batch baselines raises the typed
    :class:`ConfigurationError` instead of being swallowed); only *capacity*
    failures while building -- a baseline that cannot deploy the model at all
    -- are omitted, mirroring the missing bars of the paper's figures.
    """
    specs = cell_deployments(model, workload, settings, systems=systems)
    for spec in specs:
        spec.validate()
    results: dict[str, RunResult] = {}
    for spec in specs:
        display = get_system(spec.system).display_name
        try:
            results[display] = api.serve(spec)
        except ConfigurationError:
            continue
    return results


# ---------------------------------------------------------------------------
# Normalisation and tabulation
# ---------------------------------------------------------------------------


def normalized_throughput(
    results: dict[str, RunResult], reference: str = "DGX A100"
) -> dict[str, float]:
    """Throughput of every system normalised to ``reference`` (Fig. 13 style)."""
    base = results[reference].throughput_tokens_per_s
    if base <= 0:
        raise ConfigurationError(f"reference system {reference} produced no tokens")
    return {
        name: result.throughput_tokens_per_s / base for name, result in results.items()
    }


def normalized_energy(
    results: dict[str, RunResult], reference: str = "DGX A100"
) -> dict[str, float]:
    """Energy per output token normalised to ``reference`` (Fig. 14 style)."""
    base = results[reference].energy_per_output_token_j
    if base <= 0:
        raise ConfigurationError(f"reference system {reference} consumed no energy")
    return {
        name: result.energy_per_output_token_j / base for name, result in results.items()
    }


@dataclass
class FigureResult:
    """Generic container for one regenerated figure."""

    figure: str
    description: str
    rows_data: list[dict] = field(default_factory=list)

    def rows(self) -> list[dict]:
        return list(self.rows_data)

    def format_table(self) -> str:
        if not self.rows_data:
            return f"{self.figure}: (no data)"
        columns = list(self.rows_data[0].keys())
        widths = {
            column: max(len(str(column)), *(len(_fmt(row.get(column))) for row in self.rows_data))
            for column in columns
        }
        header = " | ".join(str(column).ljust(widths[column]) for column in columns)
        separator = "-+-".join("-" * widths[column] for column in columns)
        lines = [f"{self.figure}: {self.description}", header, separator]
        for row in self.rows_data:
            lines.append(
                " | ".join(_fmt(row.get(column)).ljust(widths[column]) for column in columns)
            )
        return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def geometric_mean(values: list[float]) -> float:
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= max(value, 1e-12)
    return product ** (1.0 / len(values))

"""Unified serving API: one spec, one registry, one entry point.

Everything the repository can serve a trace on -- the Ouroboros wafer-scale
system and every analytical baseline -- implements the :class:`ServingSystem`
protocol and is addressable by a string key in :data:`SYSTEM_REGISTRY`,
mirroring :data:`repro.models.architectures.MODEL_REGISTRY`.  A run is fully
described by a frozen, serializable :class:`DeploymentSpec` (model + system +
system knobs + workload), and :func:`serve` is the single entry point the CLI,
the experiment drivers, the :class:`~repro.perf.sweep.SweepRunner` and the
benchmark harness all call::

    from repro.api import deployment, serve

    spec = (deployment("llama-13b")
            .system("ouroboros")
            .kv(policy="dynamic", threshold=0.1)
            .pipeline("token")
            .workload("wikitext2", num_requests=200)
            .build())
    result = serve(spec)

    spec.to_dict()                                 # JSON-ready
    DeploymentSpec.from_dict(spec.to_dict())       # == spec

New backends (e.g. a LUT-in-DRAM baseline) plug in through
:func:`register_system` and immediately become usable from the CLI, the sweep
runner and the figure drivers without touching any of them.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import re
import threading
import types
import typing
from dataclasses import dataclass, field, replace
from typing import Callable, Protocol, runtime_checkable

from .baselines.cerebras import CerebrasWSE2System
from .baselines.cim_cores import ISSCC22, VLSI22, CIMCoreSystem
from .baselines.common import BaselineConfig, BaselineSystem
from .baselines.gpu import DGXA100System
from .baselines.tpu import TPUv4System
from .core.system import OuroborosSystem
from .errors import ConfigurationError
from .models.architectures import MODEL_REGISTRY, ModelArch, generic_llm, get_model
from .pipeline.checkpoint import EngineCheckpoint
from .results import RunResult
from .sim.engine import (
    KVPolicy,
    MappingStrategy,
    OuroborosSystemConfig,
    PipelineMode,
)
from .sim.faults import FaultPlan, make_fault_plan
from .workload.distributions import get_distribution
from .workload.generator import (
    TenantSpec,
    Trace,
    generate_multi_tenant_trace,
    generate_trace,
)
from .workload.streams import StreamingTrace, multi_tenant_stream, workload_stream
from .workload.policies import POLICY_NAMES, validate_policy_name
from .workload.requests import SLOTarget

# Deferred import: repro.baselines.attacc imports nothing from here, but keep
# the import list alphabetised with the others above.
from .baselines.attacc import AttAccSystem  # noqa: E402  (grouped with peers)


# ---------------------------------------------------------------------------
# The ServingSystem protocol
# ---------------------------------------------------------------------------


@runtime_checkable
class ServingSystem(Protocol):
    """Anything that can serve a request trace and describe itself.

    Implemented by :class:`~repro.core.system.OuroborosSystem` (and its
    underlying :class:`~repro.sim.engine.BuiltOuroboros`) and by every
    :class:`~repro.baselines.common.BaselineSystem` subclass.
    """

    @property
    def name(self) -> str: ...

    def serve(self, trace: Trace, workload_name: str | None = None) -> RunResult: ...

    def summary(self) -> dict: ...


# ---------------------------------------------------------------------------
# System registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemEntry:
    """One registered serving system.

    ``factory`` builds a fresh :class:`ServingSystem` for a model; ``spec``
    carries the knobs (``spec.config`` for Ouroboros-family systems,
    ``spec.baseline`` plus ``spec.options`` for the analytical baselines).
    """

    key: str
    #: label used in result tables and the Fig. 13/14 comparison grids
    display_name: str
    factory: Callable[[ModelArch, "DeploymentSpec"], ServingSystem]
    #: part of the paper's main Fig. 13/14/16/19 baseline comparison
    in_comparison_grid: bool = False
    #: implementing class (for introspection / registry-completeness tests)
    system_cls: type | None = None

    @property
    def simulated(self) -> bool:
        """Whether the system has a simulated runtime (Ouroboros family).

        Only a simulated runtime honours per-request arrival times, runtime
        faults, checkpoint/resume, streaming traces and live (daemon)
        serving; the analytical baselines consume a whole closed batch.
        """
        return self.system_cls is not None and issubclass(
            self.system_cls, OuroborosSystem
        )


SYSTEM_REGISTRY: dict[str, SystemEntry] = {}


def register_system(entry: SystemEntry) -> SystemEntry:
    """Register a serving system under its key (and display name)."""
    if entry.key != entry.key.lower():
        raise ConfigurationError(f"system key {entry.key!r} must be lowercase")
    SYSTEM_REGISTRY[entry.key] = entry
    return entry


def get_system(name: str) -> SystemEntry:
    """Look up a registered system by key or display name (case-insensitive)."""
    key = name.lower()
    if key in SYSTEM_REGISTRY:
        return SYSTEM_REGISTRY[key]
    for entry in SYSTEM_REGISTRY.values():
        if entry.display_name.lower() == key:
            return entry
    raise ConfigurationError(
        f"unknown system '{name}'; known systems: {sorted(SYSTEM_REGISTRY)}"
    )


def comparison_grid_keys() -> tuple[str, ...]:
    """Registry keys of the paper's baseline comparison, in plotting order."""
    return tuple(
        entry.key for entry in SYSTEM_REGISTRY.values() if entry.in_comparison_grid
    )


register_system(SystemEntry(
    key="ouroboros",
    display_name="Ours",
    factory=lambda arch, spec: OuroborosSystem(
        arch, spec.config, auto_scale_wafers=spec.auto_scale_wafers
    ),
    system_cls=OuroborosSystem,
))
register_system(SystemEntry(
    key="dgx-a100",
    display_name="DGX A100",
    factory=lambda arch, spec: DGXA100System(
        arch, num_gpus=int(spec.options.get("num_gpus", 8)), config=spec.baseline
    ),
    in_comparison_grid=True,
    system_cls=DGXA100System,
))
register_system(SystemEntry(
    key="tpu-v4",
    display_name="TPUv4",
    factory=lambda arch, spec: TPUv4System(
        arch, num_devices=int(spec.options.get("num_devices", 8)), config=spec.baseline
    ),
    in_comparison_grid=True,
    system_cls=TPUv4System,
))
register_system(SystemEntry(
    key="attacc",
    display_name="AttAcc",
    factory=lambda arch, spec: AttAccSystem(arch, config=spec.baseline),
    in_comparison_grid=True,
    system_cls=AttAccSystem,
))
register_system(SystemEntry(
    key="cerebras-wse2",
    display_name="Cerebras",
    factory=lambda arch, spec: CerebrasWSE2System(
        arch,
        config=spec.baseline,
        num_wafers=spec.options.get("num_wafers"),
    ),
    in_comparison_grid=True,
    system_cls=CerebrasWSE2System,
))
register_system(SystemEntry(
    key="cim-vlsi22",
    display_name="VLSI'22",
    factory=lambda arch, spec: CIMCoreSystem(arch, VLSI22, config=spec.baseline),
    system_cls=CIMCoreSystem,
))
register_system(SystemEntry(
    key="cim-isscc22",
    display_name="ISSCC'22",
    factory=lambda arch, spec: CIMCoreSystem(arch, ISSCC22, config=spec.baseline),
    system_cls=CIMCoreSystem,
))


# ---------------------------------------------------------------------------
# Model resolution
# ---------------------------------------------------------------------------

_GENERIC_MODEL = re.compile(r"^generic-([0-9]+(?:\.[0-9]+)?)b$")


def resolve_model(model: ModelArch | str) -> ModelArch:
    """Resolve a model name (registry key or ``generic-<N>b``) to its arch."""
    if isinstance(model, ModelArch):
        return model
    key = model.lower()
    if key in MODEL_REGISTRY:
        return MODEL_REGISTRY[key]()
    match = _GENERIC_MODEL.match(key)
    if match:
        return generic_llm(float(match.group(1)))
    raise ConfigurationError(
        f"unknown model '{model}'; known models: {sorted(MODEL_REGISTRY)} "
        "(or 'generic-<billions>b', e.g. 'generic-19.5b')"
    )


def resolve_model_name(model: ModelArch | str) -> str:
    """Canonical spec string for a model (inverse of :func:`resolve_model`)."""
    if isinstance(model, str):
        resolve_model(model)  # validate
        return model.lower()
    name = model.name.lower()
    resolve_model(name)  # raises if the arch is not registry-addressable
    return name


# ---------------------------------------------------------------------------
# Dataclass <-> dict serialization helpers
# ---------------------------------------------------------------------------


def _to_jsonable(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _to_jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {key: _to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(item) for item in value]
    return value


def _from_jsonable(tp, data):
    origin = typing.get_origin(tp)
    if origin is typing.Union or origin is types.UnionType:
        if data is None:
            return None
        for arg in typing.get_args(tp):
            if arg is not type(None):
                return _from_jsonable(arg, data)
    if origin in (tuple, list) and isinstance(data, (list, tuple)):
        args = typing.get_args(tp)
        # Homogeneous containers only: tuple[X, ...] or list[X].
        item_tp = args[0] if args else None
        items = [
            _from_jsonable(item_tp, item) if item_tp is not None else item
            for item in data
        ]
        return tuple(items) if origin is tuple else items
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return tp(data)
    if dataclasses.is_dataclass(tp) and isinstance(data, dict):
        hints = typing.get_type_hints(tp)
        kwargs = {
            f.name: _from_jsonable(hints[f.name], data[f.name])
            for f in dataclasses.fields(tp)
            if f.init and f.name in data
        }
        return tp(**kwargs)
    if tp is float and data is not None:
        return float(data)
    return data


# ---------------------------------------------------------------------------
# DeploymentSpec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeploymentSpec:
    """A complete, serializable description of one serving run.

    The spec is the single source of defaults for the whole stack: the model,
    the system (a :data:`SYSTEM_REGISTRY` key), every system knob
    (:class:`OuroborosSystemConfig` for the Ouroboros family,
    :class:`BaselineConfig` plus ``options`` for the analytical baselines) and
    the workload (name, request count, seed, Poisson arrival rate).

    ``DeploymentSpec.from_dict(spec.to_dict()) == spec`` holds for every spec,
    which is what makes specs usable as sweep-cache keys and as on-disk run
    descriptions.
    """

    model: str
    system: str = "ouroboros"
    #: knobs of the Ouroboros family (ignored by the analytical baselines)
    config: OuroborosSystemConfig = field(default_factory=OuroborosSystemConfig)
    #: knobs of the analytical baselines (ignored by Ouroboros)
    baseline: BaselineConfig = field(default_factory=BaselineConfig)
    #: per-system structural options (e.g. ``{"num_gpus": 4}`` for dgx-a100)
    options: dict = field(default_factory=dict)
    #: workload name: one of the paper's settings, ``lp<P>_ld<D>``, or
    #: ``wikitext2_ldm<float>`` (decode-heavy WikiText variant)
    workload: str = "wikitext2"
    #: label recorded in ``RunResult.workload`` (defaults to ``workload``)
    workload_label: str | None = None
    num_requests: int = 200
    seed: int = 0
    #: mean Poisson arrival rate in requests/s (0 = closed batch)
    arrival_rate_per_s: float = 0.0
    #: multi-tenant serving: per-tenant workloads and arrival processes.  When
    #: non-empty, the trace is the arrival-ordered interleave of the tenants'
    #: streams (seeded by ``seed``); ``workload`` and ``num_requests`` then
    #: describe nothing and are ignored by :func:`trace_for` — leave them at
    #: their defaults, since they still participate in spec equality and the
    #: sweep-cache key.  ``arrival_rate_per_s`` must stay 0: the rates live on
    #: the tenants (enforced below).
    tenants: tuple[TenantSpec, ...] = ()
    #: per-request SLO the run's goodput is evaluated against (optional)
    slo: SLOTarget | None = None
    #: deterministic runtime fault plan injected while serving (Ouroboros
    #: only; the analytical baselines have no runtime to break)
    faults: FaultPlan | None = None
    #: grow ``config.num_wafers`` to fit the model's weights (Ouroboros only)
    auto_scale_wafers: bool = True

    def __post_init__(self) -> None:
        resolve_model(self.model)
        get_system(self.system)
        get_distribution(self.workload)
        if self.num_requests <= 0:
            raise ConfigurationError("num_requests must be positive")
        if self.arrival_rate_per_s < 0:
            raise ConfigurationError("arrival_rate_per_s cannot be negative")
        if not isinstance(self.tenants, tuple):
            object.__setattr__(self, "tenants", tuple(self.tenants))
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"tenant names must be unique, got {names}")
        if self.tenants and self.arrival_rate_per_s > 0:
            raise ConfigurationError(
                "a multi-tenant spec carries its arrival rates on the tenants; "
                "leave arrival_rate_per_s at 0"
            )

    # ------------------------------------------------------------- validation

    def validate(self) -> "DeploymentSpec":
        """Cross-field validation beyond what ``__post_init__`` can check.

        Raises a typed :class:`ConfigurationError` for open-loop arrival rates
        on systems that ignore arrival times (the analytical baselines), so
        callers get one error path instead of ad-hoc CLI rejections.
        """
        entry = get_system(self.system)
        open_loop = self.arrival_rate_per_s > 0 or any(
            tenant.arrival_rate_per_s > 0 for tenant in self.tenants
        )
        if open_loop and not entry.simulated:
            raise ConfigurationError(
                f"{entry.display_name} is an analytic closed-batch comparison "
                "model and ignores request arrival times; an open-loop "
                "'speedup' would be a load artifact. Drop the arrival rate or "
                "pick a system that supports open-loop serving."
            )
        if self.faults is not None and len(self.faults) and not entry.simulated:
            raise ConfigurationError(
                f"{entry.display_name} is an analytical comparison model with "
                "no simulated runtime to inject faults into; fault plans "
                "require an Ouroboros-family system."
            )
        quota_total = sum(
            tenant.kv_quota for tenant in self.tenants if tenant.kv_quota is not None
        )
        if quota_total > 1.0:
            raise ConfigurationError(
                "tenant kv_quota fractions reserve more than the whole KV "
                f"cache (sum = {quota_total:g} > 1.0); shrink the quotas"
            )
        return self

    # ---------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        """JSON-ready dict; ``from_dict`` round-trips it to an equal spec."""
        return _to_jsonable(self)

    @classmethod
    def from_dict(cls, data: dict) -> "DeploymentSpec":
        return _from_jsonable(cls, dict(data))

    def canonical_json(self) -> str:
        """Stable JSON string of the spec (sweep-cache key material)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    # ---------------------------------------------------------- conveniences

    def with_system(self, system: str) -> "DeploymentSpec":
        return replace(self, system=system)

    def label(self) -> str:
        if self.workload_label:
            return self.workload_label
        if self.tenants:
            return "+".join(tenant.name for tenant in self.tenants)
        return self.workload


# ---------------------------------------------------------------------------
# Fluent builder
# ---------------------------------------------------------------------------

_PIPELINE_ALIASES = {
    "token": PipelineMode.TOKEN_GRAINED,
    "tgp": PipelineMode.TOKEN_GRAINED,
    "sequence": PipelineMode.SEQUENCE_GRAINED,
    "blocked": PipelineMode.BLOCKED,
    "auto": PipelineMode.AUTO,
}


class DeploymentBuilder:
    """Fluent construction of a :class:`DeploymentSpec`.

    Every method returns the builder, so paper configurations read in one
    line::

        deployment("llama-13b").system("ouroboros").wafers(2) \\
            .kv(policy="dynamic", threshold=0.1).pipeline("token") \\
            .arrival_rate(8.0).build()
    """

    def __init__(self, model: ModelArch | str) -> None:
        self._spec = DeploymentSpec(model=resolve_model_name(model))

    # ------------------------------------------------------------ system side

    def system(self, name: str) -> "DeploymentBuilder":
        self._spec = self._spec.with_system(get_system(name).key)
        return self

    def config(self, config: OuroborosSystemConfig) -> "DeploymentBuilder":
        self._spec = replace(self._spec, config=config)
        return self

    def _config(self, **overrides) -> "DeploymentBuilder":
        self._spec = replace(self._spec, config=replace(self._spec.config, **overrides))
        return self

    def wafers(self, count: int, auto_scale: bool = True) -> "DeploymentBuilder":
        self._spec = replace(self._spec, auto_scale_wafers=auto_scale)
        return self._config(num_wafers=count)

    def kv(self, policy: str | KVPolicy | None = None,
           threshold: float | None = None) -> "DeploymentBuilder":
        overrides = {}
        if policy is not None:
            overrides["kv_policy"] = (
                policy if isinstance(policy, KVPolicy) else KVPolicy(policy)
            )
        if threshold is not None:
            overrides["kv_threshold"] = threshold
        return self._config(**overrides)

    def pipeline(self, mode: str | PipelineMode) -> "DeploymentBuilder":
        if isinstance(mode, str):
            if mode.lower() not in _PIPELINE_ALIASES:
                raise ConfigurationError(
                    f"unknown pipeline mode '{mode}'; "
                    f"known: {sorted(_PIPELINE_ALIASES)}"
                )
            mode = _PIPELINE_ALIASES[mode.lower()]
        return self._config(pipeline_mode=mode)

    def mapping(self, strategy: str | MappingStrategy) -> "DeploymentBuilder":
        if isinstance(strategy, str):
            strategy = MappingStrategy(strategy)
        return self._config(mapping_strategy=strategy)

    def anneal(self, iterations: int) -> "DeploymentBuilder":
        return self._config(anneal_iterations=iterations)

    def chunk(self, tokens: int | None = None, *,
              context_quantum: int | None = None) -> "DeploymentBuilder":
        """Set the epoch chunk size and/or the context-quantisation step."""
        overrides: dict = {}
        if tokens is not None:
            overrides["chunk_tokens"] = tokens
        if context_quantum is not None:
            overrides["context_quantum"] = context_quantum
        pipeline = replace(self._spec.config.pipeline, **overrides)
        return self._config(pipeline=pipeline)

    def epoch_limit(self, max_epochs: int) -> "DeploymentBuilder":
        """Bound the engine's epoch loop (the runaway-simulation guard)."""
        pipeline = replace(self._spec.config.pipeline, max_epochs=max_epochs)
        return self._config(pipeline=pipeline)

    def concurrency(self, max_sequences: int | None) -> "DeploymentBuilder":
        """Cap concurrently resident sequences (continuous-batching limit)."""
        pipeline = replace(
            self._spec.config.pipeline, max_active_sequences=max_sequences
        )
        return self._config(pipeline=pipeline)

    def scheduler(
        self, policy: str, aging_rate: float | None = None
    ) -> "DeploymentBuilder":
        """Select the admission-order policy (``fcfs`` / ``wfq`` / ``priority``).

        ``aging_rate`` parameterises the ``priority`` policy (priority units a
        waiting request gains per second; bounds starvation)::

            deployment("llama-13b").scheduler("wfq") \\
                .tenant("chat", "wikitext2", 200, 8.0, weight=2.0) \\
                .tenant("batch", "lp2048_ld2048", 50, 1.0).build()
        """
        overrides: dict = {"scheduling_policy": validate_policy_name(policy)}
        if aging_rate is not None:
            overrides["priority_aging_rate"] = aging_rate
        pipeline = replace(self._spec.config.pipeline, **overrides)
        return self._config(pipeline=pipeline)

    def defects(self, enabled: bool = True, seed: int | None = 0) -> "DeploymentBuilder":
        return self._config(model_defects=enabled, defect_seed=seed)

    def cim(self, enabled: bool = True) -> "DeploymentBuilder":
        return self._config(cim_enabled=enabled)

    def lut(self, enabled: bool = True) -> "DeploymentBuilder":
        return self._config(lut_optimized=enabled)

    def baseline(self, **overrides) -> "DeploymentBuilder":
        self._spec = replace(
            self._spec, baseline=replace(self._spec.baseline, **overrides)
        )
        return self

    def options(self, **options) -> "DeploymentBuilder":
        merged = dict(self._spec.options)
        merged.update(options)
        self._spec = replace(self._spec, options=merged)
        return self

    # ---------------------------------------------------------- workload side

    def workload(self, name: str, num_requests: int | None = None,
                 seed: int | None = None, label: str | None = None) -> "DeploymentBuilder":
        self._spec = replace(
            self._spec,
            workload=name,
            workload_label=label if label is not None else self._spec.workload_label,
            num_requests=num_requests if num_requests is not None else self._spec.num_requests,
            seed=seed if seed is not None else self._spec.seed,
        )
        return self

    def requests(self, count: int) -> "DeploymentBuilder":
        self._spec = replace(self._spec, num_requests=count)
        return self

    def seed(self, seed: int) -> "DeploymentBuilder":
        self._spec = replace(self._spec, seed=seed)
        return self

    def arrival_rate(self, rate_per_s: float) -> "DeploymentBuilder":
        self._spec = replace(self._spec, arrival_rate_per_s=rate_per_s)
        return self

    def tenants(self, *tenants: TenantSpec) -> "DeploymentBuilder":
        """Replace the spec's tenant set (multi-tenant serving)."""
        self._spec = replace(self._spec, tenants=tuple(tenants))
        return self

    def tenant(
        self,
        name: str,
        workload: str,
        num_requests: int = 100,
        arrival_rate_per_s: float = 0.0,
        slo: SLOTarget | None = None,
        weight: float = 1.0,
        priority: int = 0,
        kv_quota: float | None = None,
    ) -> "DeploymentBuilder":
        """Append one tenant, so multi-tenant specs read as a fluent chain::

            deployment("llama-13b").tenant("chat", "wikitext2", 200, 8.0) \\
                .tenant("batch", "lp2048_ld2048", 50).slo(ttft_s=0.5).build()

        A tenant-level ``slo`` overrides the deployment-wide :meth:`slo`
        target for that tenant's requests; ``weight`` and ``priority`` feed
        the ``wfq`` / ``priority`` scheduling policies (see
        :meth:`scheduler`) and are inert under the default ``fcfs``.
        ``kv_quota`` caps the tenant to that fraction of the KV cache's
        blocks (:meth:`build` rejects quota sets reserving more than the
        whole cache); ``None`` leaves the tenant uncapped.
        """
        tenant = TenantSpec(
            name=name,
            workload=workload,
            num_requests=num_requests,
            arrival_rate_per_s=arrival_rate_per_s,
            slo=slo,
            weight=weight,
            priority=priority,
            kv_quota=kv_quota,
        )
        self._spec = replace(self._spec, tenants=self._spec.tenants + (tenant,))
        return self

    def faults(self, plan: FaultPlan | str | None) -> "DeploymentBuilder":
        """Attach a deterministic runtime fault plan (Ouroboros only).

        Accepts a ready :class:`~repro.sim.faults.FaultPlan` or the compact
        CLI syntax ``kind@time[:target[:duration]],...``::

            deployment("llama-13b").faults("kv_core@0.5,stall@1.0:0:0.25").build()
        """
        if isinstance(plan, str):
            plan = FaultPlan.parse(plan)
        self._spec = replace(self._spec, faults=plan)
        return self

    def shedding(
        self,
        max_queue_depth: int | None = None,
        deadline: bool = False,
        headroom_s: float = 0.0,
        retries: int = 0,
        backoff_s: float = 0.0,
    ) -> "DeploymentBuilder":
        """Configure graceful overload shedding of the admission queue.

        ``max_queue_depth`` bounds the arrived waiting queue (overflow is
        shed, with ``retries`` × exponential ``backoff_s`` before the drop
        becomes permanent); ``deadline`` drops requests whose remaining TTFT
        budget is below ``headroom_s`` — they could no longer meet their SLO
        even if admitted immediately.  All off by default (the historical
        unbounded queue, bit for bit).
        """
        pipeline = replace(
            self._spec.config.pipeline,
            max_queue_depth=max_queue_depth,
            shed_deadline=deadline,
            shed_headroom_s=headroom_s,
            shed_retries=retries,
            shed_backoff_s=backoff_s,
        )
        return self._config(pipeline=pipeline)

    def preemption(self, enabled: bool = True) -> "DeploymentBuilder":
        """Let the scheduling policy preempt active lower-ranked sequences.

        With preemption on, a high-ranked arrival that cannot be admitted —
        the batch cap or KV cache is full — may evict a strictly lower-ranked
        resident sequence (``wfq``: lower weight; ``priority``: lower static
        priority; ``fcfs`` never preempts), which re-queues with its prefix
        KV dropped and recomputes it on re-admission.  Off by default (the
        historical run-to-completion behaviour, bit for bit).
        """
        pipeline = replace(self._spec.config.pipeline, preemptive=enabled)
        return self._config(pipeline=pipeline)

    def slo(
        self,
        ttft_s: float | None = None,
        latency_s: float | None = None,
        goodput_target: float = 0.99,
    ) -> "DeploymentBuilder":
        """Attach the TTFT / end-to-end SLO the run's goodput is judged by."""
        self._spec = replace(
            self._spec,
            slo=SLOTarget(
                ttft_s=ttft_s, latency_s=latency_s, goodput_target=goodput_target
            ),
        )
        return self

    # ----------------------------------------------------------------- finish

    def build(self) -> DeploymentSpec:
        return self._spec.validate()

    spec = build


def deployment(model: ModelArch | str) -> DeploymentBuilder:
    """Start a fluent :class:`DeploymentBuilder` for ``model``."""
    return DeploymentBuilder(model)


# ---------------------------------------------------------------------------
# Named presets (the paper's figure configurations)
# ---------------------------------------------------------------------------


def _build_presets() -> dict[str, DeploymentSpec]:
    from .baselines.multi_die import ablation_config

    presets: dict[str, DeploymentSpec] = {
        # Headline / Fig. 13/14 anchor cell: paper-sized trace, default system.
        "headline": deployment("llama-13b").workload("wikitext2", num_requests=1000).build(),
        # Fig. 13/14 reference baseline of the comparison grids.
        "fig13-reference": deployment("llama-13b").system("dgx-a100")
            .workload("wikitext2", num_requests=1000).build(),
        # Fig. 15 ablation start and end points.
        "fig15-baseline": deployment("llama-13b").config(ablation_config("Baseline"))
            .workload("wikitext2", num_requests=1000).build(),
        "fig15-full": deployment("llama-13b").config(ablation_config("+KV Cache"))
            .workload("wikitext2", num_requests=1000).build(),
        # Fig. 16 encoder cell: blocked TGP on BERT's 384-token classification.
        "fig16-bert": deployment("bert-large").pipeline("blocked")
            .workload("lp384_ld1", num_requests=1000, label="encoder").build(),
        # Fig. 17 KV-threshold sweep anchor (decode-heavy WikiText variant).
        "fig17-kv": deployment("llama-13b").kv(policy="dynamic", threshold=0.1)
            .workload("wikitext2_ldm6.5", num_requests=1000).build(),
        # Fig. 19/20 multi-wafer cell: LLaMA-65B split across two wafers.
        "fig19-multiwafer": deployment("llama-65b").wafers(2)
            .workload("wikitext2", num_requests=1000).build(),
        # Fig. 21 LUT-optimised Ouroboros core.
        "fig21-lut": deployment("llama-13b").lut()
            .workload("wikitext2", num_requests=1000).build(),
        # Fig. 22 open-loop serving at a moderate offered load.
        "fig22-open-loop": deployment("llama-13b").arrival_rate(8.0)
            .workload("wikitext2", num_requests=1000).build(),
    }
    return presets


PRESETS: dict[str, DeploymentSpec] = _build_presets()


def preset(name: str) -> DeploymentSpec:
    """Look up a named paper-figure deployment preset."""
    if name not in PRESETS:
        raise ConfigurationError(
            f"unknown preset '{name}'; known presets: {sorted(PRESETS)}"
        )
    return PRESETS[name]


# ---------------------------------------------------------------------------
# Building and serving
# ---------------------------------------------------------------------------

#: built systems keyed by the system-relevant part of the spec; one build per
#: distinct (model, system, config) replaces the historical ad-hoc
#: build-once-per-model loops in the sweep runner and experiment drivers.
#: Bounded LRU: built Ouroboros systems hold wafers/mappings/defect maps, so
#: long multi-config sweeps must not accumulate them without limit.
_SYSTEM_CACHE: dict[str, ServingSystem] = {}
_SYSTEM_CACHE_MAX = 16
#: guards the memo dict: daemon fleets and threaded sweeps build concurrently,
#: and the pop/re-insert LRU dance is not atomic on its own
_SYSTEM_CACHE_LOCK = threading.Lock()


def _system_cache_key(spec: DeploymentSpec) -> str:
    payload = spec.to_dict()
    for workload_field in ("workload", "workload_label", "num_requests", "seed",
                           "arrival_rate_per_s", "faults"):
        payload.pop(workload_field, None)
    return json.dumps(payload, sort_keys=True)


def clear_system_cache() -> None:
    """Drop all memoised built systems (tests, memory-sensitive callers)."""
    with _SYSTEM_CACHE_LOCK:
        _SYSTEM_CACHE.clear()


def build_deployment(spec: DeploymentSpec, *, cache: bool = True) -> ServingSystem:
    """Construct (or fetch the memoised) :class:`ServingSystem` for a spec.

    Thread-safe: the memo is lock-guarded so concurrent daemons/sweep workers
    can build at once.  Two threads missing on the same key may both run the
    factory (builds stay parallel instead of serialising behind the lock);
    one of the two builds wins the memo slot, and both are valid systems —
    every serve creates a fresh pipeline, so sharing or not sharing the
    built system never changes results.
    """
    entry = get_system(spec.system)
    arch = resolve_model(spec.model)
    if not cache:
        return entry.factory(arch, spec)
    key = _system_cache_key(spec)
    with _SYSTEM_CACHE_LOCK:
        system = _SYSTEM_CACHE.pop(key, None)
        if system is not None:
            _SYSTEM_CACHE[key] = system  # re-insert = most recently used
            return system
    system = entry.factory(arch, spec)
    with _SYSTEM_CACHE_LOCK:
        existing = _SYSTEM_CACHE.pop(key, None)
        if existing is not None:
            system = existing  # a concurrent builder won; keep one canonical
        _SYSTEM_CACHE[key] = system
        while len(_SYSTEM_CACHE) > _SYSTEM_CACHE_MAX:
            _SYSTEM_CACHE.pop(next(iter(_SYSTEM_CACHE)))
    return system


def trace_for(spec: DeploymentSpec) -> Trace:
    """Generate the (deterministic) request trace a spec describes."""
    if spec.tenants:
        return generate_multi_tenant_trace(spec.tenants, seed=spec.seed, slo=spec.slo)
    trace = generate_trace(
        spec.workload,
        num_requests=spec.num_requests,
        seed=spec.seed,
        arrival_rate_per_s=spec.arrival_rate_per_s,
    )
    trace.slo = spec.slo
    return trace


def stream_for(spec: DeploymentSpec) -> StreamingTrace:
    """Lazy equivalent of :func:`trace_for` (identical requests, on demand).

    The stream emits exactly the requests :func:`trace_for` would materialise,
    in the same order with the same ids — ``stream_for(spec).materialize()``
    is bitwise equal to ``trace_for(spec)`` — while holding one pending
    request per tenant, which is what lets ``serve`` handle million-request
    specs in O(active sequences) memory.
    """
    if spec.tenants:
        return multi_tenant_stream(spec.tenants, seed=spec.seed, slo=spec.slo)
    stream = workload_stream(
        spec.workload,
        num_requests=spec.num_requests,
        seed=spec.seed,
        arrival_rate_per_s=spec.arrival_rate_per_s,
    )
    stream.slo = spec.slo
    return stream


#: request count at which :func:`serve` switches to the streaming trace path
#: automatically.  Purely an execution knob: the accumulator's exact/P²
#: switchover is by *sample count*, so results are identical either way —
#: streaming just bounds memory.
STREAMING_AUTO_THRESHOLD = 100_000


def total_spec_requests(spec: DeploymentSpec) -> int:
    """Total requests a spec's trace will contain (all tenants)."""
    if spec.tenants:
        return sum(tenant.num_requests for tenant in spec.tenants)
    return spec.num_requests


def serve(
    spec: DeploymentSpec,
    *,
    suspend_at_epoch: int | None = None,
    resume_from: EngineCheckpoint | None = None,
    streaming: bool | None = None,
) -> RunResult | EngineCheckpoint:
    """Serve the deployment described by ``spec`` and return its result.

    The one entry point behind the CLI, the experiment drivers, the sweep
    runner and the benchmark harness.  Building is memoised per (model,
    system, config); every serve generates a fresh trace and pipeline, so
    results are deterministic and independent of call order.

    ``spec.faults`` injects runtime faults during the run (Ouroboros only).
    ``suspend_at_epoch`` returns an :class:`EngineCheckpoint` once that epoch
    is reached instead of a result; ``resume_from`` continues a suspended run
    — the combined suspended+resumed run is bitwise identical to an
    uninterrupted ``serve(spec)``.

    ``streaming`` selects the lazy trace path (arrivals pulled from a
    heap-merged per-tenant stream as simulated time advances; O(active)
    resident memory instead of O(trace)).  ``None`` — the default — streams
    automatically once the spec's total request count reaches
    :data:`STREAMING_AUTO_THRESHOLD` on an Ouroboros-family system.  The
    result is identical either way; streaming only changes how the trace is
    held in memory.
    """
    spec.validate()
    entry = get_system(spec.system)
    system = build_deployment(spec)
    if streaming is None:
        streaming = (
            entry.simulated and total_spec_requests(spec) >= STREAMING_AUTO_THRESHOLD
        )
    elif streaming and not entry.simulated:
        raise ConfigurationError(
            f"{entry.display_name} is an analytical model "
            "that consumes the whole trace at once; streaming traces require "
            "an Ouroboros-family system."
        )
    kwargs: dict = {}
    if spec.faults is not None and len(spec.faults):
        kwargs["fault_plan"] = spec.faults
    if suspend_at_epoch is not None:
        kwargs["suspend_at_epoch"] = suspend_at_epoch
    if resume_from is not None:
        kwargs["resume_from"] = resume_from
    if kwargs and not entry.simulated:
        raise ConfigurationError(
            f"{entry.display_name} does not support fault "
            "injection or checkpoint/resume; use an Ouroboros-family system."
        )
    trace = stream_for(spec) if streaming else trace_for(spec)
    result = system.serve(trace, workload_name=spec.label(), **kwargs)
    if isinstance(result, EngineCheckpoint):
        return result
    result.system = entry.display_name
    return result


__all__ = [
    "ServingSystem",
    "SystemEntry",
    "SYSTEM_REGISTRY",
    "register_system",
    "get_system",
    "comparison_grid_keys",
    "DeploymentSpec",
    "DeploymentBuilder",
    "deployment",
    "TenantSpec",
    "SLOTarget",
    "FaultPlan",
    "make_fault_plan",
    "EngineCheckpoint",
    "POLICY_NAMES",
    "PRESETS",
    "preset",
    "resolve_model",
    "resolve_model_name",
    "build_deployment",
    "trace_for",
    "stream_for",
    "total_spec_requests",
    "STREAMING_AUTO_THRESHOLD",
    "serve",
    "clear_system_cache",
]

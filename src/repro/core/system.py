"""Public facade of the Ouroboros reproduction.

:class:`OuroborosSystem` is the Ouroboros entry of the system registry; most
callers reach it through :func:`repro.api.serve` or
:func:`repro.api.build_deployment`, or hold one directly::

    from repro import OuroborosSystem, get_model, generate_trace

    system = OuroborosSystem(get_model("llama-13b"))
    trace = generate_trace("wikitext2", num_requests=200)
    result = system.serve(trace)
    print(result.throughput_tokens_per_s, result.energy_per_output_token_j)

The facade only resolves the model, grows the wafer count to fit the weights
(``auto_scale_wafers``) and builds lazily: :attr:`OuroborosSystem.built` is
the :class:`~repro.sim.engine.BuiltOuroboros` that owns the wafers, mapping,
KV-cache sizing and the serve paths (batch and live).  Runtime faults go
through ``DeploymentSpec.faults``.
"""

from __future__ import annotations

from dataclasses import replace

from ..models.architectures import ModelArch, get_model
from ..results import RunResult
from ..sim.engine import (
    BuiltOuroboros,
    KVPolicy,
    MappingStrategy,
    OuroborosSystemConfig,
    PipelineMode,
    _build_system,
    required_wafers,
)
from ..workload.generator import Trace
from ..workload.streams import StreamingTrace


class OuroborosSystem:
    """A wafer-scale SRAM CIM deployment serving one model."""

    def __init__(
        self,
        model: ModelArch | str,
        config: OuroborosSystemConfig | None = None,
        auto_scale_wafers: bool = True,
    ) -> None:
        self.arch = get_model(model) if isinstance(model, str) else model
        config = config if config is not None else OuroborosSystemConfig()
        if auto_scale_wafers:
            needed = required_wafers(self.arch, config)
            if needed > config.num_wafers:
                config = replace(config, num_wafers=needed)
        self.config = config
        self._built: BuiltOuroboros | None = None

    # ------------------------------------------------------------------ build

    @property
    def name(self) -> str:
        """Display name (the ``ServingSystem`` protocol)."""
        return "Ouroboros"

    @property
    def built(self) -> BuiltOuroboros:
        """The underlying built system (constructed lazily on first use)."""
        if self._built is None:
            self._built = _build_system(self.arch, self.config)
        return self._built

    # ---------------------------------------------------------------- serving

    def serve(
        self,
        trace: Trace | StreamingTrace,
        workload_name: str | None = None,
        *,
        fault_plan=None,
        suspend_at_epoch: int | None = None,
        resume_from=None,
    ) -> RunResult:
        """Serve a request trace and return throughput / energy results.

        ``fault_plan`` injects runtime faults; ``suspend_at_epoch`` /
        ``resume_from`` checkpoint and resume the run (see
        :meth:`repro.sim.engine.BuiltOuroboros.serve`).
        """
        return self.built.serve(
            trace,
            workload_name,
            fault_plan=fault_plan,
            suspend_at_epoch=suspend_at_epoch,
            resume_from=resume_from,
        )

    # ------------------------------------------------------------ introspection

    def summary(self) -> dict[str, float]:
        """Key facts about the built deployment (core counts, KV capacity...)."""
        return self.built.summary()

    @property
    def num_wafers(self) -> int:
        return self.config.num_wafers


__all__ = [
    "OuroborosSystem",
    "OuroborosSystemConfig",
    "PipelineMode",
    "KVPolicy",
    "MappingStrategy",
]

"""End-to-end simulation: system builder and runtime fault injection."""

from .engine import (
    BuiltOuroboros,
    KVPolicy,
    MappingStrategy,
    OuroborosSystemConfig,
    PipelineMode,
    required_wafers,
)
from .faults import FaultEvent, FaultInjector, FaultPlan, make_fault_plan

__all__ = [
    "BuiltOuroboros",
    "OuroborosSystemConfig",
    "PipelineMode",
    "KVPolicy",
    "MappingStrategy",
    "required_wafers",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "make_fault_plan",
]

"""Baseline systems the paper compares Ouroboros against."""

from .attacc import AttAccSystem, attacc_hardware
from .cerebras import CerebrasWSE2System, wse2_hardware
from .cim_cores import (
    ALL_DESIGNS,
    ISSCC22,
    OUROBOROS_CORE,
    OUROBOROS_LUT_CORE,
    VLSI22,
    CIMCoreDesign,
    CIMCoreSystem,
    cim_core_hardware,
)
from .common import BaselineConfig, BaselineHardware, BaselineSystem
from .gpu import DGXA100System, dgx_a100_hardware
from .multi_die import ABLATION_STEPS, ablation_config
from .tpu import TPUv4System, tpu_v4_hardware

__all__ = [
    "BaselineSystem",
    "BaselineHardware",
    "BaselineConfig",
    "DGXA100System",
    "dgx_a100_hardware",
    "TPUv4System",
    "tpu_v4_hardware",
    "AttAccSystem",
    "attacc_hardware",
    "CerebrasWSE2System",
    "wse2_hardware",
    "CIMCoreDesign",
    "CIMCoreSystem",
    "cim_core_hardware",
    "VLSI22",
    "ISSCC22",
    "OUROBOROS_CORE",
    "OUROBOROS_LUT_CORE",
    "ALL_DESIGNS",
    "ABLATION_STEPS",
    "ablation_config",
]

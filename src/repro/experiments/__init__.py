"""Experiment drivers: one module per table/figure of the paper's evaluation.

===============  =====================================================
module           paper artifact
===============  =====================================================
fig01            Fig. 1  -- hardware scaling tax on GPUs
fig11            Fig. 11 -- throughput vs. row-activation ratio
fig13            Fig. 13 -- normalized throughput vs. baselines
fig14            Fig. 14 -- normalized energy per output token
fig15            Fig. 15 -- ablation (Wafer/CIM/TGP/Mapping/KV)
fig16            Fig. 16 -- encoder-based models
fig17            Fig. 17 -- KV-cache threshold sweep
fig18            Fig. 18 -- mapping transmission volume
fig19/20         Fig. 19/20 -- multi-wafer scaling (LLaMA-65B)
fig21            Table 2 / Fig. 21 -- CIM-core circuit designs
fig22            (beyond the paper) open-loop arrival-rate sweep
fig23            (beyond the paper) multi-tenant SLO goodput vs. load
fig24            (beyond the paper) scheduling-policy comparison (fcfs/wfq/priority)
fig25            (beyond the paper) fault recovery + overload shedding vs. load
fig26            (beyond the paper) preemptive scheduling + recompute tax
headline         abstract -- average/peak speedup and efficiency
===============  =====================================================

Every module exposes ``run(settings) -> FigureResult`` with ``rows()`` and
``format_table()``.
"""

from . import (
    fig01_scaling_tax,
    fig11_row_activation,
    fig13_throughput,
    fig14_energy,
    fig15_ablation,
    fig16_encoder,
    fig17_kv_threshold,
    fig18_mapping,
    fig19_20_multiwafer,
    fig21_cim_cores,
    fig22_arrival_sweep,
    fig23_slo_goodput,
    fig24_policy_comparison,
    fig25_fault_recovery,
    fig26_preemption,
    headline,
)
from .common import (
    DECODER_MODELS,
    DEFAULT_SETTINGS,
    ENCODER_MODELS,
    OUROBOROS_NAME,
    PAPER_WORKLOAD_ORDER,
    ExperimentSettings,
    FigureResult,
    cell_deployments,
    run_all_systems,
    run_grid,
)

ALL_EXPERIMENTS = {
    "fig01": fig01_scaling_tax,
    "fig11": fig11_row_activation,
    "fig13": fig13_throughput,
    "fig14": fig14_energy,
    "fig15": fig15_ablation,
    "fig16": fig16_encoder,
    "fig17": fig17_kv_threshold,
    "fig18": fig18_mapping,
    "fig19_20": fig19_20_multiwafer,
    "fig21": fig21_cim_cores,
    "fig22": fig22_arrival_sweep,
    "fig23": fig23_slo_goodput,
    "fig24": fig24_policy_comparison,
    "fig25": fig25_fault_recovery,
    "fig26": fig26_preemption,
    "headline": headline,
}

__all__ = [
    "ExperimentSettings",
    "FigureResult",
    "DEFAULT_SETTINGS",
    "DECODER_MODELS",
    "ENCODER_MODELS",
    "PAPER_WORKLOAD_ORDER",
    "OUROBOROS_NAME",
    "cell_deployments",
    "run_all_systems",
    "run_grid",
    "ALL_EXPERIMENTS",
    "fig01_scaling_tax",
    "fig11_row_activation",
    "fig13_throughput",
    "fig14_energy",
    "fig15_ablation",
    "fig16_encoder",
    "fig17_kv_threshold",
    "fig18_mapping",
    "fig19_20_multiwafer",
    "fig21_cim_cores",
    "fig22_arrival_sweep",
    "fig23_slo_goodput",
    "fig24_policy_comparison",
    "fig25_fault_recovery",
    "fig26_preemption",
    "headline",
]

"""Fig. 13 -- normalized throughput of Ouroboros versus the four baselines.

Grid: four decoder-only models (LLaMA-13B, Baichuan-13B, LLaMA-32B, Qwen-32B)
by four workload settings (WikiText-2 and the three fixed LP/LD pairs).  Every
cell reports the throughput of DGX A100, TPUv4, AttAcc, Cerebras WSE-2 and
Ouroboros, normalized to DGX A100.

Because Fig. 14 (energy) uses exactly the same runs, the raw grid is cached
per settings object and shared between the two drivers.  Cell execution is
delegated to :class:`repro.perf.SweepRunner`, which fans the independent cells
across a process pool on multi-core machines (``REPRO_SWEEP_PROCS`` overrides
the worker count) and can reuse an on-disk result cache
(``REPRO_RESULT_CACHE_DIR``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..perf.sweep import SweepRunner
from ..results import RunResult
from .common import (
    DECODER_MODELS,
    DEFAULT_SETTINGS,
    OUROBOROS_NAME,
    PAPER_WORKLOAD_ORDER,
    ExperimentSettings,
    FigureResult,
    geometric_mean,
    normalized_throughput,
)

#: cache of raw grids keyed by the settings object (they are frozen/hashable)
_GRID_CACHE: dict[tuple, dict[tuple[str, str], dict[str, RunResult]]] = {}


def _cache_key(settings: ExperimentSettings, models: tuple[str, ...], workloads: tuple[str, ...]) -> tuple:
    return (settings, models, workloads)


def main_comparison_grid(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    models: tuple[str, ...] = DECODER_MODELS,
    workloads: tuple[str, ...] = PAPER_WORKLOAD_ORDER,
    runner: SweepRunner | None = None,
) -> dict[tuple[str, str], dict[str, RunResult]]:
    """Raw results for every (model, workload) cell of Fig. 13/14."""
    key = _cache_key(settings, tuple(models), tuple(workloads))
    if key in _GRID_CACHE:
        return _GRID_CACHE[key]
    runner = runner or SweepRunner()
    grid = runner.run_grid(tuple(models), tuple(workloads), settings)
    _GRID_CACHE[key] = grid
    return grid


@dataclass
class ThroughputResult(FigureResult):
    grid: dict[tuple[str, str], dict[str, float]] = field(default_factory=dict)

    def average_speedup(self) -> float:
        return geometric_mean(
            [values[OUROBOROS_NAME] for values in self.grid.values()]
        )

    def peak_speedup(self) -> float:
        return max(values[OUROBOROS_NAME] for values in self.grid.values())


def run(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    models: tuple[str, ...] = DECODER_MODELS,
    workloads: tuple[str, ...] = PAPER_WORKLOAD_ORDER,
) -> ThroughputResult:
    raw = main_comparison_grid(settings, models, workloads)
    result = ThroughputResult(
        figure="Fig. 13",
        description="Normalized throughput vs. baselines (reference: DGX A100)",
    )
    for (model, workload), cell in raw.items():
        normalized = normalized_throughput(cell)
        result.grid[(model, workload)] = normalized
        row = {"model": model, "workload": workload}
        row.update({name: normalized[name] for name in cell})
        result.rows_data.append(row)
    return result

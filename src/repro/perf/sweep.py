"""Parallel sweep runner with an on-disk result cache.

Figure sweeps evaluate a grid of (model, workload) cells, each serving one
trace on Ouroboros plus the four baselines.  Cells are independent, so they
can fan out across a ``ProcessPoolExecutor``; on a single-core machine (or
with ``max_workers=1``) the runner degrades to the serial path, which reuses
one built Ouroboros system per model exactly like the original grid loop.

Results can additionally be cached on disk keyed by the *content* of the cell:
the canonical dict of every :class:`repro.api.DeploymentSpec` the cell serves
(model, system, full system config, workload incl. request count / seed /
arrival rate).  Re-running a sweep with unchanged inputs then costs one pickle
load per cell.  Caching is off unless a cache directory is supplied (or
``REPRO_RESULT_CACHE_DIR`` is set), because a stale cache must never silently
shadow a code change; the key embeds a schema version that must be bumped when
result semantics change.

Usage::

    from repro.perf import SweepRunner

    runner = SweepRunner()                       # workers = CPU count
    grid = runner.run_grid(("llama-13b",), ("wikitext2",), settings)
    result = grid[("llama-13b", "wikitext2")]["Ours"]
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from ..results import RunResult

#: bump when RunResult semantics or serving behaviour changes incompatibly
#: (2: RunResult grew ttft/latency stats; completion stamped at epoch end;
#:  3: keys are canonical DeploymentSpec dicts;
#:  4: sub-epoch admission splits epochs at arrival boundaries and RunResult
#:     grew per-tenant stats + SLO goodput;
#:  5: pluggable scheduling policies — PipelineConfig grew
#:     scheduling_policy/priority_aging_rate, TenantSpec grew
#:     weight/priority, and admission order is policy-defined;
#:  6: fault-tolerant serving — DeploymentSpec grew a fault plan,
#:     PipelineConfig grew overload-shedding knobs, and RunResult grew
#:     fault/shed accounting;
#:  7: live serving — TenantStats grew queue_depth/admission_wait, so the
#:     pickled per-tenant payload changed shape)
_CACHE_SCHEMA = "7"


@dataclass(frozen=True)
class SweepCell:
    """One grid cell: serve one workload of one model on every system.

    ``systems`` optionally restricts the baseline set run alongside Ouroboros
    (``()`` = Ouroboros only, e.g. for the open-loop arrival sweep, where the
    analytic baselines have no notion of arrival times).
    """

    model: str
    workload: str
    systems: tuple[str, ...] | None = None


def _cell_key(cell: SweepCell, settings) -> str:
    """Content hash of the canonical deployment specs one cell serves."""
    from ..experiments.common import cell_deployments

    specs = cell_deployments(cell.model, cell.workload, settings, systems=cell.systems)
    payload = {
        "schema": _CACHE_SCHEMA,
        "specs": [spec.to_dict() for spec in specs],
    }
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _run_cell(args: tuple[SweepCell, object]) -> tuple[SweepCell, dict[str, RunResult]]:
    """Worker entry point: run every system on one cell (picklable, top level)."""
    from ..experiments.common import run_all_systems

    cell, settings = args
    return cell, run_all_systems(
        cell.model, cell.workload, settings, systems=cell.systems
    )


class SweepRunner:
    """Fan (model, workload) cells across processes, with optional caching."""

    def __init__(
        self,
        max_workers: int | None = None,
        cache_dir: str | Path | None = None,
    ) -> None:
        if max_workers is None:
            env = os.environ.get("REPRO_SWEEP_PROCS")
            max_workers = int(env) if env else (os.cpu_count() or 1)
        self.max_workers = max(1, max_workers)
        if cache_dir is None:
            cache_dir = os.environ.get("REPRO_RESULT_CACHE_DIR") or None
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.cache_hits = 0
        self.cache_misses = 0

    # -------------------------------------------------------------------- cache

    def _cache_path(self, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{key}.pkl"

    def _cache_load(self, key: str) -> dict[str, RunResult] | None:
        if self.cache_dir is None:
            return None
        path = self._cache_path(key)
        if not path.exists():
            return None
        try:
            with path.open("rb") as handle:
                return pickle.load(handle)
        except Exception:
            return None  # corrupt entries are treated as misses

    def _cache_store(self, key: str, results: dict[str, RunResult]) -> None:
        if self.cache_dir is None:
            return
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self._cache_path(key)
        tmp = path.with_suffix(".tmp")
        with tmp.open("wb") as handle:
            pickle.dump(results, handle)
        tmp.replace(path)

    # --------------------------------------------------------------------- runs

    def _run_pairs(
        self, pairs: list[tuple[SweepCell, object]]
    ) -> list[dict[str, RunResult]]:
        """Run (cell, settings) pairs via the cache / process pool / serial path.

        The shared dispatch behind :meth:`run_cells` (one settings, many
        cells) and :meth:`run_variants` (one cell, many settings).  Results
        come back in input order.
        """
        results: list[dict[str, RunResult] | None] = [None] * len(pairs)
        pending: list[int] = []
        for index, (cell, settings) in enumerate(pairs):
            cached = self._cache_load(_cell_key(cell, settings))
            if cached is not None:
                results[index] = cached
                self.cache_hits += 1
            else:
                pending.append(index)
                self.cache_misses += 1

        if pending:
            if self.max_workers > 1 and len(pending) > 1:
                with ProcessPoolExecutor(max_workers=self.max_workers) as pool:
                    for index, (_, cell_results) in zip(
                        pending,
                        pool.map(_run_cell, [pairs[index] for index in pending]),
                    ):
                        results[index] = cell_results
                        self._cache_store(_cell_key(*pairs[index]), cell_results)
            else:
                for index, cell_results in self._run_serial(pairs, pending):
                    results[index] = cell_results
                    self._cache_store(_cell_key(*pairs[index]), cell_results)
        return results

    def _run_serial(self, pairs, pending: list[int]):
        """Serial path: run cells in order through the unified entry point.

        Build reuse needs no special casing here any more: `repro.api`
        memoises built systems per (model, system, config), so grid cells
        sharing one settings object build each model once, and arrival-rate
        variants (which differ only in trace knobs) share one built system.
        """
        from ..experiments.common import run_all_systems

        for index in pending:
            cell, settings = pairs[index]
            yield index, run_all_systems(
                cell.model, cell.workload, settings, systems=cell.systems
            )

    def run_cells(
        self, cells: list[SweepCell], settings
    ) -> dict[SweepCell, dict[str, RunResult]]:
        """Run every cell, via the cache / process pool / serial path."""
        flat = self._run_pairs([(cell, settings) for cell in cells])
        return dict(zip(cells, flat))

    def run_variants(
        self, cell: SweepCell, settings_list: list
    ) -> list[dict[str, RunResult]]:
        """Run one cell under several settings variants, in input order.

        This is the sweep shape of the open-loop arrival-rate experiment: the
        (model, workload) pair is fixed and the settings vary (e.g. by
        ``arrival_rate_per_s``).  Variants fan out across the process pool and
        use the on-disk cache exactly like grid cells — the cache key embeds
        the settings, so each variant caches independently.
        """
        return self._run_pairs([(cell, settings) for settings in settings_list])

    def run_grid(
        self,
        models: tuple[str, ...],
        workloads: tuple[str, ...],
        settings,
    ) -> dict[tuple[str, str], dict[str, RunResult]]:
        """Run the full model x workload grid (Fig. 13/14 shape)."""
        cells = [
            SweepCell(model=model, workload=workload)
            for model in models
            for workload in workloads
        ]
        raw = self.run_cells(cells, settings)
        return {(cell.model, cell.workload): raw[cell] for cell in cells}

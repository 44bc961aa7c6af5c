"""Tests for the experiment drivers (reduced settings; shape checks).

These tests assert the *qualitative* properties the paper's figures show
(orderings, peaks, trends) rather than absolute values, using small request
counts so the whole file runs in tens of seconds.
"""

import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    ExperimentSettings,
    fig01_scaling_tax,
    fig11_row_activation,
    fig13_throughput,
    fig14_energy,
    fig15_ablation,
    fig17_kv_threshold,
    fig18_mapping,
    fig21_cim_cores,
    headline,
)
from repro.experiments.common import (
    OUROBOROS_NAME,
    FigureResult,
    geometric_mean,
    normalized_energy,
    normalized_throughput,
    run_all_systems,
)

FAST = ExperimentSettings(num_requests=25, anneal_iterations=5)


@pytest.fixture(scope="module")
def small_grid():
    return fig13_throughput.main_comparison_grid(
        FAST, models=("llama-13b",), workloads=("lp128_ld2048",)
    )


class TestCommonHelpers:
    def test_run_all_systems_contains_everyone(self, small_grid):
        cell = small_grid[("llama-13b", "lp128_ld2048")]
        assert OUROBOROS_NAME in cell
        assert "DGX A100" in cell
        assert len(cell) == 5

    def test_normalization_reference_is_one(self, small_grid):
        cell = small_grid[("llama-13b", "lp128_ld2048")]
        assert normalized_throughput(cell)["DGX A100"] == pytest.approx(1.0)
        assert normalized_energy(cell)["DGX A100"] == pytest.approx(1.0)

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0

    def test_figure_result_table_formatting(self):
        result = FigureResult(figure="Fig. X", description="demo")
        result.rows_data.append({"a": 1, "b": 2.5})
        table = result.format_table()
        assert "Fig. X" in table
        assert "2.500" in table

    def test_grid_cache_reused(self):
        first = fig13_throughput.main_comparison_grid(
            FAST, models=("llama-13b",), workloads=("lp128_ld2048",)
        )
        second = fig13_throughput.main_comparison_grid(
            FAST, models=("llama-13b",), workloads=("lp128_ld2048",)
        )
        assert first is second

    def test_all_experiments_registered(self):
        assert len(ALL_EXPERIMENTS) == 16
        assert "fig22" in ALL_EXPERIMENTS
        assert "fig23" in ALL_EXPERIMENTS
        assert "fig24" in ALL_EXPERIMENTS
        assert "fig25" in ALL_EXPERIMENTS
        assert "fig26" in ALL_EXPERIMENTS


class TestFig01:
    def test_data_movement_dominates_and_grows(self):
        result = fig01_scaling_tax.run(FAST)
        fractions = [row["data_movement_fraction"] for row in result.rows()]
        assert all(f > 0.5 for f in fractions)
        totals = [row["total_energy_j"] for row in result.rows()]
        assert totals[-1] > totals[0]

    def test_gpu_count_grows_with_model(self):
        result = fig01_scaling_tax.run(FAST)
        gpus = [row["num_gpus"] for row in result.rows()]
        assert gpus == sorted(gpus)
        assert gpus[-1] == 8


class TestFig11:
    def test_peak_at_1_over_32(self):
        result = fig11_row_activation.run(FAST)
        assert result.best_ratio() == pytest.approx(1 / 32)

    def test_regimes_labelled(self):
        result = fig11_row_activation.run(FAST)
        bounds = {row["row_activation_ratio"]: row["bound_by"] for row in result.rows()}
        assert bounds["1/4"] == "sram_capacity"
        assert bounds["1/128"] == "compute"


class TestFig13And14:
    def test_ouroboros_wins_throughput(self, small_grid):
        result = fig13_throughput.run(
            FAST, models=("llama-13b",), workloads=("lp128_ld2048",)
        )
        cell = result.grid[("llama-13b", "lp128_ld2048")]
        assert cell[OUROBOROS_NAME] > max(
            value for name, value in cell.items() if name != OUROBOROS_NAME
        )

    def test_ouroboros_wins_energy(self, small_grid):
        result = fig14_energy.run(
            FAST, models=("llama-13b",), workloads=("lp128_ld2048",)
        )
        cell = result.grid[("llama-13b", "lp128_ld2048")]
        assert cell[OUROBOROS_NAME] < min(
            value for name, value in cell.items() if name != OUROBOROS_NAME
        )

    def test_energy_breakdown_rows(self):
        result = fig14_energy.run(
            FAST, models=("llama-13b",), workloads=("lp128_ld2048",)
        )
        ours_rows = [row for row in result.rows() if row["system"] == OUROBOROS_NAME]
        assert ours_rows[0]["off_chip_frac"] == 0.0
        dgx_rows = [row for row in result.rows() if row["system"] == "DGX A100"]
        assert dgx_rows[0]["off_chip_frac"] > 0.3

    def test_headline_summary(self):
        result = headline.run(FAST, models=("llama-13b",), workloads=("lp128_ld2048",))
        assert result.average_speedup > 1.0
        assert result.average_efficiency_gain > 1.0
        assert result.peak_speedup >= result.average_speedup


class TestFig15:
    @pytest.fixture(scope="class")
    def ablation(self):
        return fig15_ablation.run(FAST, models=("llama-13b",), workloads=("lp128_ld2048",))

    def test_full_system_beats_baseline(self, ablation):
        series = ablation.normalized_series("llama-13b", "lp128_ld2048")
        assert series["+KV Cache"]["throughput"] > 1.5
        assert series["+KV Cache"]["energy"] < 0.6

    def test_cim_step_cuts_energy(self, ablation):
        series = ablation.normalized_series("llama-13b", "lp128_ld2048")
        assert series["+CIM"]["energy"] < series["+Wafer"]["energy"] * 0.7

    def test_tgp_step_improves_throughput(self, ablation):
        series = ablation.normalized_series("llama-13b", "lp128_ld2048")
        assert series["+TGP"]["throughput"] >= series["+CIM"]["throughput"]

    def test_kv_step_improves_throughput(self, ablation):
        series = ablation.normalized_series("llama-13b", "lp128_ld2048")
        assert series["+KV Cache"]["throughput"] >= series["+Mapping"]["throughput"]

    def test_rows_cover_all_steps(self, ablation):
        steps = {row["step"] for row in ablation.rows()}
        assert steps == set(fig15_ablation.ABLATION_STEPS)


class TestFig17:
    def test_threshold_sweep_runs(self):
        result = fig17_kv_threshold.run(
            FAST, models=("llama-13b",), thresholds=(0.0, 0.2)
        )
        series = result.normalized_series("llama-13b")
        assert set(series) == {0.0, 0.2}
        assert series[0.0]["throughput"] == pytest.approx(1.0)


class TestFig18:
    def test_ordering_and_reduction(self):
        result = fig18_mapping.run(FAST, models=("llama-13b",))
        normalized = result.normalized("llama-13b")
        assert normalized["Cerebras"] == pytest.approx(1.0)
        assert normalized["Ours"] < normalized["Cerebras"]
        assert normalized["Ours"] <= normalized["WaferLLM"] * 1.001
        summary = fig18_mapping.mapping_quality_summary(result)
        assert 0.0 < summary["reduction_vs_cerebras"] < 1.0


class TestFig22:
    @pytest.fixture(scope="class")
    def sweep(self):
        from repro.experiments import fig22_arrival_sweep
        from repro.perf.sweep import SweepRunner

        return fig22_arrival_sweep.run(
            FAST,
            model="llama-13b",
            workload="lp128_ld2048",
            load_fractions=(0.25, 2.0),
            runner=SweepRunner(max_workers=1),
        )

    def test_rows_cover_the_sweep(self, sweep):
        assert [row["load"] for row in sweep.rows()] == [0.25, 2.0]
        assert sweep.base_rate_per_s > 0
        assert "Fig. 22" in sweep.format_table()

    def test_latency_grows_with_load(self, sweep):
        low, high = sweep.rows()
        assert 0 < low["ttft_p50_s"]
        assert low["latency_p95_s"] <= high["latency_p95_s"]
        assert low["latency_p50_s"] <= low["latency_p95_s"] <= low["latency_p99_s"]

    def test_throughput_grows_toward_saturation(self, sweep):
        low, high = sweep.rows()
        assert 0 < low["throughput_tok_s"] < high["throughput_tok_s"]
        assert sweep.saturation_throughput_tok_s() == pytest.approx(
            high["throughput_tok_s"]
        )


class TestFig23:
    @pytest.fixture(scope="class")
    def sweep(self):
        from repro.experiments import fig23_slo_goodput
        from repro.perf.sweep import SweepRunner

        return fig23_slo_goodput.run(
            FAST,
            model="llama-13b",
            load_fractions=(0.25, 8.0),
            runner=SweepRunner(max_workers=1),
        )

    def test_rows_cover_tenants_and_loads(self, sweep):
        rows = sweep.rows()
        assert [(row["load"], row["tenant"]) for row in rows] == [
            (0.25, "interactive"),
            (0.25, "batch"),
            (8.0, "interactive"),
            (8.0, "batch"),
        ]
        assert sweep.base_rate_per_s > 0
        assert "Fig. 23" in sweep.format_table()

    def test_slos_derive_per_tenant(self, sweep):
        assert set(sweep.tenant_slos) == {"interactive", "batch"}
        for slo in sweep.tenant_slos.values():
            assert slo.ttft_s > 0 and slo.latency_s > 0

    def test_goodput_degrades_past_saturation(self, sweep):
        by_key = {(row["load"], row["tenant"]): row for row in sweep.rows()}
        for tenant in ("interactive", "batch"):
            light = by_key[(0.25, tenant)]
            heavy = by_key[(8.0, tenant)]
            assert 0.0 <= heavy["goodput"] <= light["goodput"] <= 1.0
        # With a 25-request trace only the long-request tenant reliably
        # shows the overload signature; the full-size run is asserted by
        # benchmarks/test_fig23_slo.py.
        assert by_key[(8.0, "batch")]["goodput"] < by_key[(0.25, "batch")]["goodput"]
        assert not by_key[(8.0, "batch")]["meets_slo"]
        assert by_key[(8.0, "batch")]["ttft_p99_s"] > by_key[(0.25, "batch")]["ttft_p99_s"]

    def test_light_load_meets_slo(self, sweep):
        for row in sweep.rows():
            if row["load"] == 0.25:
                assert row["meets_slo"]

    def test_max_load_reflects_the_crossing(self, sweep):
        assert set(sweep.max_load) == {"interactive", "batch"}
        assert sweep.max_load_meeting_slo() == min(sweep.max_load.values())
        assert sweep.max_load_meeting_slo() >= 0.25


class TestFig21:
    def test_table2_entries(self):
        rows = fig21_cim_cores.table2()
        assert len(rows) == 3
        ours = next(row for row in rows if row["design"] == "This work")
        assert ours["wafer_capacity_gb"] == pytest.approx(54.0)

    def test_dense_designs_lose_at_system_level(self):
        result = fig21_cim_cores.run(
            FAST, models=("llama-13b",), workloads=("lp128_ld2048",)
        )
        throughput = result.normalized_throughput("llama-13b", "lp128_ld2048")
        assert throughput["VLSI'22"] < 1.0
        assert throughput["ISSCC'22"] < 1.0
        energy = result.normalized_energy("llama-13b", "lp128_ld2048")
        assert energy["This work + LUT"] < 1.0
        assert energy["VLSI'22"] > 1.0


class TestFig24:
    @pytest.fixture(scope="class")
    def comparison(self):
        from repro.experiments import fig24_policy_comparison
        from repro.perf.sweep import SweepRunner

        return fig24_policy_comparison.run(
            FAST,
            model="llama-13b",
            load_fractions=(0.25, 4.0),
            runner=SweepRunner(max_workers=1),
        )

    def test_rows_cover_policies_and_loads(self, comparison):
        rows = comparison.rows()
        assert [(row["policy"], row["load"]) for row in rows] == [
            ("fcfs", 0.25), ("fcfs", 4.0),
            ("wfq", 0.25), ("wfq", 4.0),
            ("priority", 0.25), ("priority", 4.0),
        ]
        assert "Fig. 24" in comparison.format_table()

    def test_anchors_shared_across_policies(self, comparison):
        """Every policy is swept at identical loads against identical SLOs:
        the base rate and per-tenant SLOs come from the FCFS anchor."""
        assert comparison.base_rate_per_s == comparison.results["fcfs"].base_rate_per_s
        for policy in ("wfq", "priority"):
            sweep = comparison.results[policy]
            assert sweep.base_rate_per_s == comparison.base_rate_per_s
            assert sweep.tenant_slos == comparison.tenant_slos

    def test_fcfs_sweep_is_the_fig23_sweep(self, comparison):
        """The FCFS rows are exactly fig23's rows on the policy mix: the
        policy knobs are inert under fcfs and the anchor is the same."""
        from repro.experiments import fig23_slo_goodput
        from repro.experiments.fig24_policy_comparison import default_policy_tenants
        from repro.perf.sweep import SweepRunner

        fig23 = fig23_slo_goodput.run(
            FAST,
            tenants=default_policy_tenants(FAST.num_requests),
            load_fractions=(0.25, 4.0),
            runner=SweepRunner(max_workers=1),
        )
        assert comparison.results["fcfs"].rows() == fig23.rows()

    def test_headline_read_at_heaviest_load(self, comparison):
        assert comparison.headline_load == 4.0
        for policy in ("fcfs", "wfq", "priority"):
            headline = comparison.headline[policy]
            assert 0.0 <= headline["goodput"] <= 1.0
            assert headline["interactive_ttft_p95_s"] >= 0.0

    def test_policies_never_hurt_interactive_ttft_at_light_load(self, comparison):
        """At light load the queue is short and every policy degenerates to
        (near-)FCFS order; the full-size overload contrast is asserted by
        benchmarks/test_fig24_policy.py."""
        by_key = {(row["policy"], row["load"]): row for row in comparison.rows()}
        for policy in ("wfq", "priority"):
            assert by_key[(policy, 0.25)]["interactive_ttft_p95_s"] == pytest.approx(
                by_key[("fcfs", 0.25)]["interactive_ttft_p95_s"]
            )


class TestFig25:
    @pytest.fixture(scope="class")
    def recovery(self):
        from repro.experiments import fig25_fault_recovery
        from repro.perf.sweep import SweepRunner

        return fig25_fault_recovery.run(
            FAST,
            model="llama-13b",
            load_fractions=(0.5, 4.0),
            runner=SweepRunner(max_workers=1),
        )

    def test_rows_cover_faults_loads_and_shedding(self, recovery):
        keys = [(row["faults"], row["load"], row["shed"]) for row in recovery.rows()]
        assert keys == [
            (faults, load, shed)
            for faults in (0, 4)
            for load in (0.5, 4.0)
            for shed in (False, True)
        ]
        assert "Fig. 25" in recovery.format_table()

    def test_faults_injected_only_on_faulty_rows(self, recovery):
        for row in recovery.rows():
            assert row["injected"] == (4 if row["faults"] else 0)

    def test_shedding_inert_at_light_load(self, recovery):
        by_key = {
            (row["faults"], row["load"], row["shed"]): row for row in recovery.rows()
        }
        for faults in (0, 4):
            on, off = by_key[(faults, 0.5, True)], by_key[(faults, 0.5, False)]
            assert on["shed_requests"] == 0
            assert on["goodput"] == off["goodput"]

    def test_headroom_below_every_ttft_deadline(self, recovery):
        tightest = min(slo.ttft_s for slo in recovery.tenant_slos.values())
        assert 0 < recovery.shed_headroom_s < tightest

    def test_anchored_exactly_like_fig23(self, recovery):
        from repro.experiments import fig23_slo_goodput
        from repro.perf.sweep import SweepRunner

        fig23 = fig23_slo_goodput.run(
            FAST,
            model="llama-13b",
            load_fractions=(0.5, 4.0),
            runner=SweepRunner(max_workers=1),
        )
        assert recovery.base_rate_per_s == fig23.base_rate_per_s
        assert recovery.tenant_slos == fig23.tenant_slos


class TestFig26:
    @pytest.fixture(scope="class")
    def preemption(self):
        from repro.experiments import fig26_preemption
        from repro.perf.sweep import SweepRunner

        return fig26_preemption.run(
            FAST,
            model="llama-13b",
            load_fractions=(0.25, 4.0),
            max_active_caps=(4,),
            runner=SweepRunner(max_workers=1),
        )

    def test_rows_cover_the_co_sweep(self, preemption):
        rows = preemption.rows()
        keys = [
            (row["policy"], row["max_active"], row["preemptive"], row["load"])
            for row in rows
        ]
        assert keys == [
            ("wfq", 4, False, 0.25), ("wfq", 4, False, 4.0),
            ("wfq", 4, True, 0.25), ("wfq", 4, True, 4.0),
            ("priority", 4, False, 0.25), ("priority", 4, False, 4.0),
            ("priority", 4, True, 0.25), ("priority", 4, True, 4.0),
        ]
        assert "Fig. 26" in preemption.format_table()

    def test_anchors_shared_across_cells(self, preemption):
        """Every (policy, cap, preemptive) cell is swept at identical loads
        against identical SLOs from the FCFS anchor."""
        for sweep in preemption.results.values():
            assert sweep.base_rate_per_s == preemption.base_rate_per_s
            assert sweep.tenant_slos == preemption.tenant_slos

    def test_preemption_inert_at_light_load(self, preemption):
        """With no admission contention the knob never fires and the numbers
        reproduce the non-preemptive run exactly."""
        by_key = {
            (row["policy"], row["preemptive"], row["load"]): row
            for row in preemption.rows()
        }
        for policy in ("wfq", "priority"):
            on, off = by_key[(policy, True, 0.25)], by_key[(policy, False, 0.25)]
            assert on["preemptions"] == 0
            assert on["recomputed_tokens"] == 0
            assert on["interactive_ttft_p95_s"] == off["interactive_ttft_p95_s"]

    def test_headline_carries_cut_and_tax(self, preemption):
        assert preemption.headline_load == 4.0
        headline = preemption.headline
        assert headline["interactive_ttft_p95_s"] >= 0.0
        assert headline["baseline_interactive_ttft_p95_s"] >= 0.0
        assert headline["preemptions"] >= 0.0
        assert headline["recomputed_tokens"] >= 0.0
        assert 0.0 <= headline["goodput"] <= 1.0

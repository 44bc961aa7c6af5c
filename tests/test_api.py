"""Tests for the unified serving API: spec, registry, builder, serve()."""

from __future__ import annotations

import json

import pytest

from repro import api
from repro.api import (
    PRESETS,
    SYSTEM_REGISTRY,
    DeploymentSpec,
    ServingSystem,
    SystemEntry,
    build_deployment,
    comparison_grid_keys,
    deployment,
    get_system,
    preset,
    register_system,
    resolve_model,
    resolve_model_name,
    serve,
)
from repro.baselines.common import BaselineSystem
from repro.errors import ConfigurationError
from repro.experiments.common import OUROBOROS_NAME, ExperimentSettings
from repro.models.architectures import MODEL_REGISTRY
from repro.sim.engine import KVPolicy, MappingStrategy, PipelineMode

FAST = ExperimentSettings(num_requests=5, anneal_iterations=5)


class TestRegistry:
    def test_every_paper_baseline_is_registered(self):
        for key in comparison_grid_keys():
            entry = get_system(key)
            assert get_system(entry.display_name) is entry
            assert issubclass(entry.system_cls, BaselineSystem)

    def test_lookup_by_key_and_display_name(self):
        assert get_system("dgx-a100") is get_system("DGX A100")
        assert get_system("OURS").key == "ouroboros"

    def test_unknown_system_raises(self):
        with pytest.raises(ConfigurationError, match="unknown system"):
            get_system("abacus")

    def test_comparison_grid_matches_plot_order(self):
        displays = [get_system(k).display_name for k in comparison_grid_keys()]
        assert displays == ["DGX A100", "TPUv4", "AttAcc", "Cerebras"]

    def test_only_ouroboros_supports_arrival(self):
        simulated = {k for k, e in SYSTEM_REGISTRY.items() if e.simulated}
        assert simulated == {"ouroboros"}

    def test_register_new_backend(self):
        entry = SystemEntry(
            key="pluto-lut-dram",
            display_name="pLUTo",
            factory=lambda arch, spec: get_system("dgx-a100").factory(arch, spec),
        )
        register_system(entry)
        try:
            assert get_system("pluto-lut-dram") is entry
            result = serve(FAST.deployment("llama-13b", "lp128_ld2048",
                                           system="pluto-lut-dram"))
            assert result.system == "pLUTo"
            assert result.total_tokens > 0
        finally:
            SYSTEM_REGISTRY.pop("pluto-lut-dram", None)

    def test_registered_systems_implement_protocol(self):
        spec = FAST.deployment("llama-13b", "wikitext2")
        for key in ("ouroboros", "dgx-a100", "cim-vlsi22"):
            system = build_deployment(spec.with_system(key), cache=False)
            assert isinstance(system, ServingSystem)
            assert isinstance(system.name, str)
            assert isinstance(system.summary(), dict)


class TestModelResolution:
    def test_registry_names(self):
        arch = resolve_model("llama-13b")
        assert arch.name == "LLaMA-13B"
        assert resolve_model_name(arch) == "llama-13b"

    def test_generic_models(self):
        arch = resolve_model("generic-19.5b")
        assert arch.num_blocks == 48
        assert resolve_model_name(arch) == "generic-19.5b"

    def test_unknown_model_raises(self):
        with pytest.raises(ConfigurationError, match="unknown model"):
            resolve_model("gpt-5")


class TestDeploymentSpec:
    def test_round_trip_for_every_preset(self):
        for name, spec in PRESETS.items():
            data = spec.to_dict()
            json.dumps(data)  # must be JSON-serialisable as-is
            assert DeploymentSpec.from_dict(data) == spec, name

    def test_round_trip_for_every_registered_system(self):
        for key in SYSTEM_REGISTRY:
            spec = FAST.deployment("llama-13b", "wikitext2", system=key)
            assert DeploymentSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_for_every_registered_model(self):
        for model in MODEL_REGISTRY:
            spec = FAST.deployment(model, "lp2048_ld128")
            assert DeploymentSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_preserves_enums_and_nested_config(self):
        spec = (deployment("llama-13b")
                .pipeline("sequence").mapping("naive")
                .kv(policy="static", threshold=0.3)
                .defects(True, seed=7).build())
        back = DeploymentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back.config.pipeline_mode is PipelineMode.SEQUENCE_GRAINED
        assert back.config.mapping_strategy is MappingStrategy.NAIVE
        assert back.config.kv_policy is KVPolicy.STATIC
        assert back.config.defect_seed == 7
        assert back == spec

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            DeploymentSpec(model="gpt-5")
        with pytest.raises(ConfigurationError):
            DeploymentSpec(model="llama-13b", system="abacus")
        with pytest.raises(ConfigurationError):
            DeploymentSpec(model="llama-13b", workload="not-a-workload")
        with pytest.raises(ConfigurationError):
            DeploymentSpec(model="llama-13b", num_requests=0)

    def test_validator_rejects_open_loop_baselines(self):
        spec = DeploymentSpec(
            model="llama-13b", system="dgx-a100", arrival_rate_per_s=10.0
        )
        with pytest.raises(ConfigurationError, match="closed-batch"):
            spec.validate()
        with pytest.raises(ConfigurationError, match="closed-batch"):
            serve(spec)

    def test_quotas_summing_past_capacity_rejected(self):
        """kv_quota fractions reserving more than the whole cache fail validate."""
        builder = (deployment("llama-13b")
                   .tenant("chat", "wikitext2", 10, kv_quota=0.6)
                   .tenant("batch", "lp2048_ld128", 10, kv_quota=0.6))
        with pytest.raises(ConfigurationError, match="kv_quota"):
            builder.build()
        # Exactly the whole cache is allowed -- the cap is a budget, not a
        # reservation, so summing to 1.0 remains a valid partition.
        spec = (deployment("llama-13b")
                .tenant("chat", "wikitext2", 10, kv_quota=0.5)
                .tenant("batch", "lp2048_ld128", 10, kv_quota=0.5)
                .build())
        assert sum(t.kv_quota for t in spec.tenants) == 1.0

    def test_presets_cover_named_figures(self):
        assert preset("headline").num_requests == 1000
        assert preset("fig19-multiwafer").config.num_wafers == 2
        assert preset("fig21-lut").config.lut_optimized
        assert preset("fig22-open-loop").arrival_rate_per_s > 0
        with pytest.raises(ConfigurationError, match="unknown preset"):
            preset("fig99")


class TestBuilder:
    def test_issue_example_chain(self):
        spec = (deployment("llama-13b").system("ouroboros").wafers(2)
                .kv(policy="dynamic", threshold=0.1).pipeline("token")
                .arrival_rate(8.0).build())
        assert spec.system == "ouroboros"
        assert spec.config.num_wafers == 2
        assert spec.config.kv_policy is KVPolicy.DYNAMIC
        assert spec.config.kv_threshold == 0.1
        assert spec.config.pipeline_mode is PipelineMode.TOKEN_GRAINED
        assert spec.arrival_rate_per_s == 8.0

    def test_workload_and_options(self):
        spec = (deployment("llama-65b").system("cerebras-wse2")
                .options(num_wafers=2)
                .workload("lp128_ld2048", num_requests=17, seed=3).build())
        assert spec.options == {"num_wafers": 2}
        assert (spec.workload, spec.num_requests, spec.seed) == ("lp128_ld2048", 17, 3)

    def test_unknown_pipeline_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="pipeline mode"):
            deployment("llama-13b").pipeline("warp")

    def test_build_validates(self):
        builder = deployment("llama-13b").system("tpu-v4").arrival_rate(5.0)
        with pytest.raises(ConfigurationError, match="closed-batch"):
            builder.build()


class TestServe:
    def test_serve_ouroboros(self):
        result = serve(FAST.deployment("llama-13b", "lp128_ld2048"))
        assert result.system == OUROBOROS_NAME
        assert result.workload == "lp128_ld2048"
        assert result.output_tokens > 0

    def test_serve_baseline_labels_display_name(self):
        result = serve(FAST.deployment("llama-13b", "lp128_ld2048", system="tpu-v4"))
        assert result.system == "TPUv4"
        assert result.output_tokens > 0

    def test_serve_is_deterministic(self):
        spec = FAST.deployment("llama-13b", "wikitext2")
        first, second = serve(spec), serve(spec)
        assert first.as_dict() == second.as_dict()

    def test_build_is_memoised_per_config(self):
        spec = FAST.deployment("llama-13b", "wikitext2")
        assert build_deployment(spec) is build_deployment(
            spec.with_system("ouroboros")
        )
        # a different workload shares the same built system...
        other_workload = FAST.deployment("llama-13b", "lp2048_ld128")
        assert build_deployment(spec) is build_deployment(other_workload)
        # ...a different system config does not
        other_config = FAST.deployment("llama-13b", "wikitext2", kv_threshold=0.25)
        assert build_deployment(spec) is not build_deployment(other_config)
        assert build_deployment(spec, cache=False) is not build_deployment(spec)

    def test_run_all_systems_rejects_open_loop_baselines_loudly(self):
        from repro.experiments.common import run_all_systems

        open_loop = ExperimentSettings(
            num_requests=5, anneal_iterations=5, arrival_rate_per_s=10.0
        )
        with pytest.raises(ConfigurationError, match="closed-batch"):
            run_all_systems("llama-13b", "wikitext2", open_loop)
        # Ouroboros-only cells (the fig22 shape) still serve open-loop.
        only_ours = run_all_systems("llama-13b", "wikitext2", open_loop, systems=())
        assert list(only_ours) == [OUROBOROS_NAME]

    def test_build_cache_is_bounded(self):
        api.clear_system_cache()
        for threshold in range(api._SYSTEM_CACHE_MAX + 4):
            build_deployment(FAST.deployment(
                "llama-13b", "wikitext2", kv_threshold=threshold / 100.0
            ))
        assert len(api._SYSTEM_CACHE) == api._SYSTEM_CACHE_MAX

    def test_baseline_that_cannot_fit_raises(self):
        spec = FAST.deployment("llama-65b", "wikitext2", system="cerebras-wse2",
                               options={"num_wafers": 1})
        with pytest.raises(ConfigurationError):
            serve(spec)


class TestProtocolCompliance:
    def test_ouroboros_system_is_a_serving_system(self):
        system = build_deployment(FAST.deployment("llama-13b", "wikitext2"))
        assert isinstance(system, ServingSystem)
        assert system.name == "Ouroboros"

    def test_built_ouroboros_is_a_serving_system(self):
        system = build_deployment(FAST.deployment("llama-13b", "wikitext2"))
        assert isinstance(system.built, ServingSystem)

    def test_baseline_systems_expose_name_and_summary(self):
        for key in comparison_grid_keys():
            entry = get_system(key)
            system = build_deployment(
                FAST.deployment("llama-13b", "wikitext2", system=entry.key),
                cache=False,
            )
            assert isinstance(system, BaselineSystem)
            assert system.name == system.hardware.name
            summary = system.summary()
            assert summary["num_devices"] >= 1

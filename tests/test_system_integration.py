"""Integration tests: building and serving on the OuroborosSystem facade."""

import dataclasses

import pytest

from repro.core.system import OuroborosSystem
from repro.errors import MappingError
from repro.kvcache.manager import DistributedKVCacheManager
from repro.kvcache.static import StaticKVCacheManager
from repro.sim.engine import (
    KVPolicy,
    MappingStrategy,
    OuroborosSystemConfig,
    PipelineMode,
    required_wafers,
)

from .conftest import make_trace


def build(arch, config):
    """Build a deployment exactly as configured (no wafer auto-scaling)."""
    return OuroborosSystem(arch, config, auto_scale_wafers=False).built


@pytest.fixture
def system(tiny_arch, small_system_config):
    return OuroborosSystem(tiny_arch, small_system_config, auto_scale_wafers=False)


class TestBuild:
    def test_build_partitions_cores(self, tiny_arch, small_system_config):
        built = build(tiny_arch, small_system_config)
        assert built.num_weight_cores == 8
        assert built.num_kv_cores > 0
        assert built.num_weight_cores + built.num_kv_cores <= built.healthy_cores

    def test_summary_keys(self, system):
        summary = system.summary()
        assert summary["weight_cores"] == 8
        assert summary["pipeline_depth"] == 12
        assert summary["wafers"] == 1
        assert summary["kv_capacity_gib"] > 0

    def test_lazy_build(self, system):
        first = system.built
        assert system.built is first

    def test_static_kv_policy(self, tiny_arch, small_system_config):
        config = dataclasses.replace(small_system_config, kv_policy=KVPolicy.STATIC)
        built = build(tiny_arch, config)
        assert isinstance(built.kv_manager, StaticKVCacheManager)

    def test_dynamic_kv_policy_default(self, tiny_arch, small_system_config):
        built = build(tiny_arch, small_system_config)
        assert isinstance(built.kv_manager, DistributedKVCacheManager)

    def test_defect_modelling(self, tiny_arch, small_system_config):
        config = dataclasses.replace(small_system_config, model_defects=True, defect_seed=1)
        built = build(tiny_arch, config)
        assert built.defect_maps[0] is not None
        assert built.healthy_cores <= built.total_cores

    def test_naive_mapping_has_more_hops(self, tiny_arch, small_system_config):
        optimized = build(tiny_arch, small_system_config)
        naive = build(
            tiny_arch,
            dataclasses.replace(
                small_system_config, mapping_strategy=MappingStrategy.NAIVE
            ),
        )
        assert naive.cost_model.average_hops > optimized.cost_model.average_hops

    def test_required_wafers(self, tiny_arch):
        assert required_wafers(tiny_arch) == 1
        from repro.models.architectures import llama_65b, llama_13b

        assert required_wafers(llama_13b()) == 1
        assert required_wafers(llama_65b()) == 2

    def test_model_too_big_for_small_wafer_rejected(self, small_arch, small_system_config):
        with pytest.raises(MappingError):
            build(small_arch, small_system_config)


class TestServe:
    def test_serve_trace(self, system):
        trace = make_trace(num_requests=6, prefill=24, decode=8)
        result = system.serve(trace)
        assert result.system == "ouroboros-tgp"
        assert result.output_tokens == trace.total_decode_tokens
        assert result.total_time_s > 0
        assert result.energy.total_j > 0

    def test_serve_is_repeatable(self, system):
        a = system.serve(make_trace(num_requests=4))
        b = system.serve(make_trace(num_requests=4))
        assert a.total_time_s == pytest.approx(b.total_time_s)

    def test_pipeline_mode_selection(self, tiny_arch, small_system_config):
        system = OuroborosSystem(
            tiny_arch,
            dataclasses.replace(small_system_config, pipeline_mode=PipelineMode.SEQUENCE_GRAINED),
            auto_scale_wafers=False,
        )
        result = system.serve(make_trace(num_requests=4))
        assert result.system == "ouroboros-seq-grained"

    def test_auto_mode_picks_blocked_for_encoders(self, small_system_config):
        from repro.models.architectures import AttentionMask, ModelArch

        encoder = ModelArch(
            name="TinyEncoder",
            num_blocks=2,
            hidden_size=256,
            num_heads=4,
            ffn_hidden_size=512,
            ffn_matrices=2,
            attention_mask=AttentionMask.BIDIRECTIONAL,
            encoder_blocks=2,
            max_context=256,
        )
        system = OuroborosSystem(encoder, small_system_config, auto_scale_wafers=False)
        result = system.serve(make_trace(num_requests=4, prefill=32, decode=1))
        assert result.system == "ouroboros-tgp-blocked"

    def test_cim_disabled_increases_energy(self, tiny_arch, small_system_config):
        cim = OuroborosSystem(tiny_arch, small_system_config, auto_scale_wafers=False)
        no_cim = OuroborosSystem(
            tiny_arch,
            dataclasses.replace(small_system_config, cim_enabled=False),
            auto_scale_wafers=False,
        )
        trace = make_trace(num_requests=4)
        assert (
            no_cim.serve(make_trace(num_requests=4)).energy_per_output_token_j
            > cim.serve(trace).energy_per_output_token_j
        )


class TestMultiWafer:
    def test_two_wafer_build(self, tiny_arch, small_system_config):
        config = dataclasses.replace(small_system_config, num_wafers=2)
        built = build(tiny_arch, config)
        assert len(built.wafers) == 2
        assert len(built.mappings) == 2
        # One transformer block mapped per wafer.
        assert all(len(m.block_mappings) == 1 for m in built.mappings)

    def test_multi_wafer_adds_optical_energy(self, tiny_arch, small_system_config):
        single = OuroborosSystem(tiny_arch, small_system_config, auto_scale_wafers=False)
        double = OuroborosSystem(
            tiny_arch,
            dataclasses.replace(small_system_config, num_wafers=2),
            auto_scale_wafers=False,
        )
        trace = make_trace(num_requests=4)
        single_result = single.serve(make_trace(num_requests=4))
        double_result = double.serve(trace)
        assert (
            double_result.energy.communication_j > single_result.energy.communication_j
        )

    def test_auto_scale_to_required_wafers(self, small_system_config):
        from repro.models.architectures import llama_65b

        system = OuroborosSystem(llama_65b(), OuroborosSystemConfig(anneal_iterations=0))
        assert system.num_wafers == 2


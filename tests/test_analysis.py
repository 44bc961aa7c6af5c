"""Fixture-based self-tests for the ``repro lint`` checkers.

Each checker is exercised against a tiny synthetic source tree written to
``tmp_path`` that seeds exactly one violation (plus a clean twin), so the
tests prove both directions: the rule fires on the violation and stays
silent on conforming code.  The final class gates the real repository:
``repro lint`` must exit 0 on ``src/repro`` with no baseline file.
"""

from pathlib import Path

import pytest

from repro.analysis import (
    DeterminismChecker,
    EngineParityChecker,
    FloatStabilityChecker,
    KnobPlumbingChecker,
    SerializationChecker,
    run_lint,
)
from repro.cli import main
from repro.errors import ConfigurationError

pytestmark = pytest.mark.lint

PACKAGE_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


def rules_of(report):
    return sorted({finding.rule for finding in report.findings})


class TestDeterminismChecker:
    def check(self, tmp_path, source: str):
        write_tree(tmp_path, {"sim/engine.py": source})
        return run_lint(tmp_path, [DeterminismChecker()])

    def test_unseeded_global_rng_flagged(self, tmp_path):
        report = self.check(tmp_path, (
            "import random\n"
            "def draw():\n"
            "    return random.random()\n"
        ))
        assert rules_of(report) == ["DET001"]
        assert report.findings[0].path == "sim/engine.py"
        assert report.findings[0].line == 3

    def test_unseeded_default_rng_flagged(self, tmp_path):
        report = self.check(tmp_path, (
            "import numpy as np\n"
            "rng = np.random.default_rng()\n"
        ))
        assert rules_of(report) == ["DET001"]

    def test_seeded_default_rng_clean(self, tmp_path):
        report = self.check(tmp_path, (
            "import numpy as np\n"
            "def make(seed):\n"
            "    return np.random.default_rng(seed)\n"
        ))
        assert report.ok

    def test_unseeded_rng_in_lazy_generator_flagged(self, tmp_path):
        """The lazy-stream idiom is in scope: ``workload/`` is a DET dir and
        an unseeded rng built inside a generator function body fires."""
        write_tree(tmp_path, {"workload/streams.py": (
            "import numpy as np\n"
            "def arrivals(rate, n):\n"
            "    rng = np.random.default_rng()\n"
            "    for _ in range(n):\n"
            "        yield rng.exponential(1.0 / rate)\n"
        )})
        report = run_lint(tmp_path, [DeterminismChecker()])
        assert rules_of(report) == ["DET001"]
        assert report.findings[0].path == "workload/streams.py"
        assert report.findings[0].line == 3

    def test_seeded_rng_in_lazy_generator_clean(self, tmp_path):
        """The conforming twin: per-tenant rngs derived from (seed, index)."""
        write_tree(tmp_path, {"workload/streams.py": (
            "import numpy as np\n"
            "def arrivals(seed, index, rate, n):\n"
            "    rng = np.random.default_rng((seed, index, 1))\n"
            "    for _ in range(n):\n"
            "        yield rng.exponential(1.0 / rate)\n"
        )})
        report = run_lint(tmp_path, [DeterminismChecker()])
        assert report.ok

    def test_wall_clock_flagged(self, tmp_path):
        report = self.check(tmp_path, (
            "import time\n"
            "from datetime import datetime\n"
            "def stamp():\n"
            "    return time.time(), datetime.now()\n"
        ))
        assert rules_of(report) == ["DET002"]
        assert len(report.findings) == 2

    def test_set_iteration_flagged(self, tmp_path):
        report = self.check(tmp_path, (
            "class M:\n"
            "    def __init__(self):\n"
            "        self._failed = set()\n"
            "    def locals_of(self, index):\n"
            "        return [index[c] for c in self._failed]\n"
        ))
        assert rules_of(report) == ["DET003"]
        assert "self._failed" in report.findings[0].message

    def test_sorted_set_iteration_clean(self, tmp_path):
        report = self.check(tmp_path, (
            "class M:\n"
            "    def __init__(self):\n"
            "        self._failed = set()\n"
            "    def locals_of(self, index):\n"
            "        return [index[c] for c in sorted(self._failed)]\n"
        ))
        assert report.ok

    def test_environ_read_flagged(self, tmp_path):
        report = self.check(tmp_path, (
            "import os\n"
            "def knobs():\n"
            "    return os.environ['X'], os.environ.get('Y'), os.getenv('Z')\n"
        ))
        assert rules_of(report) == ["DET004"]
        assert len(report.findings) == 3

    def test_out_of_scope_module_ignored(self, tmp_path):
        write_tree(tmp_path, {"perf/bench.py": (
            "import os, time\n"
            "def harness():\n"
            "    return os.environ.get('PROCS'), time.perf_counter()\n"
        )})
        report = run_lint(tmp_path, [DeterminismChecker()])
        assert report.ok

    def test_allow_comment_suppresses(self, tmp_path):
        report = self.check(tmp_path, (
            "import os\n"
            "def knob():\n"
            "    return os.getenv('X')  # repro-lint: allow=DET004\n"
        ))
        assert report.ok

    def test_allow_comment_is_rule_specific(self, tmp_path):
        report = self.check(tmp_path, (
            "import os\n"
            "def knob():\n"
            "    return os.getenv('X')  # repro-lint: allow=DET001\n"
        ))
        assert rules_of(report) == ["DET004"]


SERIALIZATION_BAD = """
from dataclasses import dataclass

@dataclass(frozen=True)
class Spec:
    alpha: int
    beta: int

    def as_dict(self):
        return {"alpha": self.alpha, "beat": self.beta}

    @classmethod
    def from_dict(cls, data):
        return cls(alpha=data["alpha"])
"""

SERIALIZATION_GOOD = """
from dataclasses import dataclass

@dataclass(frozen=True)
class Spec:
    alpha: int
    beta: int

    @property
    def total(self):
        return self.alpha + self.beta

    def as_dict(self):
        return {"alpha": self.alpha, "beta": self.beta, "total": self.total}

    @classmethod
    def from_dict(cls, data):
        return cls(alpha=data["alpha"], beta=data.get("beta", 0))
"""

SERIALIZATION_GENERIC = """
from dataclasses import asdict, dataclass

@dataclass(frozen=True)
class Spec:
    alpha: int
    beta: int

    def as_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        return cls(**data)
"""


class TestSerializationChecker:
    def check(self, tmp_path, source: str):
        write_tree(tmp_path, {"spec.py": source})
        return run_lint(tmp_path, [SerializationChecker()])

    def test_missing_and_unknown_keys_flagged(self, tmp_path):
        report = self.check(tmp_path, SERIALIZATION_BAD)
        # as_dict misses 'beta' and emits the typo'd 'beat'; from_dict
        # never reads 'beta'.
        assert rules_of(report) == ["SER001", "SER002", "SER003"]
        symbols = {finding.symbol for finding in report.findings}
        assert symbols == {"Spec.beta", "Spec.beat"}

    def test_complete_roundtrip_clean(self, tmp_path):
        assert self.check(tmp_path, SERIALIZATION_GOOD).ok

    def test_generic_serializers_skipped(self, tmp_path):
        assert self.check(tmp_path, SERIALIZATION_GENERIC).ok

    def test_nested_dict_keys_not_treated_as_schema(self, tmp_path):
        report = self.check(tmp_path, (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Spec:\n"
            "    alpha: int\n"
            "    def as_dict(self):\n"
            "        return {'alpha': {'nested': 1}}\n"
        ))
        assert report.ok


PARITY_BAD = """
class Engine:
    def _advance_epoch_fast(self, scheduler, sequence):
        scheduler.grow_batch([sequence])
        self._split_epochs += 1

    def _advance_epoch_scalar(self, scheduler, sequence):
        scheduler.grow_sequence(sequence)
        scheduler.complete(sequence)
"""

PARITY_GOOD = """
class Engine:
    def _advance_epoch_fast(self, scheduler, sequence):
        scheduler.grow_batch([sequence])
        scheduler.complete(sequence)
        scheduler.rows.advance(1, 2)
        self._split_epochs += 1

    def _advance_epoch_scalar(self, scheduler, sequence):
        if scheduler.is_active(sequence):
            scheduler.grow_sequence(sequence)
            scheduler.complete(sequence)
        scheduler.rows.resync([sequence])
        self._split_epochs += 1
"""


class TestEngineParityChecker:
    def check(self, tmp_path, source: str):
        write_tree(tmp_path, {"pipeline/engine.py": source})
        return run_lint(tmp_path, [EngineParityChecker()])

    def test_asymmetric_store_and_call_flagged(self, tmp_path):
        report = self.check(tmp_path, PARITY_BAD)
        assert rules_of(report) == ["PAR001", "PAR002"]
        symbols = {finding.symbol for finding in report.findings}
        assert "Engine.self._split_epochs" in symbols
        assert "Engine.scheduler.complete" in symbols

    def test_equivalent_advance_pair_not_flagged(self, tmp_path):
        assert self.check(tmp_path, PARITY_GOOD).ok

    def test_module_receivers_ignored(self, tmp_path):
        report = self.check(tmp_path, (
            "import numpy as np\n"
            "class Engine:\n"
            "    def _advance_epoch_fast(self):\n"
            "        return np.flatnonzero(np.arange(3))\n"
            "    def _advance_epoch_scalar(self):\n"
            "        return np.arange(3)\n"
        ))
        assert report.ok

    def test_call_planted_in_real_advance_flagged(self, tmp_path):
        """The checker compares the real engine's advance strategies: one
        side effect planted in the fast path alone is reported."""
        source = (PACKAGE_ROOT / "pipeline" / "engine.py").read_text()
        assert self.check(tmp_path, source).ok
        anchor = "        scheduler.rows.advance(prefill, decode)\n"
        assert source.count(anchor) == 1
        planted = source.replace(
            anchor, anchor + "        scheduler.evict_most_recent()\n"
        )
        report = self.check(tmp_path, planted)
        assert [f.symbol for f in report.findings] == [
            "PipelineEngine.scheduler.evict_most_recent"
        ]


KNOBS_BAD = """
from dataclasses import dataclass, replace
import argparse

@dataclass(frozen=True)
class PipelineConfig:
    chunk_tokens: int = 512
    orphan_knob: int = 0

@dataclass(frozen=True)
class DeploymentSpec:
    model: str = "m"
    config: PipelineConfig = PipelineConfig()

class DeploymentBuilder:
    def chunk(self, tokens):
        self._spec = replace(self._spec, config=replace(
            self._spec.config, chunk_tokens=tokens))
        return self

def build_parser():
    parser = argparse.ArgumentParser()
    parser.add_argument("model")
    parser.add_argument("--chunk-tokens", type=int)
    parser.add_argument("--dead-flag", type=int)
    return parser

def main(argv=None):
    args = build_parser().parse_args(argv)
    spec = DeploymentSpec(model=args.model)
    return replace(spec, config=replace(
        spec.config, chunk_tokens=args.chunk_tokens))
"""


class TestKnobPlumbingChecker:
    def check(self, tmp_path, source: str):
        write_tree(tmp_path, {"api.py": source})
        return run_lint(tmp_path, [KnobPlumbingChecker()])

    def test_unplumbed_field_and_dead_flag_flagged(self, tmp_path):
        report = self.check(tmp_path, KNOBS_BAD)
        symbols = {finding.symbol for finding in report.findings}
        # orphan_knob reaches neither the builder nor the CLI; --dead-flag
        # binds a dest nothing reads.
        assert "PipelineConfig.orphan_knob" in symbols
        assert "cli.PipelineConfig.orphan_knob" in symbols
        assert "flag.dead_flag" in symbols
        # config/model are plumbed; chunk_tokens is fully reachable.
        assert not any("chunk_tokens" in symbol for symbol in symbols)

    def test_fields_loop_makes_class_cli_reachable(self, tmp_path):
        report = self.check(tmp_path, KNOBS_BAD + (
            "\n"
            "from dataclasses import fields as dataclass_fields\n"
            "def tune(args):\n"
            "    return {f.name: None for f in dataclass_fields(PipelineConfig)}\n"
        ))
        symbols = {finding.symbol for finding in report.findings}
        assert "cli.PipelineConfig.orphan_knob" not in symbols
        assert "PipelineConfig.orphan_knob" in symbols  # builder gap remains

    def test_tenant_spec_fields_are_knobs(self, tmp_path):
        """TenantSpec joined KNOB_CLASSES when weight/priority/kv_quota
        became serving knobs: an unplumbed tenant field must be flagged."""
        report = self.check(tmp_path, KNOBS_BAD + (
            "\n"
            "@dataclass(frozen=True)\n"
            "class TenantSpec:\n"
            "    name: str = 't'\n"
            "    kv_quota: float | None = None\n"
            "    orphan_tenant_knob: int = 0\n"
            "class TenantBuilder:\n"
            "    def tenant(self, name, kv_quota=None):\n"
            "        return TenantSpec(name=name, kv_quota=kv_quota)\n"
        ))
        symbols = {finding.symbol for finding in report.findings}
        assert "TenantSpec.orphan_tenant_knob" in symbols
        assert "cli.TenantSpec.orphan_tenant_knob" in symbols
        # name/kv_quota are plumbed through the builder; the CLI gap for
        # them disappears with a generic fields(TenantSpec) escape.
        assert "TenantSpec.kv_quota" not in symbols

    def test_tenant_fields_loop_makes_class_cli_reachable(self, tmp_path):
        report = self.check(tmp_path, KNOBS_BAD + (
            "\n"
            "from dataclasses import fields as dataclass_fields\n"
            "@dataclass(frozen=True)\n"
            "class TenantSpec:\n"
            "    name: str = 't'\n"
            "    kv_quota: float | None = None\n"
            "class TenantBuilder:\n"
            "    def tenant(self, name, kv_quota=None):\n"
            "        return TenantSpec(name=name, kv_quota=kv_quota)\n"
            "def parse_tenants(args):\n"
            "    return {f.name for f in dataclass_fields(TenantSpec)}\n"
        ))
        symbols = {finding.symbol for finding in report.findings}
        assert not any("TenantSpec" in symbol for symbol in symbols)

    def test_wither_method_counts_as_plumbing(self, tmp_path):
        report = self.check(tmp_path, (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class DeploymentSpec:\n"
            "    system: str = 'x'\n"
            "    def with_system(self, name):\n"
            "        return DeploymentSpec(system=name)\n"
            "class DeploymentBuilder:\n"
            "    def system(self, name):\n"
            "        self._spec = self._spec.with_system(name)\n"
            "        return self\n"
        ))
        assert not any(
            finding.symbol == "DeploymentSpec.system"
            for finding in report.findings
        )


class TestFloatStabilityChecker:
    def check(self, tmp_path, source: str, name: str = "results.py"):
        write_tree(tmp_path, {name: source})
        return run_lint(tmp_path, [FloatStabilityChecker()])

    def test_sum_over_set_flagged(self, tmp_path):
        report = self.check(tmp_path, (
            "def total(values):\n"
            "    pending = set(values)\n"
            "    return sum(pending)\n"
        ))
        assert rules_of(report) == ["FLT001"]

    def test_sum_over_set_generator_flagged(self, tmp_path):
        report = self.check(tmp_path, (
            "def total(stats):\n"
            "    live = {s.weight for s in stats}\n"
            "    return sum(w * 2 for w in live)\n"
        ))
        assert rules_of(report) == ["FLT001"]

    def test_sum_over_sorted_clean(self, tmp_path):
        report = self.check(tmp_path, (
            "def total(values):\n"
            "    pending = set(values)\n"
            "    return sum(sorted(pending))\n"
        ))
        assert report.ok

    def test_out_of_scope_module_ignored(self, tmp_path):
        report = self.check(tmp_path, (
            "def total(values):\n"
            "    return sum(set(values))\n"
        ), name="sim/engine.py")
        assert report.ok


class TestBaseline:
    BAD = "import os\ndef knob():\n    return os.getenv('X')\n"

    def test_baseline_grandfathers_finding(self, tmp_path):
        write_tree(tmp_path, {"src/sim/mod.py": self.BAD})
        baseline = tmp_path / "baseline.json"
        key = "DET004:sim/mod.py:os.getenv"
        baseline.write_text(
            '{"findings": [{"key": "%s", "reason": "legacy knob"}]}' % key
        )
        report = run_lint(
            tmp_path / "src", [DeterminismChecker()], baseline_path=baseline
        )
        assert report.ok
        assert [reason for _, reason in report.baselined] == ["legacy knob"]
        assert report.stale_baseline_keys == []

    def test_stale_baseline_entry_reported(self, tmp_path):
        write_tree(tmp_path, {"src/sim/mod.py": "x = 1\n"})
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            '{"findings": [{"key": "DET004:sim/mod.py:os.getenv",'
            ' "reason": "gone"}]}'
        )
        report = run_lint(
            tmp_path / "src", [DeterminismChecker()], baseline_path=baseline
        )
        assert report.ok
        assert report.stale_baseline_keys == ["DET004:sim/mod.py:os.getenv"]

    def test_baseline_entry_requires_reason(self, tmp_path):
        write_tree(tmp_path, {"src/sim/mod.py": self.BAD})
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            '{"findings": [{"key": "DET004:sim/mod.py:os.getenv"}]}'
        )
        with pytest.raises(ConfigurationError):
            run_lint(
                tmp_path / "src", [DeterminismChecker()],
                baseline_path=baseline,
            )

    def test_missing_baseline_file_is_an_error(self, tmp_path):
        write_tree(tmp_path, {"src/sim/mod.py": "x = 1\n"})
        with pytest.raises(ConfigurationError):
            run_lint(
                tmp_path / "src", [DeterminismChecker()],
                baseline_path=tmp_path / "nope.json",
            )


class TestLintCli:
    def test_cli_exits_nonzero_on_finding(self, tmp_path, capsys):
        write_tree(tmp_path, {"sim/bad.py": (
            "import random\n"
            "def draw():\n"
            "    return random.random()\n"
        )})
        code = main(["lint", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "DET001" in out
        assert "sim/bad.py:3" in out

    def test_cli_json_output(self, tmp_path, capsys):
        import json

        write_tree(tmp_path, {"sim/bad.py": "import time\nt = time.time()\n"})
        code = main(["lint", str(tmp_path), "--json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 1
        assert data["ok"] is False
        assert data["findings"][0]["rule"] == "DET002"
        assert data["findings"][0]["key"]

    def test_cli_clean_tree_exits_zero(self, tmp_path, capsys):
        write_tree(tmp_path, {"sim/good.py": "x = 1\n"})
        code = main(["lint", str(tmp_path)])
        assert code == 0
        assert "0 findings" in capsys.readouterr().out

    def test_cli_missing_root_is_usage_error(self, tmp_path, capsys):
        code = main(["lint", str(tmp_path / "missing")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestRepositoryIsClean:
    """The self-gate: the shipped package must lint clean, no baseline."""

    def test_package_lints_clean(self):
        report = run_lint(PACKAGE_ROOT)
        assert report.findings == [], "\n" + report.format()

    def test_cli_lint_defaults_to_package_and_passes(self, capsys):
        assert main(["lint"]) == 0
        assert "0 findings" in capsys.readouterr().out

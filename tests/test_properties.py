"""Property-based tests (hypothesis) for core data structures and invariants."""

import copy
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.hardware.config import CrossbarConfig
from repro.hardware.crossbar import effective_sram_ratio
from repro.hardware.htree import LeafAssignment, assignment_cost
from repro.hardware.yieldmodel import murphy_yield
from repro.kvcache.blocks import FreeBlockTable, tokens_per_block
from repro.kvcache.manager import DistributedKVCacheManager
from repro.kvcache.static import StaticKVCacheManager
from repro.models.architectures import ModelArch
from repro.results import EnergyBreakdown
from repro.workload.distributions import WikiTextLikeDistribution
from repro.workload.requests import Request, Sequence

# ---------------------------------------------------------------------------
# Hardware invariants
# ---------------------------------------------------------------------------


@given(exponent=st.integers(min_value=2, max_value=8))
def test_crossbar_gemv_cycles_inverse_in_activation_ratio(exponent):
    ratio = 1.0 / (2 ** exponent)
    config = CrossbarConfig(row_activation_ratio=ratio)
    assert config.gemv_cycles == config.activation_bits * math.ceil(
        config.rows / config.rows_active_per_cycle
    )
    # MACs per cycle times cycles always covers the whole array.
    assert config.macs_per_cycle * config.gemv_cycles == config.rows * config.weight_columns


@given(exponent=st.integers(min_value=0, max_value=10))
def test_effective_sram_ratio_monotone(exponent):
    ratio = 1.0 / (2 ** exponent)
    finer = ratio / 2
    assert effective_sram_ratio(finer) >= effective_sram_ratio(ratio)


@given(
    area=st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
    density=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
def test_murphy_yield_bounded(area, density):
    value = murphy_yield(area, density)
    assert 0.0 < value <= 1.0


@given(
    head_dim=st.integers(min_value=1, max_value=1024),
    element_bytes=st.integers(min_value=1, max_value=4),
)
def test_tokens_per_block_positive(head_dim, element_bytes):
    assert tokens_per_block(head_dim, element_bytes) >= 1


# ---------------------------------------------------------------------------
# H-tree invariants
# ---------------------------------------------------------------------------


@given(
    parts=st.integers(min_value=1, max_value=4),
    per_part=st.sampled_from([1, 2, 4]),
    data=st.data(),
)
def test_htree_node_count_invariant(parts, per_part, data):
    leaves = parts * per_part
    assume(leaves & (leaves - 1) == 0)
    slices = [(i, o) for o in range(parts) for i in range(per_part)]
    permutation = data.draw(st.permutations(slices))
    cost = assignment_cost(LeafAssignment(slices=list(permutation)))
    # A binary tree over N leaves has exactly N-1 internal nodes.
    assert cost.concat_nodes + cost.reduction_nodes == leaves - 1
    assert cost.weighted_concat_depth >= cost.concat_nodes


@given(
    parts=st.integers(min_value=2, max_value=4),
    per_part=st.sampled_from([2, 4]),
    data=st.data(),
)
def test_htree_grouped_layout_is_lower_bound(parts, per_part, data):
    leaves = parts * per_part
    assume(leaves & (leaves - 1) == 0)
    slices = [(i, o) for o in range(parts) for i in range(per_part)]
    grouped_cost = assignment_cost(LeafAssignment(slices=slices))
    permutation = data.draw(st.permutations(slices))
    shuffled_cost = assignment_cost(LeafAssignment(slices=list(permutation)))
    assert grouped_cost.weighted_concat_depth <= shuffled_cost.weighted_concat_depth


# ---------------------------------------------------------------------------
# Free-block table invariants
# ---------------------------------------------------------------------------


@given(ops=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 200)), max_size=40))
def test_free_block_table_conservation(ops):
    table = FreeBlockTable(num_blocks=8, rows_per_block=128)
    allocated: list[int] = []
    for owner, rows in ops:
        if table.free_blocks > 0:
            index = table.allocate(owner)
            table.append_rows(index, rows)
            allocated.append(index)
        elif allocated:
            table.release(allocated.pop())
        assert table.free_blocks + table.used_blocks == table.num_blocks
        for block in range(table.num_blocks):
            assert 0 <= table.rows_used(block) <= table.rows_per_block


# ---------------------------------------------------------------------------
# Sequence lifecycle invariants
# ---------------------------------------------------------------------------


@given(
    prefill=st.integers(min_value=1, max_value=300),
    decode=st.integers(min_value=0, max_value=300),
    chunks=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=30),
)
def test_sequence_bulk_advance_conserves_tokens(prefill, decode, chunks):
    sequence = Sequence(Request(request_id=0, prefill_length=prefill, decode_length=decode))
    sequence.start()
    processed = 0
    for chunk in chunks:
        segments = sequence.advance_tokens(chunk)
        processed += sum(count for _, count, _ in segments)
        assert sequence.context_length == processed
        if sequence.is_complete:
            break
    assert processed <= prefill + decode
    if sequence.is_complete:
        assert processed == prefill + decode


@given(
    prefill=st.integers(min_value=1, max_value=200),
    decode=st.integers(min_value=1, max_value=200),
    evict_after=st.integers(min_value=1, max_value=400),
)
def test_sequence_eviction_preserves_generated_tokens(prefill, decode, evict_after):
    sequence = Sequence(Request(request_id=0, prefill_length=prefill, decode_length=decode))
    sequence.start()
    sequence.advance_tokens(min(evict_after, prefill + decode - 1))
    generated_before = sequence.generated_tokens
    sequence.evict()
    assert sequence.generated_tokens == generated_before
    sequence.start()
    # Finishing the sequence always needs exactly the un-generated decode
    # tokens plus the full (re)prefill of the discarded context.
    sequence.advance_tokens(10**6)
    assert sequence.is_complete
    assert sequence.generated_tokens == decode


# ---------------------------------------------------------------------------
# KV-manager invariants
# ---------------------------------------------------------------------------


@st.composite
def kv_operations(draw):
    return draw(
        st.lists(
            st.tuples(st.sampled_from(["admit", "grow", "release"]), st.integers(0, 5), st.integers(1, 64)),
            min_size=1,
            max_size=30,
        )
    )


@given(ops=kv_operations())
@settings(max_examples=40, deadline=None)
def test_kv_manager_block_conservation(ops):
    arch = ModelArch(
        name="prop", num_blocks=2, hidden_size=256, num_heads=4, ffn_hidden_size=512,
        vocab_size=1000, max_context=512,
    )
    manager = DistributedKVCacheManager(
        arch, kv_core_ids=list(range(16)), blocks_per_core=8
    )
    sequences: dict[int, Sequence] = {}
    for action, seq_id, amount in ops:
        sequence = sequences.get(seq_id)
        if action == "admit" and sequence is None:
            sequence = Sequence(
                Request(request_id=seq_id, prefill_length=64, decode_length=64)
            )
            sequence.start()
            if manager.try_admit(sequence):
                sequences[seq_id] = sequence
        elif action == "grow" and sequence is not None:
            manager.append_tokens(sequence, amount)
        elif action == "release" and sequence is not None:
            manager.release(sequence)
            del sequences[seq_id]
        # Invariants: block accounting never goes negative or above capacity.
        assert 0 <= manager.used_blocks <= manager.total_blocks
        held = sum(manager.blocks_held(sid) for sid in sequences)
        assert held == manager.used_blocks


@st.composite
def occupancy_scripts(draw):
    """A random KV geometry plus a random script of manager operations.

    Group sizes above, at and below the head count (the padded case), a
    core count below the group count (groups share cores, so no ring-offset
    occupancy), and a walk-only manager: the constructor always builds groups
    of one size, so the geometry without a group matrix is reached by
    clearing the derived ring tables.  Small, sometimes reserved cores force
    the per-group walk next to ring-placed residents.
    """
    heads = draw(st.sampled_from([2, 4]))
    num_blocks = draw(st.integers(1, 2))
    arch = ModelArch(
        name="prop", num_blocks=num_blocks, hidden_size=64 * heads, num_heads=heads,
        ffn_hidden_size=512, vocab_size=1000, max_context=512,
    )
    groups = 2 * num_blocks
    if draw(st.integers(0, 5)) == 0:
        num_cores = draw(st.integers(1, groups - 1)) if groups > 1 else 1
    else:
        size = max(1, heads + draw(st.sampled_from([2, 1, 0, -1, 3])))
        num_cores = groups * size + draw(st.integers(0, 2))
    geometry = dict(
        arch=arch, num_cores=num_cores,
        blocks_per_core=draw(st.sampled_from([2, 3, 1, 4, 5, 8])),
        threshold=draw(st.sampled_from([0.0, 0.0, 0.25, 0.5])),
        walk_only=draw(st.integers(0, 5)) == 0,
    )
    tenant = st.sampled_from(["a", "b"])
    admit = st.tuples(st.just("admit"), st.integers(0, 7), tenant)
    warmup = [("admit", seq_id, draw(tenant)) for seq_id in range(draw(st.integers(0, 5)))]
    ops = warmup + draw(st.lists(
        st.one_of(
            admit, admit,
            st.tuples(st.just("grow"), st.integers(0, 7), st.integers(0, 300)),
            st.tuples(st.just("release"), st.integers(0, 7)),
            st.tuples(st.just("batch"), st.lists(st.integers(0, 200), min_size=8, max_size=8)),
            st.tuples(st.just("fail"), st.integers(0, num_cores - 1)),
        ),
        min_size=5, max_size=40,
    ).filter(lambda ops: sum(op[0] == "fail" for op in ops) <= 1))
    return geometry, ops


def occupancy_manager(arch, num_cores, blocks_per_core, threshold, walk_only, ring):
    manager = DistributedKVCacheManager(
        arch, kv_core_ids=list(range(num_cores)), blocks_per_core=blocks_per_core,
        threshold=threshold,
    )
    manager.set_tenant_quotas({"b": 0.5})
    if walk_only:
        manager._group_matrix = manager._ring_table = None
    if walk_only or not ring:
        manager._ring_counts = None
    return manager


def assert_occupancy_oracle(manager, tokens):
    """Occupancy agrees with the page tables and the caller's token ledger."""
    state = manager.snapshot_state()
    per_block = manager.tokens_per_block
    held = np.zeros(manager.num_kv_cores, dtype=np.int64)
    for (seq_id, data) in state["allocations"]:
        matrix = [
            [core for placement in table.lookup(seq_id)
             for core in (placement.k_core, placement.v_core)]
            for table in manager.page_tables
        ]
        counts = np.bincount(np.ravel(matrix), minlength=manager.num_kv_cores)
        assert data["cores"] == np.flatnonzero(counts).tolist()
        assert data["counts"] == counts[counts > 0].tolist()
        blocks_per_slot = max(1, math.ceil(tokens[seq_id] / per_block))
        assert data["blocks_per_slot"] == blocks_per_slot
        held += counts * blocks_per_slot
    assert state["free_blocks"] == (manager.blocks_per_core - held).tolist()
    healthy = [core not in manager.failed_cores for core in manager.kv_core_ids]
    assert manager.used_blocks == int(held[healthy].sum())


@given(script=occupancy_scripts())
@settings(max_examples=200, deadline=None)
def test_occupancy_matches_page_tables_and_dense_twin(script):
    """Ring-offset occupancy is invisible: after every operation the snapshot
    matches an oracle built from the page tables, and a twin manager that keeps
    every allocation as a dense per-core vector makes the same decisions and
    reaches the same snapshot."""
    geometry, ops = script
    manager = occupancy_manager(**geometry, ring=True)
    twin = occupancy_manager(**geometry, ring=False)
    sequences: dict[int, Sequence] = {}
    tokens: dict[int, int] = {}
    for op in ops:
        if op[0] == "admit" and op[1] not in sequences:
            sequence = Sequence(Request(
                request_id=op[1], prefill_length=64, decode_length=64, tenant=op[2]
            ))
            sequence.start()
            admitted = manager.try_admit(sequence)
            assert twin.try_admit(sequence) == admitted
            if admitted:
                sequences[op[1]] = sequence
                tokens[op[1]] = 0
        elif op[0] == "grow" and op[1] in sequences:
            grown = manager.append_tokens(sequences[op[1]], op[2])
            assert twin.append_tokens(sequences[op[1]], op[2]) == grown
            if grown:
                tokens[op[1]] += op[2]
        elif op[0] == "release" and op[1] in sequences:
            manager.release(sequences[op[1]])
            twin.release(sequences.pop(op[1]))
            del tokens[op[1]]
        elif op[0] == "batch":
            batch = list(sequences.values())
            takes = np.asarray(op[1][: len(batch)], dtype=np.int64)
            completing = np.zeros(len(batch), dtype=bool)
            grown = manager.grow_batch(row_handles(manager, batch), takes, completing)
            assert twin.grow_batch(row_handles(twin, batch), takes, completing) == grown
            if grown:
                for sequence, take in zip(batch, takes.tolist()):
                    tokens[sequence.sequence_id] += take
        elif op[0] == "fail":
            core = manager.kv_core_ids[op[1]]
            assert manager.fail_core(core) == twin.fail_core(core)
        assert manager.snapshot_state() == twin.snapshot_state()
        assert manager.last_failure_quota_bound == twin.last_failure_quota_bound
        assert_occupancy_oracle(manager, tokens)
        for core in manager.kv_core_ids:
            assert manager.sequences_on_core(core) == twin.sequences_on_core(core)


@st.composite
def resident_batches(draw):
    """A KV manager with a random resident set, plus one epoch's growth.

    Covers both managers, tenant quotas (one tenant capped, sometimes
    tightly), near-full caches (few blocks per core, pre-grown residents),
    reservation thresholds (so walk-placed residents sit next to ring-placed
    ones) and failed cores.  Returns ``(manager, sequences, takes, completing)``.
    """
    arch = ModelArch(
        name="prop", num_blocks=draw(st.integers(1, 2)), hidden_size=256,
        num_heads=4, ffn_hidden_size=512, vocab_size=1000, max_context=512,
    )
    num_cores = draw(st.integers(4, 24))
    blocks_per_core = draw(st.sampled_from([1, 2, 4, 8, 32, 64]))
    if draw(st.booleans()):
        manager = StaticKVCacheManager(
            arch, kv_core_ids=num_cores, blocks_per_core=blocks_per_core * 8,
            reserved_context=draw(st.integers(64, 512)),
        )
    else:
        manager = DistributedKVCacheManager(
            arch, kv_core_ids=list(range(num_cores)), blocks_per_core=blocks_per_core,
            threshold=draw(st.sampled_from([0.0, 0.25, 0.5])),
        )
    if draw(st.booleans()):
        manager.set_tenant_quotas({"capped": draw(st.sampled_from([0.1, 0.3, 0.6, 1.0]))})
    per_block = manager.tokens_per_block
    sequences = []
    for seq_id in range(draw(st.integers(0, 8))):
        sequence = Sequence(Request(
            request_id=seq_id, prefill_length=2048, decode_length=0,
            tenant=draw(st.sampled_from(["capped", "free"])),
        ))
        sequence.start()
        if not manager.try_admit(sequence):
            continue
        grown = draw(st.integers(0, 3 * per_block))
        if manager.append_tokens(sequence, grown):
            sequence.advance_tokens(grown)
        sequences.append(sequence)
    if isinstance(manager, DistributedKVCacheManager) and draw(st.integers(0, 4)) == 0:
        manager.fail_core(manager.kv_core_ids[draw(st.integers(0, num_cores - 1))])
    count = len(sequences)
    takes = np.asarray(
        draw(st.lists(st.integers(0, 2 * per_block), min_size=count, max_size=count)),
        dtype=np.int64,
    )
    completing = np.asarray(
        draw(st.lists(st.booleans(), min_size=count, max_size=count)), dtype=bool
    )
    return manager, sequences, takes, completing


def kv_state(manager):
    return manager.snapshot_state(), manager.last_failure_quota_bound


def row_handles(manager, sequences):
    """The managers' row handles of ``sequences``, for ``grow_batch``."""
    return np.asarray([manager.bind_row(s) for s in sequences], dtype=np.int64)


@given(batch=resident_batches())
@settings(max_examples=150, deadline=None)
def test_grow_batch_equals_sequential_walk_or_declines(batch):
    """``grow_batch`` either leaves exactly the state of the ordered
    ``append_tokens`` walk (each completing row released right after its
    growth) or declines and changes nothing."""
    manager, sequences, takes, completing = batch
    before = kv_state(manager)

    walked = copy.deepcopy(manager)
    walk_ok = []
    for sequence, take, done in zip(sequences, takes.tolist(), completing.tolist()):
        if take <= 0:
            continue
        walk_ok.append(walked.append_tokens(sequence, take))
        if done:
            walked.release(sequence)

    batched = copy.deepcopy(manager)
    if batched.grow_batch(row_handles(batched, sequences), takes, completing):
        assert all(walk_ok)
        for sequence, take, done in zip(sequences, takes.tolist(), completing.tolist()):
            if take > 0 and done:
                batched.release(sequence)
        assert kv_state(batched) == kv_state(walked)
    else:
        assert kv_state(batched) == before
        if isinstance(manager, StaticKVCacheManager):
            # The static condition is exact, not merely sufficient.
            assert not all(walk_ok)


def test_grow_batch_accepts_a_roomy_cache():
    """With room to spare the batch path is taken (and allocates)."""
    arch = ModelArch(
        name="prop", num_blocks=2, hidden_size=256, num_heads=4, ffn_hidden_size=512,
        vocab_size=1000, max_context=512,
    )
    manager = DistributedKVCacheManager(arch, kv_core_ids=list(range(16)), blocks_per_core=64)
    sequences = []
    for seq_id in range(4):
        sequence = Sequence(Request(request_id=seq_id, prefill_length=64, decode_length=8))
        sequence.start()
        assert manager.try_admit(sequence)
        sequences.append(sequence)
    takes = np.full(4, manager.tokens_per_block + 1, dtype=np.int64)
    before = manager.stats.allocated_blocks
    assert manager.grow_batch(
        row_handles(manager, sequences), takes, np.zeros(4, dtype=bool)
    )
    assert manager.stats.allocated_blocks > before
    assert manager.stats.peak_used_blocks == manager.used_blocks


# ---------------------------------------------------------------------------
# Array energy accounting
# ---------------------------------------------------------------------------


@given(
    bins=st.lists(
        st.tuples(
            st.tuples(*[st.floats(0, 1e-3, allow_nan=False)] * 4),
            st.integers(1, 1 << 20),
        ),
        min_size=1,
        max_size=40,
    ),
)
@settings(max_examples=150, deadline=None)
def test_fold_energy_equals_the_object_fold(bins):
    """The epoch's array energy reduction is the EnergyBreakdown fold, bit
    for bit, over any number of bins -- np.sum would regroup more than 8."""
    from repro.pipeline.engine import fold_energy

    expected = EnergyBreakdown()
    for fields, count in bins:
        expected = expected + EnergyBreakdown(*fields).scaled(count)
    per_token = np.asarray([fields for fields, _ in bins], dtype=np.float64)
    counts = np.asarray([count for _, count in bins], dtype=np.float64)
    assert fold_energy(per_token, counts) == expected


def test_fold_energy_keeps_row_order_past_eight_bins():
    """A sequence where pairwise summation rounds differently: the fold
    still matches the in-order object fold."""
    from repro.pipeline.engine import fold_energy

    values = [1.0, 1e-16, 1e-16, 1e-16, 1e-16, 1e-16, 1e-16, 1e-16, 1e-16, 1e-16,
              1e-16, 1e-16, 1e-16, 1e-16, 1e-16, 1e-16, 1e-16]
    per_token = np.asarray([[v, v, v, v] for v in values])
    counts = np.ones(len(values))
    expected = EnergyBreakdown()
    for v in values:
        expected = expected + EnergyBreakdown(v, v, v, v).scaled(1)
    assert fold_energy(per_token, counts) == expected
    assert float(np.sum(per_token[:, 0])) != expected.compute_j


@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, 4) | st.integers(0, 5000),
            st.integers(0, 3) | st.integers(0, 300),
            st.integers(0, 3) | st.integers(0, 300),
        ),
        min_size=1,
        max_size=60,
    ),
    quantum=st.sampled_from([1, 2, 7, 32, 256]),
)
@settings(max_examples=150, deadline=None)
def test_energy_bins_match_the_scalar_walk(rows, quantum):
    """The array bins are the scalar walk's dict: each segment keyed by
    ``max(1, round(avg / quantum) * quantum)``, row by row, prefill first."""
    from repro.pipeline.engine import _energy_bins

    walk: dict[int, int] = {}
    for position, prefill, decode in rows:
        for start, count in ((position, prefill), (position + prefill, decode)):
            if count:
                key = max(1, int(round((start + (count - 1) / 2.0) / quantum)) * quantum)
                walk[key] = walk.get(key, 0) + count
    positions, prefill, decode = (np.asarray(column, dtype=np.int64) for column in zip(*rows))
    bins, counts = _energy_bins(2 * positions - 1, prefill, decode, quantum)
    assert [max(1, int(i) * quantum) for i in bins] == list(walk)
    assert counts.tolist() == list(walk.values())


# ---------------------------------------------------------------------------
# Misc invariants
# ---------------------------------------------------------------------------


@given(
    compute=st.floats(0, 1e3, allow_nan=False),
    on_chip=st.floats(0, 1e3, allow_nan=False),
    off_chip=st.floats(0, 1e3, allow_nan=False),
    communication=st.floats(0, 1e3, allow_nan=False),
    scale=st.floats(0.1, 10.0, allow_nan=False),
)
def test_energy_breakdown_scaling(compute, on_chip, off_chip, communication, scale):
    energy = EnergyBreakdown(compute, on_chip, off_chip, communication)
    scaled = energy.scaled(scale)
    assert scaled.total_j == (
        scaled.compute_j + scaled.on_chip_memory_j + scaled.off_chip_memory_j + scaled.communication_j
    )
    assert abs(scaled.total_j - energy.total_j * scale) < 1e-6 * max(1.0, energy.total_j)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_wikitext_like_lengths_always_in_bounds(seed):
    import numpy as np

    distribution = WikiTextLikeDistribution()
    sample = distribution.sample(np.random.default_rng(seed))
    assert distribution.min_length <= sample.prefill_length <= distribution.max_length
    assert distribution.min_length <= sample.decode_length <= distribution.max_length

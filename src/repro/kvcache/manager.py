"""Distributed dynamic KV-cache management (Section 4.4).

The manager owns every CIM core that the inter-core weight mapping left
unassigned.  Those cores are split per transformer block into a K group
(computing S = Q K^T) and a V group (computing softmax(S) V).  For each
admitted sequence it allocates, per block and per attention head, one core from
each group (walking a ring pointer so that consecutively scheduled sequences
land on distinct cores, Section 4.4.3) and grows the per-head logical-block
allocation as the sequence's context expands.

Address translation is three-level (Fig. 12): a per-block page table maps the
sequence to per-head core coordinates; each core's bitmap maps the sequence to
logical blocks; each crossbar's free-block table tracks valid rows.  For
simulation speed the manager keeps the block occupancy in vectorised per-core
counters plus O(1) running totals (free/healthy block counts are maintained
incrementally, never recomputed by scanning the core arrays), and the ring
selection of admission cores is a handful of vectorised index operations.
The page tables are materialised exactly, as one core matrix per sequence
(:class:`~repro.kvcache.pagetable.PageTableStore`): nothing on the serving
path reads them back, but they are the placement record that inspection,
tests and checkpoints see.

Growth has two forms.  :meth:`DistributedKVCacheManager.append_tokens` grows
one sequence; :meth:`DistributedKVCacheManager.grow_batch` grows a whole
epoch's active set in a few array operations, but only when it can prove
that the equivalent ordered walk of ``append_tokens`` calls could not fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np
import numpy.typing as npt

from ..errors import ConfigurationError, KVCacheError
from ..models.architectures import ModelArch
from ..workload.requests import Sequence
from .blocks import tokens_per_block
from .pagetable import PageTableStore
from .quota import TenantQuotaLedger


@dataclass
class KVCacheStats:
    """Counters describing KV-cache behaviour over a run."""

    admitted_sequences: int = 0
    released_sequences: int = 0
    allocated_blocks: int = 0
    released_blocks: int = 0
    failed_admissions: int = 0
    failed_growths: int = 0
    #: admissions refused because the tenant's KV quota was exhausted
    #: (subset of ``failed_admissions``)
    quota_rejections: int = 0
    #: growths refused because the tenant's KV quota was exhausted
    #: (subset of ``failed_growths``)
    quota_blocked_growths: int = 0
    peak_used_blocks: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


@dataclass
class _SequenceAllocation:
    """Internal record of one resident sequence's KV allocation.

    ``slots[c]`` is the number of (block, head, K/V) slots the sequence holds
    on local core *c*, one entry per KV core: growth, release and fit checks
    are then contiguous whole-array operations, which beat fancy indexing
    even when a sequence touches only a third of the cores.  The sparse form
    (:attr:`unique_cores`, :attr:`unique_counts`) is what checkpoints store.
    """

    sequence_id: int
    slots: npt.NDArray[np.int64]
    blocks_per_slot: int
    tokens: int
    #: sum and maximum of ``slots`` (fixed for the allocation's life)
    total_slots: int
    max_slots_per_core: int

    @property
    def unique_cores(self) -> npt.NDArray[np.int64]:
        """Local indices of the cores the sequence touches, ascending."""
        # astype(copy=False) is a no-op view (intp == int64 on this
        # platform); it only pins the static type.
        return np.flatnonzero(self.slots).astype(np.int64, copy=False)

    @property
    def unique_counts(self) -> npt.NDArray[np.int64]:
        """Slots held on each of :attr:`unique_cores`."""
        return self.slots[self.unique_cores]


class DistributedKVCacheManager(TenantQuotaLedger):
    """Dynamic, distributed KV-cache manager with per-block ring allocation."""

    def __init__(
        self,
        arch: ModelArch,
        kv_core_ids: list[int],
        blocks_per_core: int = 256,
        threshold: float = 0.0,
        element_bytes: int | None = None,
    ) -> None:
        if not kv_core_ids:
            raise ConfigurationError("at least one KV core is required")
        if not 0.0 <= threshold < 1.0:
            raise ConfigurationError("threshold must lie in [0, 1)")
        if blocks_per_core <= 0:
            raise ConfigurationError("blocks_per_core must be positive")
        super().__init__(len(kv_core_ids) * blocks_per_core)
        self.arch = arch
        self.kv_core_ids = list(kv_core_ids)
        self.blocks_per_core = blocks_per_core
        self.threshold = threshold
        self.element_bytes = element_bytes or arch.activation_bytes
        self.tokens_per_block = tokens_per_block(arch.head_dim, self.element_bytes)
        self.stats = KVCacheStats()

        num_cores = len(self.kv_core_ids)
        self._free_blocks = np.full(num_cores, blocks_per_core, dtype=np.int64)
        self._core_index = {core_id: i for i, core_id in enumerate(self.kv_core_ids)}
        self._core_ids_array = np.asarray(self.kv_core_ids, dtype=np.int64)
        self._allocations: dict[int, _SequenceAllocation] = {}
        self._failed_cores: set[int] = set()
        #: O(1) running totals (kept in sync by every allocation mutation)
        self._free_total = num_cores * blocks_per_core
        self._free_on_failed = 0
        self._threshold_blocks = int(self.threshold * blocks_per_core)
        self._block_bytes = self.tokens_per_block * arch.head_dim * self.element_bytes

        # Split the KV cores into one (K group, V group) pair per transformer
        # block, preserving wafer order so that each block's KV cores sit near
        # its weight cores when the mapper interleaves them.
        self._k_groups: list[list[int]] = []
        self._v_groups: list[list[int]] = []
        groups = 2 * arch.num_blocks
        per_group = max(1, num_cores // groups)
        for block in range(arch.num_blocks):
            k_start = (2 * block) * per_group
            v_start = (2 * block + 1) * per_group
            k_group = list(range(k_start, min(k_start + per_group, num_cores)))
            v_group = list(range(v_start, min(v_start + per_group, num_cores)))
            if not k_group:
                k_group = [k_start % num_cores]
            if not v_group:
                v_group = [v_start % num_cores]
            self._k_groups.append(k_group)
            self._v_groups.append(v_group)
        #: per-block ring position of the next admission's first head
        self._ring_pointers: npt.NDArray[np.int64] = np.zeros(
            arch.num_blocks, dtype=np.int64
        )
        self._ring_sizes = np.asarray(
            [max(1, len(group)) for group in self._k_groups], dtype=np.int64
        )
        self._page_tables = PageTableStore(arch.num_blocks)
        #: per-block views of the page tables (lookup / inspection)
        self.page_tables = self._page_tables.tables()

        # Vectorised admission state: all (K, V) groups interleaved in block
        # order, as one flat index (a plain slice when the groups tile a
        # prefix of the cores, the usual layout) plus reduceat offsets, and
        # -- when every group has the same size -- the groups stacked as one
        # matrix plus a table of the ring positions each head takes from
        # each pointer, so one column gather picks every block's cores.
        group_arrays = [
            np.asarray(group, dtype=np.int64)
            for pair in zip(self._k_groups, self._v_groups)
            for group in pair
        ]
        concat = np.concatenate(group_arrays)
        self._grouped_cores: slice | npt.NDArray[np.int64] = (
            slice(0, len(concat))
            if np.array_equal(concat, np.arange(len(concat)))
            else concat
        )
        sizes = [len(group) for group in group_arrays]
        self._group_offsets = np.cumsum([0] + sizes[:-1])
        heads = self.arch.kv_heads
        self._group_matrix: npt.NDArray[np.int64] | None = None
        self._ring_table: npt.NDArray[np.int64] | None = None
        if len(set(sizes)) == 1:
            size = sizes[0]
            self._group_matrix = np.stack(group_arrays)
            # With fewer cores than heads the walk hands out each core once
            # in ring order, then pads every remaining head with the first.
            width = min(size, heads)
            ring = (np.arange(size)[:, None] + np.arange(width)[None, :]) % size
            self._ring_table = np.concatenate(
                [ring, np.repeat(ring[:, :1], heads - width, axis=1)], axis=1
            )

    # ------------------------------------------------------------------ sizing

    @property
    def num_kv_cores(self) -> int:
        return len(self.kv_core_ids)

    @property
    def total_blocks(self) -> int:
        return (self.num_kv_cores - len(self._failed_cores)) * self.blocks_per_core

    @property
    def used_blocks(self) -> int:
        return self.total_blocks - self._available_blocks()

    def _available_blocks(self) -> int:
        """Free blocks on healthy cores -- an O(1) incremental counter."""
        return self._free_total - self._free_on_failed

    @property
    def utilization(self) -> float:
        total = self.total_blocks
        return self.used_blocks / total if total else 0.0

    @property
    def capacity_bytes(self) -> int:
        """Raw KV capacity in bytes across all healthy KV cores (O(1))."""
        return self.total_blocks * self._block_bytes

    @property
    def resident_sequences(self) -> list[int]:
        return sorted(self._allocations)

    def tokens_cached(self, sequence_id: int) -> int:
        allocation = self._allocations.get(sequence_id)
        return allocation.tokens if allocation else 0

    def blocks_held(self, sequence_id: int) -> int:
        allocation = self._allocations.get(sequence_id)
        if allocation is None:
            return 0
        return allocation.blocks_per_slot * allocation.total_slots

    def max_concurrent_sequences(self, context_length: int) -> int:
        """How many sequences of a given context length fit simultaneously.

        Returns 0 when no healthy KV cores remain or when a single sequence of
        that context length needs more blocks than the whole cache holds.
        """
        total = self.total_blocks
        if total <= 0:
            return 0
        slots = 2 * self.arch.num_blocks * self.arch.kv_heads
        blocks_per_slot = max(1, math.ceil(max(0, context_length) / self.tokens_per_block))
        blocks_per_sequence = slots * blocks_per_slot
        if blocks_per_sequence == 0:
            return 0
        return total // blocks_per_sequence

    # -------------------------------------------------------------- allocation

    def _select_cores(self, group: list[int], pointer: int, count: int) -> list[int] | None:
        """Pick ``count`` cores from a ring group starting at ``pointer``.

        Cores whose free space is below the reservation threshold (or that have
        failed) are skipped for *new* allocations; if fewer than ``count``
        usable cores exist, cores may be reused for several heads.
        """
        threshold_blocks = self._threshold_blocks
        usable: list[int] = []
        size = len(group)
        for offset in range(size):
            local = group[(pointer + offset) % size]
            if self.kv_core_ids[local] in self._failed_cores:
                continue
            if self._free_blocks[local] <= threshold_blocks:
                continue
            usable.append(local)
            if len(usable) == count:
                break
        if not usable:
            return None
        while len(usable) < count:
            usable.append(usable[len(usable) % max(1, len(usable))])
        return usable[:count]

    def _select_all_blocks_fast(self) -> npt.NDArray[np.int64] | None:
        """Ring selection for every (block, K/V) group in one gather.

        Only valid when no core has failed and every core of every group sits
        above the reservation threshold (the overwhelmingly common case), and
        only for groups of one size, whose ring pointers advance in lockstep;
        the caller falls back to the per-group walk otherwise (None).
        Returns an array of shape ``(2 * num_blocks, kv_heads)`` of local
        core indices, rows alternating K group / V group per block.
        """
        if self._group_matrix is None or self._ring_table is None:
            return None
        pointer = int(self._ring_pointers[0])
        if not bool((self._ring_pointers == pointer).all()):
            return None
        return np.take(self._group_matrix, self._ring_table[pointer], axis=1)

    def try_admit(self, sequence: Sequence) -> bool:
        """Reserve one logical block per (block, head, K/V) slot for a sequence."""
        sequence_id = sequence.sequence_id
        if sequence_id in self._allocations:
            raise KVCacheError(f"sequence {sequence_id} is already resident")
        self.last_failure_quota_bound = False
        heads = self.arch.kv_heads
        num_blocks = self.arch.num_blocks

        if self._tenant_quota_blocks:
            # At admission every sequence reserves exactly one block per
            # (transformer block, KV head, K/V) slot, independent of where the
            # ring places them -- so the quota check can run before any
            # placement work.
            reserve = 2 * num_blocks * heads
            if not self._quota_allows(sequence.tenant, reserve):
                self.stats.failed_admissions += 1
                self.stats.quota_rejections += 1
                self.last_failure_quota_bound = True
                return False

        selection: npt.NDArray[np.int64] | None = None
        if not self._failed_cores:
            group_free = self._free_blocks[self._grouped_cores]
            if group_free.min() > self._threshold_blocks:
                # Every core of every group is usable: pure ring arithmetic.
                selection = self._select_all_blocks_fast()
            else:
                maxes = np.maximum.reduceat(group_free, self._group_offsets)
                if maxes.min() <= self._threshold_blocks:
                    # Some group has no usable core at all: admission fails
                    # before any placement work, exactly as the walk would.
                    self.stats.failed_admissions += 1
                    return False

        if selection is None:
            rows: list[list[int]] = []
            for block in range(num_blocks):
                pointer = int(self._ring_pointers[block])
                k_cores = self._select_cores(self._k_groups[block], pointer, heads)
                v_cores = self._select_cores(self._v_groups[block], pointer, heads)
                if k_cores is None or v_cores is None:
                    self.stats.failed_admissions += 1
                    return False
                rows.append(k_cores)
                rows.append(v_cores)
            selection = np.asarray(rows, dtype=np.int64)

        # astype(copy=False) is a no-op view here (bincount yields intp ==
        # int64 on this platform); it only pins the static type.
        counts = np.bincount(selection.ravel(), minlength=self.num_kv_cores).astype(
            np.int64, copy=False
        )
        if bool((self._free_blocks < counts).any()):
            self.stats.failed_admissions += 1
            return False

        self._free_blocks -= counts
        total_reserved = int(selection.size)
        self._free_total -= total_reserved
        self._charge_tenant(sequence.tenant, total_reserved)
        self._allocations[sequence_id] = _SequenceAllocation(
            sequence_id=sequence_id,
            slots=counts,
            blocks_per_slot=1,
            tokens=0,
            total_slots=total_reserved,
            max_slots_per_core=int(counts.max()),
        )
        self._page_tables.register(sequence_id, self._core_ids_array[selection])
        self._ring_pointers = (self._ring_pointers + heads) % self._ring_sizes
        self.stats.admitted_sequences += 1
        self.stats.allocated_blocks += total_reserved
        self._update_peak()
        return True

    def append_tokens(self, sequence: Sequence, count: int = 1) -> bool:
        """Reserve KV space for ``count`` more tokens of a resident sequence."""
        if count < 0:
            raise KVCacheError("count must be non-negative")
        allocation = self._allocations.get(sequence.sequence_id)
        if allocation is None:
            raise KVCacheError(
                f"sequence {sequence.sequence_id} is not resident in the KV cache"
            )
        self.last_failure_quota_bound = False
        new_tokens = allocation.tokens + count
        needed = max(1, math.ceil(new_tokens / self.tokens_per_block))
        delta = needed - allocation.blocks_per_slot
        if delta > 0:
            total_required = allocation.total_slots * delta
            if not self._quota_allows(sequence.tenant, total_required):
                self.stats.failed_growths += 1
                self.stats.quota_blocked_growths += 1
                self.last_failure_quota_bound = True
                return False
            required = allocation.slots * delta
            if bool((self._free_blocks < required).any()):
                self.stats.failed_growths += 1
                return False
            self._free_blocks -= required
            self._free_total -= total_required
            self._charge_tenant(sequence.tenant, total_required)
            if self._failed_cores:
                self._free_on_failed -= self._sum_on_failed(allocation, delta)
            allocation.blocks_per_slot = needed
            self.stats.allocated_blocks += total_required
            # Only an allocating growth can raise the used count.
            self._update_peak()
        allocation.tokens = new_tokens
        return True

    def grow_batch(
        self,
        sequences: list[Sequence],
        takes: npt.NDArray[np.int64],
        completing: npt.NDArray[np.bool_],
    ) -> bool:
        """Grow every sequence by its take at once, or change nothing.

        Equivalent to the ordered walk ``append_tokens(sequences[i],
        takes[i])`` over the nonzero takes, with ``release(sequences[i])``
        right after each ``completing`` row's growth — applied only when a
        sufficient condition proves that no growth in that walk can fail:

        * no core has failed;
        * the least free core has room for the worst case of every growing
          row landing on it, ``sum(max(unique_counts) * new blocks per
          slot)``; and
        * no capped tenant's holding plus all its rows' growth exceeds its
          cap.

        Releases in the walk only add free blocks, so ignoring them keeps the
        condition sound.  Otherwise returns False with no state touched.  On
        success every stat matches the walk's — ``peak_used_blocks`` is the
        walk's prefix maximum — but the releases are left to the caller.
        """
        if self._failed_cores:
            return False
        allocations = self._allocations
        try:
            batch = [allocations[sequence.sequence_id] for sequence in sequences]
        except KeyError as exc:
            raise KVCacheError(
                f"sequence {exc.args[0]} is not resident in the KV cache"
            ) from None
        if len(takes) and int(takes.min()) < 0:
            raise KVCacheError("count must be non-negative")
        tokens = np.fromiter(
            (allocation.tokens for allocation in batch), dtype=np.int64, count=len(batch)
        )
        grown = tokens + takes
        per_block = self.tokens_per_block
        # blocks_per_slot == max(1, ceil(tokens / tokens_per_block)) always
        needed = np.maximum(1, -(-grown // per_block))
        deltas = needed - np.maximum(1, -(-tokens // per_block))
        crossing = np.flatnonzero(deltas).tolist()  # rows allocating blocks
        new_blocks = {row: batch[row].total_slots * int(deltas[row]) for row in crossing}
        if crossing:
            worst = sum(
                batch[row].max_slots_per_core * int(deltas[row]) for row in crossing
            )
            if worst > int(self._free_blocks.min()):
                return False
        caps = self._tenant_quota_blocks
        if caps:
            tenant_growth: dict[str, int] = {}
            for row, blocks in new_blocks.items():
                tenant = sequences[row].tenant
                if tenant in caps:
                    tenant_growth[tenant] = tenant_growth.get(tenant, 0) + blocks
            for tenant, blocks in tenant_growth.items():
                if self._tenant_used[tenant] + blocks > caps[tenant]:
                    return False

        # Proven: apply.  The peak is the walk's prefix maximum over "grow
        # row i, then release it if it completes".  Between events the used
        # count only falls, so the events (and the starting count) suffice.
        used = self.used_blocks
        peak = self.stats.peak_used_blocks
        if bool(takes.any()):
            self.last_failure_quota_bound = False
            peak = max(peak, used)
        releases = {
            row: batch[row].total_slots * int(needed[row])
            for row in np.flatnonzero(completing & (takes > 0)).tolist()
        }
        for row in sorted(new_blocks.keys() | releases.keys()):
            used += new_blocks.get(row, 0)
            peak = max(peak, used)
            used -= releases.get(row, 0)
        for row, blocks in new_blocks.items():
            allocation = batch[row]
            delta = int(deltas[row])
            # Most growths add one block per slot: skip the multiply.
            self._free_blocks -= allocation.slots if delta == 1 else allocation.slots * delta
            allocation.blocks_per_slot = int(needed[row])
            self._charge_tenant(sequences[row].tenant, blocks)
        allocated = sum(new_blocks.values())
        self._free_total -= allocated
        self.stats.allocated_blocks += allocated
        self.stats.peak_used_blocks = peak
        for allocation, count in zip(batch, grown.tolist()):
            allocation.tokens = count
        return True

    def release(self, sequence: Sequence) -> None:
        """Free every block held by a sequence (completion or eviction)."""
        allocation = self._allocations.pop(sequence.sequence_id, None)
        if allocation is None:
            return
        self._free_blocks += allocation.slots * allocation.blocks_per_slot
        returned = allocation.total_slots * allocation.blocks_per_slot
        self._free_total += returned
        self._charge_tenant(sequence.tenant, -returned)
        if self._failed_cores:
            self._free_on_failed += self._sum_on_failed(
                allocation, allocation.blocks_per_slot
            )
        self._page_tables.remove(sequence.sequence_id)
        self.stats.released_sequences += 1
        self.stats.released_blocks += returned

    def _sum_on_failed(self, allocation: _SequenceAllocation, per_slot: int) -> int:
        """Blocks of an allocation delta that land on failed cores."""
        failed_locals = [
            self._core_index[core_id]
            for core_id in sorted(self._failed_cores)
        ]
        return int(allocation.slots[failed_locals].sum()) * per_slot

    # ---------------------------------------------------------------- failures

    def fail_core(self, core_id: int) -> list[int]:
        """Mark a KV core as failed; return ids of sequences needing recompute.

        Per Section 4.3.3, when a KV-storage core fails only the sequences
        stored on that core need recomputation.
        """
        if core_id not in self._core_index:
            raise KVCacheError(f"core {core_id} is not a KV core")
        local = self._core_index[core_id]
        if core_id not in self._failed_cores:
            self._free_on_failed += int(self._free_blocks[local])
        self._failed_cores.add(core_id)
        affected = [
            allocation.sequence_id
            for allocation in self._allocations.values()
            if allocation.slots[local] > 0
        ]
        return affected

    @property
    def failed_cores(self) -> set[int]:
        return set(self._failed_cores)

    def sequences_on_core(self, core_id: int) -> list[int]:
        """Ids of resident sequences with at least one slot on ``core_id``.

        The blast radius of a transient block loss on one core: unlike
        :meth:`fail_core` the core stays healthy, but the listed sequences'
        cached context is gone and must be recomputed.
        """
        if core_id not in self._core_index:
            raise KVCacheError(f"core {core_id} is not a KV core")
        local = self._core_index[core_id]
        return [
            allocation.sequence_id
            for allocation in self._allocations.values()
            if allocation.slots[local] > 0
        ]

    # -------------------------------------------------------------- checkpoint

    def snapshot_state(self) -> dict[str, Any]:
        """JSON-able occupancy state for a bit-for-bit checkpoint.

        Derived vectorised state (group arrays/matrices, running caches) is
        rebuilt by ``__init__`` deterministically from the configuration and
        is deliberately not part of the snapshot.
        """
        return {
            "free_blocks": self._free_blocks.tolist(),
            "allocations": [
                [
                    allocation.sequence_id,
                    {
                        "cores": allocation.unique_cores.tolist(),
                        "counts": allocation.unique_counts.tolist(),
                        "blocks_per_slot": allocation.blocks_per_slot,
                        "tokens": allocation.tokens,
                    },
                ]
                for allocation in self._allocations.values()
            ],
            "ring_pointers": self._ring_pointers.tolist(),
            "page_tables": self._page_tables.snapshot_state(),
            "failed_cores": sorted(self._failed_cores),
            "free_total": self._free_total,
            "free_on_failed": self._free_on_failed,
            **self._quota_state(),
            "stats": dict(self.stats.__dict__),
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        self._free_blocks = np.asarray(state["free_blocks"], dtype=np.int64)
        self._allocations = {}
        for sequence_id, data in state["allocations"]:
            slots = np.zeros(self.num_kv_cores, dtype=np.int64)
            slots[np.asarray(data["cores"], dtype=np.int64)] = data["counts"]
            self._allocations[sequence_id] = _SequenceAllocation(
                sequence_id=sequence_id,
                slots=slots,
                blocks_per_slot=data["blocks_per_slot"],
                tokens=data["tokens"],
                total_slots=int(slots.sum()),
                max_slots_per_core=int(slots.max()),
            )
        self._ring_pointers = np.asarray(state["ring_pointers"], dtype=np.int64)
        self._page_tables.restore_state(state["page_tables"])
        self._failed_cores = set(state["failed_cores"])
        self._free_total = state["free_total"]
        self._free_on_failed = state["free_on_failed"]
        self._restore_quota_state(state)
        self.stats = KVCacheStats(**state["stats"])

    # ------------------------------------------------------------------ private

    def _update_peak(self) -> None:
        used = self.used_blocks
        if used > self.stats.peak_used_blocks:
            self.stats.peak_used_blocks = used

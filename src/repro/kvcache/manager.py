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
logical blocks; each crossbar's free-block table tracks valid rows.  The page
tables are materialised exactly, as one core matrix per sequence
(:class:`~repro.kvcache.pagetable.PageTableStore`): nothing on the serving
path reads them back, but they are the placement record that inspection,
tests and checkpoints see.

Occupancy has two forms.  When every group has the same size and the groups
tile a prefix of the cores, the usual layout, an admission that finds every
core above the reservation threshold is *ring-placed*: the shared ring pointer
``p`` puts head ``h`` at offset ``(p + h) mod size`` of every group, so the
sequence has the same per-core pattern in every group.  Ring-placed blocks are
counted per ring offset (``_ring_used``, one entry per offset, a few dozen to
a few hundred entries), and admission, growth, release and the fit checks
work on that vector and the allocation's row of ``_ring_counts``.  Every other
allocation (placed by the per-group walk past near-full or failed cores, or
restored from a checkpoint) keeps a dense per-core slot vector, summed into
``_free_blocks``.  The free count of core ``c`` is ``_free_blocks[c]`` minus
``_ring_used`` at its offset; the per-core vector is built only for the walk,
snapshots and mixed states.  The first failed core turns every ring
allocation dense and ends ring placement.  A checkpoint restores every
allocation dense; new admissions are ring-placed again alongside them.  Free
and healthy block totals are O(1) running counters.

Each resident allocation is one int64 column
(:class:`~repro.kvcache.rows.AllocationRows`) whose index, its row handle,
the scheduler's active rows carry (:meth:`DistributedKVCacheManager.bind_row`).

Growth has two forms.  :meth:`DistributedKVCacheManager.append_tokens` grows
one sequence; :meth:`DistributedKVCacheManager.grow_batch` gathers a whole
epoch's rows by handle and grows them in a few array operations (the peak is
an integer prefix maximum over the walk's grow/release events), but only
when it can prove that the equivalent ordered walk of ``append_tokens``
calls could not fail.
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
from .rows import TOKENS, AllocationRows


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


#: fields of the allocation columns (:class:`~repro.kvcache.rows.AllocationRows`;
#: field 0 is the token count)
_BLOCKS_PER_SLOT = 1  #: blocks in each (block, head, K/V) slot
_TOTAL_SLOTS = 2  #: slots held, fixed for the allocation's life
_MAX_SLOTS = 3  #: most slots on any one core (next to _TOTAL_SLOTS: one slice)
_TENANT = 4  #: index into ``_tenant_index``, -1 until known
_RING = 5  #: ring pointer (row of ``_ring_counts``), -1 for a dense allocation
_FIELDS = 6


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
        #: one column per resident allocation (see the field constants)
        self._rows = AllocationRows(_FIELDS)
        #: row handle -> per-core slots, for the dense allocations only
        self._slots: dict[int, npt.NDArray[np.int64]] = {}
        #: tenant -> index in the ``_TENANT`` field
        self._tenant_index: dict[str, int] = {}
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

        # Ring-offset occupancy needs equal groups that tile a prefix of the
        # cores: core c < _ring_span then sits at ring offset c % size.
        # _ring_counts[p, o] is how many heads a ring admission at pointer p
        # puts on offset o (2 at o == p when padded heads double up); its
        # extra last row is zero, so a dense allocation's pointer -1 gathers
        # no ring blocks.
        self._ring_counts: npt.NDArray[np.int64] | None = None
        self._ring_span = 0
        self._ring_used = np.zeros(0, dtype=np.int64)
        if self._ring_table is not None and isinstance(self._grouped_cores, slice):
            size = sizes[0]
            counts = np.zeros((size + 1, size), dtype=np.int64)
            np.add.at(counts, (np.arange(size)[:, None], self._ring_table), 1)
            self._ring_counts = counts
            self._ring_span = len(concat)
            self._ring_used = np.zeros(size, dtype=np.int64)
        #: resident allocations of each form
        self._ring_resident = 0
        self._dense_resident = 0

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
        return sorted(self._rows.handles)

    def tokens_cached(self, sequence_id: int) -> int:
        handle = self._rows.handles.get(sequence_id)
        return 0 if handle is None else int(self._rows.columns[TOKENS, handle])

    def blocks_held(self, sequence_id: int) -> int:
        handle = self._rows.handles.get(sequence_id)
        if handle is None:
            return 0
        columns = self._rows.columns
        return int(columns[_BLOCKS_PER_SLOT, handle] * columns[_TOTAL_SLOTS, handle])

    def bind_row(self, sequence: Sequence) -> int:
        """Row handle of a resident sequence's allocation (-1 if not resident).

        Also records the sequence's tenant on the row: a restored row learns
        it here (checkpoints store placements, not tenants).
        """
        handle = self._rows.handles.get(sequence.sequence_id)
        if handle is None:
            return -1
        if self._rows.columns[_TENANT, handle] < 0:
            self._rows.columns[_TENANT, handle] = self._tenant_row(sequence.tenant)
        return handle

    def _tenant_row(self, tenant: str) -> int:
        return self._tenant_index.setdefault(tenant, len(self._tenant_index))

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

    def _select_cores(
        self, group: list[int], pointer: int, count: int, free: npt.NDArray[np.int64]
    ) -> list[int] | None:
        """Pick ``count`` cores from a ring group starting at ``pointer``.

        Cores whose free space (``free``, per core) is below the reservation
        threshold (or that have failed) are skipped for *new* allocations; if
        fewer than ``count`` usable cores exist, cores may be reused for
        several heads.
        """
        threshold_blocks = self._threshold_blocks
        usable: list[int] = []
        size = len(group)
        for offset in range(size):
            local = group[(pointer + offset) % size]
            if self.kv_core_ids[local] in self._failed_cores:
                continue
            if free[local] <= threshold_blocks:
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
        if sequence_id in self._rows.handles:
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

        if self._ring_counts is not None and not self._failed_cores:
            headroom = self._ring_headroom()
            if int(headroom.min()) > self._threshold_blocks:
                # Every core of every group is usable: pure ring arithmetic,
                # checked and charged per ring offset.
                selection = self._select_all_blocks_fast()
                if selection is not None:
                    pointer = int(self._ring_pointers[0])
                    ring = self._ring_counts[pointer]
                    if bool((headroom < ring).any()):
                        self.stats.failed_admissions += 1
                        return False
                    self._ring_used += ring
                    self._ring_resident += 1
                    self._commit_admission(sequence, selection, pointer, ring)
                    return True

        free = self._core_free()
        selection = None
        if not self._failed_cores:
            group_free = free[self._grouped_cores]
            if group_free.min() > self._threshold_blocks:
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
                k_cores = self._select_cores(self._k_groups[block], pointer, heads, free)
                v_cores = self._select_cores(self._v_groups[block], pointer, heads, free)
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
        if bool((free < counts).any()):
            self.stats.failed_admissions += 1
            return False
        self._free_blocks -= counts
        self._dense_resident += 1
        handle = self._commit_admission(sequence, selection, -1, counts)
        self._slots[handle] = counts
        return True

    def _commit_admission(
        self,
        sequence: Sequence,
        selection: npt.NDArray[np.int64],
        ring_pointer: int,
        placed: npt.NDArray[np.int64],
    ) -> int:
        """Record an admission whose per-core (or per-offset) occupancy,
        ``placed``, is already charged; return the new row handle."""
        total_reserved = int(selection.size)
        self._free_total -= total_reserved
        self._charge_tenant(sequence.tenant, total_reserved)
        handle = self._rows.claim(sequence.sequence_id, (
            0, 1, total_reserved, int(placed.max()),
            self._tenant_row(sequence.tenant), ring_pointer,
        ))
        self._page_tables.register(sequence.sequence_id, self._core_ids_array[selection])
        self._ring_pointers = (self._ring_pointers + self.arch.kv_heads) % self._ring_sizes
        self.stats.admitted_sequences += 1
        self.stats.allocated_blocks += total_reserved
        self._update_peak()
        return handle

    def append_tokens(self, sequence: Sequence, count: int = 1) -> bool:
        """Reserve KV space for ``count`` more tokens of a resident sequence."""
        if count < 0:
            raise KVCacheError("count must be non-negative")
        handle = self._rows.handles.get(sequence.sequence_id)
        if handle is None:
            raise KVCacheError(
                f"sequence {sequence.sequence_id} is not resident in the KV cache"
            )
        self.last_failure_quota_bound = False
        columns = self._rows.columns
        tokens, blocks_per_slot, total_slots = columns[:_MAX_SLOTS, handle].tolist()
        new_tokens = tokens + count
        needed = max(1, math.ceil(new_tokens / self.tokens_per_block))
        delta = needed - blocks_per_slot
        if delta > 0:
            total_required = total_slots * delta
            if not self._quota_allows(sequence.tenant, total_required):
                self.stats.failed_growths += 1
                self.stats.quota_blocked_growths += 1
                self.last_failure_quota_bound = True
                return False
            slots = self._slots.get(handle)
            if slots is None:
                required = self._ring_row(handle) * delta
                if bool((self._ring_headroom() < required).any()):
                    self.stats.failed_growths += 1
                    return False
                self._ring_used += required
            else:
                required = slots * delta
                if bool((self._core_free() < required).any()):
                    self.stats.failed_growths += 1
                    return False
                self._free_blocks -= required
                if self._failed_cores:
                    self._free_on_failed -= self._sum_on_failed(slots, delta)
            self._free_total -= total_required
            self._charge_tenant(sequence.tenant, total_required)
            columns[_BLOCKS_PER_SLOT, handle] = needed
            self.stats.allocated_blocks += total_required
            # Only an allocating growth can raise the used count.
            self._update_peak()
        columns[TOKENS, handle] = new_tokens
        return True

    def grow_batch(
        self,
        handles: npt.NDArray[np.int64],
        takes: npt.NDArray[np.int64],
        completing: npt.NDArray[np.bool_],
    ) -> bool:
        """Grow every row by its take at once, or change nothing.

        ``handles`` are the rows' handles (:meth:`bind_row`).  Equivalent to
        the ordered walk ``append_tokens(row i, takes[i])`` over the nonzero
        takes, with ``release(row i)`` right after each ``completing`` row's
        growth -- applied only when a sufficient condition proves that no
        growth in that walk can fail:

        * no core has failed;
        * the least free core has room for the worst case of every growing
          row landing on it, ``sum(max slots per core * new blocks per
          slot)``; and
        * no capped tenant's holding plus all its rows' growth exceeds its
          cap.

        Releases in the walk only add free blocks, so ignoring them keeps the
        condition sound.  Otherwise returns False with no state touched.  On
        success every stat matches the walk's -- ``peak_used_blocks`` is the
        walk's prefix maximum -- but the releases are left to the caller.
        """
        if self._failed_cores:
            return False
        if not len(handles):
            return True
        columns = self._rows.columns[:, handles]
        tokens = columns[TOKENS]
        if int(np.minimum(tokens, takes).min()) < 0:
            if int(tokens.min()) < 0:
                raise KVCacheError(
                    "grow_batch got the handle of a row that is not resident"
                )
            raise KVCacheError("count must be non-negative")
        grown = tokens + takes
        per_block = self.tokens_per_block
        needed = np.maximum(1, (grown + (per_block - 1)) // per_block)
        deltas = needed - columns[_BLOCKS_PER_SLOT]
        crossing = deltas.nonzero()[0]  # rows allocating blocks
        if not len(crossing):
            # No row allocates: the walk only counts tokens.
            if self.last_failure_quota_bound and np.count_nonzero(takes):
                self.last_failure_quota_bound = False
            self._rows.columns[TOKENS, handles] = grown
            return True
        # Integer matmul: exact, no BLAS.
        allocated, worst = (columns[_TOTAL_SLOTS : _MAX_SLOTS + 1] @ deltas).tolist()
        if worst > self._min_free():
            return False
        charges: list[tuple[str, int]] = []
        caps = self._tenant_quota_blocks
        if caps:
            tenants = columns[_TENANT]
            if int(tenants.min()) < 0:
                return False  # a restored row not yet bound: leave it to the walk
            names = list(self._tenant_index)
            by_tenant = np.bincount(tenants, weights=columns[_TOTAL_SLOTS] * deltas)
            for index, blocks in enumerate(by_tenant.tolist()):
                cap = caps.get(names[index])
                if cap is None or not blocks:
                    continue
                if self._tenant_used[names[index]] + blocks > cap:
                    return False
                charges.append((names[index], int(blocks)))

        # Proven: apply.  The peak is the walk's prefix maximum over "grow
        # row i, then release it if it completes": the used count right
        # after row i's growth is used + sum(growth up to i) - sum(releases
        # before i).  Between events the used count only falls, and it never
        # exceeds used + allocated.
        used = self.used_blocks
        peak = self.stats.peak_used_blocks
        if used + allocated > peak:
            level = allocated
            if np.count_nonzero(completing):
                grows = columns[_TOTAL_SLOTS] * deltas
                releases = np.where(
                    completing & (takes > 0), columns[_TOTAL_SLOTS] * needed, 0
                )
                level = int((np.cumsum(grows - releases) + releases).max())
            self.stats.peak_used_blocks = max(peak, used + level)
        if self._ring_resident:
            # A dense row's pointer -1 gathers the all-zero last row.
            assert self._ring_counts is not None
            self._ring_used += (
                deltas[crossing] @ self._ring_counts[columns[_RING, crossing]]
            )
        if self._dense_resident:
            for row in crossing.tolist():
                if columns[_RING, row] < 0:
                    delta = int(deltas[row])
                    self._free_blocks -= self._slots[int(handles[row])] * delta
        self._rows.columns[_BLOCKS_PER_SLOT, handles] = needed
        self._rows.columns[TOKENS, handles] = grown
        for tenant, blocks in charges:
            self._charge_tenant(tenant, blocks)
        self._free_total -= allocated
        self.stats.allocated_blocks += allocated
        self.last_failure_quota_bound = False
        return True

    def release(self, sequence: Sequence) -> None:
        """Free every block held by a sequence (completion or eviction)."""
        handle = self._rows.release(sequence.sequence_id)
        if handle is None:
            return
        columns = self._rows.columns
        blocks_per_slot = int(columns[_BLOCKS_PER_SLOT, handle])
        slots = self._slots.pop(handle, None)
        if slots is None:
            self._ring_used -= self._ring_row(handle) * blocks_per_slot
            self._ring_resident -= 1
        else:
            self._free_blocks += slots * blocks_per_slot
            self._dense_resident -= 1
            if self._failed_cores:
                self._free_on_failed += self._sum_on_failed(slots, blocks_per_slot)
        returned = int(columns[_TOTAL_SLOTS, handle]) * blocks_per_slot
        self._free_total += returned
        self._charge_tenant(sequence.tenant, -returned)
        self._page_tables.remove(sequence.sequence_id)
        self.stats.released_sequences += 1
        self.stats.released_blocks += returned

    def _sum_on_failed(self, slots: npt.NDArray[np.int64], per_slot: int) -> int:
        """Blocks of a dense allocation delta that land on failed cores."""
        failed_locals = [
            self._core_index[core_id]
            for core_id in sorted(self._failed_cores)
        ]
        return int(slots[failed_locals].sum()) * per_slot

    # --------------------------------------------------------------- occupancy

    def _core_free(self) -> npt.NDArray[np.int64]:
        """Free blocks per KV core: ``_free_blocks`` itself (not a copy) while
        no ring allocation is resident."""
        if not self._ring_resident:
            return self._free_blocks
        free = self._free_blocks.copy()
        grouped = free[: self._ring_span].reshape(-1, len(self._ring_used))
        grouped -= self._ring_used
        return free

    def _ring_headroom(self) -> npt.NDArray[np.int64]:
        """Least free blocks at each ring offset, over all groups."""
        if self._dense_resident:
            grouped = self._free_blocks[: self._ring_span].reshape(-1, len(self._ring_used))
            return grouped.min(axis=0) - self._ring_used
        # With no dense allocation resident every grouped core has
        # blocks_per_core minus its ring offset's use.
        return self.blocks_per_core - self._ring_used

    def _min_free(self) -> int:
        """Free blocks on the least free KV core."""
        if not self._ring_resident:
            return int(self._free_blocks.min())
        # Cores past the ring span belong to no group, so they are never
        # allocated and are never the least free.
        if not self._dense_resident:
            return self.blocks_per_core - int(self._ring_used.max())
        return int(self._ring_headroom().min())

    def _ring_row(self, handle: int) -> npt.NDArray[np.int64]:
        """Per-offset slots of a ring-placed row (its ``_ring_counts`` row)."""
        assert self._ring_counts is not None
        return self._ring_counts[self._rows.columns[_RING, handle]]

    def _placement(
        self, handle: int
    ) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
        """Local indices of the cores a row's allocation touches (ascending)
        and the slots it holds on each."""
        slots = self._slots.get(handle)
        if slots is not None:
            # astype(copy=False) is a no-op view (intp == int64 on this
            # platform); it only pins the static type.
            cores = np.flatnonzero(slots).astype(np.int64, copy=False)
            return cores, slots[cores]
        ring = self._ring_row(handle)
        offsets = np.flatnonzero(ring)
        starts = np.arange(0, self._ring_span, len(self._ring_used))
        cores = (starts[:, None] + offsets[None, :]).ravel().astype(np.int64, copy=False)
        return cores, np.tile(ring[offsets], len(starts))

    def _densify(self) -> None:
        """Turn every ring allocation into a dense per-core slot vector."""
        self._free_blocks = self._core_free()
        for handle in self._rows.handles.values():
            if handle not in self._slots:
                slots = np.zeros(self.num_kv_cores, dtype=np.int64)
                cores, counts = self._placement(handle)
                slots[cores] = counts
                self._slots[handle] = slots
                self._rows.columns[_RING, handle] = -1
        self._dense_resident += self._ring_resident
        self._ring_resident = 0
        self._ring_used[:] = 0

    # ---------------------------------------------------------------- failures

    def fail_core(self, core_id: int) -> list[int]:
        """Mark a KV core as failed; return ids of sequences needing recompute.

        Per Section 4.3.3, when a KV-storage core fails only the sequences
        stored on that core need recomputation.
        """
        if core_id not in self._core_index:
            raise KVCacheError(f"core {core_id} is not a KV core")
        if self._ring_resident:
            self._densify()
        local = self._core_index[core_id]
        if core_id not in self._failed_cores:
            self._free_on_failed += int(self._free_blocks[local])
        self._failed_cores.add(core_id)
        return self.sequences_on_core(core_id)

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
            sequence_id
            for sequence_id, handle in self._rows.handles.items()
            if self._holds(handle, local)
        ]

    def _holds(self, handle: int, local: int) -> bool:
        """Whether a row's allocation has a slot on local core ``local``."""
        slots = self._slots.get(handle)
        if slots is not None:
            return bool(slots[local] > 0)
        size = len(self._ring_used)
        return local < self._ring_span and bool(self._ring_row(handle)[local % size] > 0)

    # -------------------------------------------------------------- checkpoint

    def snapshot_state(self) -> dict[str, Any]:
        """JSON-able occupancy state for a bit-for-bit checkpoint.

        Derived vectorised state (group arrays/matrices, ring-offset
        occupancy, running caches) is rebuilt by ``__init__`` and
        :meth:`restore_state` deterministically and is deliberately not part
        of the snapshot: every allocation is stored as its per-core
        placement.
        """
        columns = self._rows.columns
        allocations = []
        for sequence_id, handle in self._rows.handles.items():
            cores, counts = self._placement(handle)
            allocations.append([
                sequence_id,
                {
                    "cores": cores.tolist(),
                    "counts": counts.tolist(),
                    "blocks_per_slot": int(columns[_BLOCKS_PER_SLOT, handle]),
                    "tokens": int(columns[TOKENS, handle]),
                },
            ])
        return {
            "free_blocks": self._core_free().tolist(),
            "allocations": allocations,
            "ring_pointers": self._ring_pointers.tolist(),
            "page_tables": self._page_tables.snapshot_state(),
            "failed_cores": sorted(self._failed_cores),
            "free_total": self._free_total,
            "free_on_failed": self._free_on_failed,
            **self._quota_state(),
            "stats": dict(self.stats.__dict__),
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Restore a :meth:`snapshot_state`; every allocation comes back dense.

        The rows' tenants are unknown until :meth:`bind_row` sees each
        sequence.
        """
        self._free_blocks = np.asarray(state["free_blocks"], dtype=np.int64)
        self._rows = AllocationRows(_FIELDS)
        self._slots = {}
        for sequence_id, data in state["allocations"]:
            slots = np.zeros(self.num_kv_cores, dtype=np.int64)
            slots[np.asarray(data["cores"], dtype=np.int64)] = data["counts"]
            handle = self._rows.claim(sequence_id, (
                data["tokens"], data["blocks_per_slot"], int(slots.sum()),
                int(slots.max()), -1, -1,
            ))
            self._slots[handle] = slots
        self._ring_used[:] = 0
        self._ring_resident = 0
        self._dense_resident = len(self._slots)
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

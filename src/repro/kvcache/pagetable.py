"""First-level KV address translation: sequence -> per-head core coordinates.

Fig. 12a: the page table, kept on an amortised storage core per transformer
block, maps a sequence number to the list of core coordinates that store each
of its attention heads (one core per head, per K/V group).

Admission places a sequence in every transformer block at once, so the page
tables of all blocks share one :class:`PageTableStore`: a single
``(2 * num_blocks, kv_heads)`` core matrix per sequence, rows alternating K
group / V group per block.  Registering or removing a sequence is one dict
operation, not one per block.  Each block's :class:`PageTable` is a
read-only view of its two rows; :class:`HeadPlacement` objects are
materialised only on :meth:`PageTable.lookup`, so the serving hot path never
builds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
import numpy.typing as npt

from ..errors import KVCacheError


@dataclass(frozen=True)
class HeadPlacement:
    """Where one attention head's K and V data of one sequence live."""

    head: int
    k_core: int
    v_core: int


class PageTableStore:
    """The page tables of ``num_blocks`` transformer blocks: one core matrix
    per sequence."""

    def __init__(self, num_blocks: int) -> None:
        self.num_blocks = num_blocks
        self._entries: dict[int, npt.NDArray[np.int64]] = {}

    def register(self, sequence_id: int, cores: npt.NDArray[np.int64]) -> None:
        """Register a sequence's ``(2 * num_blocks, kv_heads)`` core matrix."""
        if sequence_id in self._entries:
            raise KVCacheError(f"sequence {sequence_id} already has page-table entries")
        if cores.shape[0] != 2 * self.num_blocks:
            raise KVCacheError(
                f"page-table matrix has {cores.shape[0]} rows, expected "
                f"{2 * self.num_blocks}"
            )
        self._entries[sequence_id] = cores

    def remove(self, sequence_id: int) -> None:
        self._entries.pop(sequence_id, None)

    def contains(self, sequence_id: int) -> bool:
        return sequence_id in self._entries

    def cores(self, sequence_id: int, block: int) -> npt.NDArray[np.int64]:
        """The ``(2, kv_heads)`` K/V core rows of one block (KeyError if absent)."""
        return self._entries[sequence_id][2 * block : 2 * block + 2]

    def tables(self) -> list["PageTable"]:
        """One per-block view, in block order."""
        return [PageTable(block, self) for block in range(self.num_blocks)]

    @property
    def resident_sequences(self) -> list[int]:
        return sorted(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def block_state(self, block: int) -> list[list[Any]]:
        """One block's JSON-able entry list, in insertion order."""
        return [
            [sequence_id, cores[2 * block].tolist(), cores[2 * block + 1].tolist()]
            for sequence_id, cores in self._entries.items()
        ]

    def snapshot_state(self) -> list[list[list[Any]]]:
        """Every block's entry list (the per-``PageTable`` checkpoint JSON)."""
        return [self.block_state(block) for block in range(self.num_blocks)]

    def restore_state(self, state: list[list[list[Any]]]) -> None:
        """Rebuild from :meth:`snapshot_state` output (one list per block)."""
        if len(state) != self.num_blocks:
            raise KVCacheError(
                f"checkpoint has {len(state)} page tables, expected {self.num_blocks}"
            )
        rows: dict[int, list[list[int]]] = {}
        for block_state in state:
            for sequence_id, k_cores, v_cores in block_state:
                rows.setdefault(sequence_id, []).extend((k_cores, v_cores))
        entries: dict[int, npt.NDArray[np.int64]] = {}
        for sequence_id, matrix in rows.items():
            if len(matrix) != 2 * self.num_blocks:
                raise KVCacheError(
                    f"sequence {sequence_id} is missing from some page tables"
                )
            entries[sequence_id] = np.asarray(matrix, dtype=np.int64)
        self._entries = entries


class PageTable:
    """Per-transformer-block page table: sequence id -> head placements.

    A read-only view of one block's two rows in a :class:`PageTableStore`,
    which registers and removes a sequence in every block at once.
    """

    def __init__(self, block_index: int, store: PageTableStore) -> None:
        self.block_index = block_index
        self._store = store

    def _rows(self, sequence_id: int) -> npt.NDArray[np.int64]:
        try:
            return self._store.cores(sequence_id, self.block_index)
        except KeyError as exc:
            raise KVCacheError(
                f"sequence {sequence_id} has no page-table entry in block "
                f"{self.block_index}"
            ) from exc

    def lookup(self, sequence_id: int) -> list[HeadPlacement]:
        k_cores, v_cores = self._rows(sequence_id).tolist()
        return [
            HeadPlacement(head=head, k_core=k, v_core=v)
            for head, (k, v) in enumerate(zip(k_cores, v_cores))
        ]

    def contains(self, sequence_id: int) -> bool:
        return self._store.contains(sequence_id)

    def cores_of(self, sequence_id: int) -> list[int]:
        """All distinct cores referenced by a sequence in this block."""
        return sorted(set(self._rows(sequence_id).ravel().tolist()))

    @property
    def resident_sequences(self) -> list[int]:
        return self._store.resident_sequences

    def snapshot_state(self) -> list[list[Any]]:
        """JSON-able entry list, preserving insertion order."""
        return self._store.block_state(self.block_index)

    def __len__(self) -> int:
        return len(self._store)

"""Tests for the KV-cache primitives: free-block table, bitmap, page table."""

import numpy as np
import pytest

from repro.errors import KVCacheError
from repro.kvcache.bitmap import OccupancyBitmap
from repro.kvcache.blocks import FreeBlockTable, tokens_per_block
from repro.kvcache.pagetable import HeadPlacement, PageTableStore


class TestTokensPerBlock:
    def test_paper_head_dim(self):
        assert tokens_per_block(head_dim=128) == 128

    def test_small_head_dim_more_tokens(self):
        assert tokens_per_block(head_dim=64) == 256

    def test_fp16_halves_tokens(self):
        assert tokens_per_block(head_dim=128, element_bytes=2) == 64

    def test_invalid_inputs(self):
        with pytest.raises(KVCacheError):
            tokens_per_block(head_dim=0)


class TestFreeBlockTable:
    def test_allocate_and_release(self):
        table = FreeBlockTable()
        index = table.allocate(owner=1)
        assert table.owner_of(index) == 1
        assert table.free_blocks == 7
        table.release(index)
        assert table.free_blocks == 8

    def test_allocate_exhaustion(self):
        table = FreeBlockTable(num_blocks=2)
        table.allocate(owner=1)
        table.allocate(owner=1)
        with pytest.raises(KVCacheError):
            table.allocate(owner=2)

    def test_append_rows(self):
        table = FreeBlockTable(rows_per_block=128)
        index = table.allocate(owner=1)
        assert table.append_rows(index, 100) == 100
        assert table.append_rows(index, 100) == 28
        assert table.rows_free(index) == 0

    def test_append_to_unallocated_rejected(self):
        table = FreeBlockTable()
        with pytest.raises(KVCacheError):
            table.append_rows(0, 1)

    def test_release_owner(self):
        table = FreeBlockTable()
        table.allocate(owner=1)
        table.allocate(owner=2)
        table.allocate(owner=1)
        assert table.release_owner(1) == 2
        assert table.used_blocks == 1
        assert table.blocks_of(2) != []

    def test_reset(self):
        table = FreeBlockTable()
        table.allocate(owner=1)
        table.reset()
        assert table.free_blocks == table.num_blocks

    def test_invalid_construction(self):
        with pytest.raises(KVCacheError):
            FreeBlockTable(num_blocks=0)


class TestOccupancyBitmap:
    def test_set_and_query(self):
        bitmap = OccupancyBitmap()
        bitmap.set_block(sequence_id=7, block_index=3)
        assert bitmap.blocks_of(7) == [3]
        assert bitmap.owner_of(3) == 7
        assert bitmap.used_blocks == 1

    def test_block_conflict_rejected(self):
        bitmap = OccupancyBitmap()
        bitmap.set_block(1, 0)
        with pytest.raises(KVCacheError):
            bitmap.set_block(2, 0)

    def test_clear_block(self):
        bitmap = OccupancyBitmap()
        bitmap.set_block(1, 0)
        bitmap.clear_block(1, 0)
        assert bitmap.owner_of(0) is None

    def test_clear_unowned_rejected(self):
        bitmap = OccupancyBitmap()
        bitmap.set_block(1, 0)
        with pytest.raises(KVCacheError):
            bitmap.clear_block(1, 5)

    def test_release_sequence(self):
        bitmap = OccupancyBitmap()
        bitmap.set_block(1, 0)
        bitmap.set_block(1, 4)
        assert bitmap.release_sequence(1) == 2
        assert bitmap.free_blocks == bitmap.num_blocks
        assert bitmap.release_sequence(1) == 0

    def test_occupancy_fraction(self):
        bitmap = OccupancyBitmap(max_sequences=4, num_blocks=8)
        bitmap.set_block(1, 0)
        bitmap.set_block(1, 1)
        assert bitmap.occupancy() == pytest.approx(0.25)

    def test_slot_exhaustion(self):
        bitmap = OccupancyBitmap(max_sequences=2, num_blocks=8)
        bitmap.set_block(1, 0)
        bitmap.set_block(2, 1)
        with pytest.raises(KVCacheError):
            bitmap.set_block(3, 2)

    def test_out_of_range_block(self):
        bitmap = OccupancyBitmap(num_blocks=8)
        with pytest.raises(KVCacheError):
            bitmap.set_block(1, 9)

    def test_resident_sequences(self):
        bitmap = OccupancyBitmap()
        bitmap.set_block(5, 0)
        bitmap.set_block(3, 1)
        assert bitmap.resident_sequences == [3, 5]


class TestPageTable:
    def store_with_entry(self):
        store = PageTableStore(num_blocks=1)
        store.register(1, np.asarray([[10, 11, 12, 13], [20, 21, 22, 23]]))
        return store, store.tables()[0]

    def test_register_and_lookup(self):
        _, table = self.store_with_entry()
        assert table.lookup(1) == [
            HeadPlacement(head=h, k_core=10 + h, v_core=20 + h) for h in range(4)
        ]
        assert table.contains(1)
        assert len(table) == 1

    def test_double_register_rejected(self):
        store, _ = self.store_with_entry()
        with pytest.raises(KVCacheError):
            store.register(1, np.zeros((2, 4), dtype=np.int64))

    def test_lookup_missing_rejected(self):
        _, table = self.store_with_entry()
        with pytest.raises(KVCacheError):
            table.lookup(42)

    def test_cores_of(self):
        _, table = self.store_with_entry()
        cores = table.cores_of(1)
        assert cores == sorted({10, 11, 12, 13, 20, 21, 22, 23})

    def test_remove_idempotent(self):
        store, table = self.store_with_entry()
        store.remove(1)
        store.remove(1)
        assert not table.contains(1)
        assert table.resident_sequences == []

"""Distributed dynamic KV-cache management and its static baseline."""

from .bitmap import OccupancyBitmap
from .blocks import BlockAddress, FreeBlockTable, tokens_per_block
from .manager import DistributedKVCacheManager, KVCacheStats
from .pagetable import HeadPlacement, PageTable, PageTableStore
from .static import StaticKVCacheManager, StaticKVCacheStats

__all__ = [
    "OccupancyBitmap",
    "BlockAddress",
    "FreeBlockTable",
    "tokens_per_block",
    "DistributedKVCacheManager",
    "KVCacheStats",
    "HeadPlacement",
    "PageTable",
    "PageTableStore",
    "StaticKVCacheManager",
    "StaticKVCacheStats",
]

"""Buffer caches: DB block cache, OS page cache, K-V row cache.

Each is an exact LRU (:class:`LRUCache`) indexed its own way.
"""

from repro.cache.db_cache import BlockKey, DBBufferCache
from repro.cache.kv_cache import KVStoreCache
from repro.cache.lru import LRUCache
from repro.cache.os_cache import OSBufferCache
from repro.cache.stats import CacheStats

__all__ = [
    "BlockKey",
    "CacheStats",
    "DBBufferCache",
    "KVStoreCache",
    "LRUCache",
    "OSBufferCache",
]

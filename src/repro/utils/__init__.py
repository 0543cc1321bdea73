"""Small shared utilities with no domain knowledge."""

from .batch import dedupe_batch
from .gcpause import gc_paused
from .lru import LRUCache
from .ordinals import OrdinalMap

__all__ = ["LRUCache", "OrdinalMap", "dedupe_batch", "gc_paused"]

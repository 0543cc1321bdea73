"""Small shared utilities with no domain knowledge."""

from .batch import dedupe_batch
from .gcpause import gc_paused
from .lru import LRUCache

__all__ = ["LRUCache", "dedupe_batch", "gc_paused"]

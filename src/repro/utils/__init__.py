"""Small shared utilities with no domain knowledge."""

from .gcpause import gc_paused
from .lru import LRUCache

__all__ = ["LRUCache", "gc_paused"]

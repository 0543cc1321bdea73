"""Pausing the cyclic garbage collector around a bulk build."""

from __future__ import annotations

import gc
from collections.abc import Iterator
from contextlib import contextmanager


@contextmanager
def gc_paused() -> Iterator[None]:
    """Keep the cyclic collector off for the block; restore its state after.

    For code that allocates many containers which all survive and hold no
    cycles (a graph replay, a snapshot's maps): every generation-2 pass
    the allocations trigger re-walks the whole heap to free nothing.
    Reference counting still frees everything else as usual.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()

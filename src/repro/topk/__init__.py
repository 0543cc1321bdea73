"""Shared threshold-pruned top-k execution layer (max-score family).

Both retrieval pipelines — keyword search over the fielded index (§2.2)
and the two-stage entity recommendation (§2.3) — select a small top-k out
of a large candidate pool, and both do it one way: maintain a live
threshold θ (the k-th best score lower bound seen so far) and skip any
term, candidate or whole type group whose score *upper bound* cannot
beat θ.  The building blocks are shared by both sides:

* :func:`~repro.topk.heap.threshold_of` — θ over a snapshot of lower
  bounds;
* :class:`~repro.topk.stats.PruningStats` — the skip counters every
  scorer and ranker reports through ``stats()``;
* :func:`~repro.topk.kernels.columnar_dense` — the search kernel over
  per-query contribution columns built from the columnar postings view
  of :mod:`repro.index.columnar` (smoothing scores every candidate, so
  the columns are dense over the query's candidates);
* :func:`~repro.topk.kernels.columnar_rank` — the recommendation-side
  kernel: the type-grouped entity walk over
  :class:`~repro.topk.kernels.RankerKernelInputs` columns built from
  :mod:`repro.features.columnar` feature tables.

Pruning never changes results: every kernel only narrows the candidate
set using sound upper bounds (with a rounding-safety slack, see
:func:`~repro.topk.heap.safety_slack`), and callers re-score the
survivors through the exhaustive per-document arithmetic, so rankings
are byte-identical to each scorer's exhaustive reference by
construction.
"""

from .heap import (
    NO_THRESHOLD,
    safety_slack,
    threshold_of,
)
from .kernels import (
    DenseKernelTerm,
    RankerKernelInputs,
    SELECTION_MARGIN,
    columnar_dense,
    columnar_rank,
    select_survivor_ordinals,
)
from .stats import PruningStats

__all__ = [
    "DenseKernelTerm",
    "NO_THRESHOLD",
    "PruningStats",
    "RankerKernelInputs",
    "SELECTION_MARGIN",
    "columnar_dense",
    "columnar_rank",
    "safety_slack",
    "select_survivor_ordinals",
    "threshold_of",
]

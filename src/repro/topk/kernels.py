"""Vectorized max-score traversal kernels over columnar postings.

Every ranked request of the system runs one of the two kernels here —
:func:`columnar_dense` for keyword search, :func:`columnar_rank` for
entity recommendation — and there is no unpruned variant: the only other
form of a ranking is its scorer's exhaustive reference.  Candidates
live in numpy arrays — an accumulator column plus an alive mask — and
every per-candidate step (θ derivation, evictions, pruning counters) is
a vectorized operation.  The search kernel's term inputs are
precomputed *contribution columns* aligned with its candidate array
(built per query by :func:`repro.search.mlm.candidate_term_columns`)
and added under the alive mask.

The equivalence contract: a kernel returns a *superset* of the true
top-k with margin-guarded partials, and the caller re-scores the
survivors through the exhaustive scalar arithmetic with the exhaustive
``(-score, doc_id)`` tie-break — so rankings are byte-identical to the
exhaustive reference by construction, and the kernels' θ arithmetic
only has to be *sound*, not bit-equal.  Every cut keeps the
:func:`~repro.topk.heap.safety_slack` rounding guard, which also absorbs
the ulp differences between ``numpy`` reductions and the scalar
accumulation order.

Ordinals are assigned in sorted-doc-id order (see
:mod:`repro.index.columnar`), so ordinal comparisons
reproduce the ``doc_id`` tie-break and
:func:`select_survivor_ordinals` can rank with one ``lexsort``.

The recommendation kernel is the type-grouped entity walk — per-type
base scatter, per-feature holder scatter-adds and whole-group kills as
mask operations — over the precomputed :class:`RankerKernelInputs`
columns (see :func:`repro.features.columnar.build_ranker_inputs`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .heap import NO_THRESHOLD, safety_slack
from .stats import PruningStats

#: Extra survivors selected beyond k before the exact re-scoring pass.
#: The kernels' accumulator values associate the same floating-point
#: terms differently from the exhaustive path, so the selection boundary
#: is guarded by a margin: a selection mismatch would need more than this
#: many candidates packed within rounding error of the k-th score.
SELECTION_MARGIN = 16


@dataclass(frozen=True)
class DenseKernelTerm:
    """One query term of the dense (language-model) kernel.

    ``contributions`` is aligned with the query's candidate array:
    position ``i`` holds the term's exact contribution to the ``i``-th
    candidate (smoothing scores every candidate, so the column is dense
    over them), and one pass is a single masked add over the live
    positions.
    """

    key: str
    floor: float
    upper: float
    contributions: np.ndarray

    @property
    def spread(self) -> float:
        """Bound width — the term-ordering key of the dense traversal."""
        return self.upper - self.floor


# --------------------------------------------------------------------- #
# θ helpers over value arrays
# --------------------------------------------------------------------- #
def _kth_largest(values: np.ndarray, k: int) -> float:
    """θ over a value column: the k-th largest, or ``-inf``.

    The array form of :func:`~repro.topk.heap.threshold_of`, NaN
    rule — a NaN anywhere near the top degrades θ to ``-inf`` (pruning
    disabled, which is sound) instead of poisoning comparisons.
    """
    if k <= 0 or values.size < k:
        return NO_THRESHOLD
    top = np.partition(values, values.size - k)[values.size - k :]
    if np.isnan(top).any():
        return NO_THRESHOLD
    return float(top[0])


def select_survivor_ordinals(
    ordinals: np.ndarray,
    values: np.ndarray,
    top_k: int,
    margin: int = SELECTION_MARGIN,
) -> np.ndarray:
    """The ordinals worth re-scoring exactly: top ``k + margin``.

    When at most ``k + margin`` candidates survived, all of them are
    re-scored (their values may be partial if the traversal stopped
    early).  Otherwise the selection follows the exhaustive
    ``(-value, doc_id)`` ordering: ordinal order *is* doc-id order, so
    one ``lexsort`` on ``(ordinal, -value)`` reproduces the tie-break.
    """
    budget = top_k + margin
    if ordinals.size <= budget:
        return ordinals
    ranking = np.lexsort((ordinals, -values))
    return ordinals[ranking[:budget]]


# --------------------------------------------------------------------- #
# Dense kernel (language-model family)
# --------------------------------------------------------------------- #
def columnar_dense(
    candidate_ordinals: np.ndarray,
    entries: list[DenseKernelTerm],
    top_k: int,
    stats: PruningStats,
    margin: int = SELECTION_MARGIN,
) -> tuple[np.ndarray, np.ndarray]:
    """Threshold-pruned dense traversal (smoothing language models).

    Every candidate starts with an open accumulator (smoothing scores all
    documents); terms are processed in decreasing *spread* order so the
    most discriminative terms tighten θ first.  θ is the k-th best live
    partial plus the remaining floor sum (a lower bound of the k-th best
    final score); candidates whose partial plus the remaining upper sum
    cannot reach it are evicted before the next pass, and the remaining
    passes are skipped once at most ``top_k + margin`` candidates
    survive.  Returns the surviving ``(ordinals, partials)`` columns.
    """
    stats.queries += 1
    stats.kernel_queries += 1
    stats.terms_total += len(entries)
    stats.candidates_total += int(candidate_ordinals.size)
    accumulators = np.zeros(candidate_ordinals.size, dtype=np.float64)
    if not entries or candidate_ordinals.size == 0:
        return candidate_ordinals, accumulators

    order = sorted(range(len(entries)), key=lambda i: (-entries[i].spread, i))
    remaining_floor = [0.0] * (len(order) + 1)
    remaining_upper = [0.0] * (len(order) + 1)
    for position in range(len(order) - 1, -1, -1):
        entry = entries[order[position]]
        remaining_floor[position] = remaining_floor[position + 1] + entry.floor
        remaining_upper[position] = remaining_upper[position + 1] + entry.upper

    stop_budget = top_k + margin
    alive = np.ones(candidate_ordinals.size, dtype=bool)
    alive_count = int(candidate_ordinals.size)
    cut = NO_THRESHOLD
    for position, index in enumerate(order):
        if alive_count <= stop_budget:
            stats.terms_skipped += len(order) - position
            break
        if cut != NO_THRESHOLD:
            doomed = alive & (accumulators < cut)
            evicted = int(np.count_nonzero(doomed))
            if evicted:
                alive &= ~doomed
                alive_count -= evicted
                stats.candidates_pruned += evicted
        accumulators[alive] += entries[index].contributions[alive]
        rem_floor = remaining_floor[position + 1]
        rem_upper = remaining_upper[position + 1]
        if rem_upper <= rem_floor:
            cut = NO_THRESHOLD
            continue
        total = _kth_largest(accumulators[alive], top_k) + rem_floor  # -inf stays -inf
        if total == NO_THRESHOLD:
            cut = NO_THRESHOLD
            continue
        cut = total - safety_slack(total) - rem_upper
    return candidate_ordinals[alive], accumulators[alive]


# --------------------------------------------------------------------- #
# Ranker kernel (two-stage recommendation, §2.3)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class RankerKernelInputs:
    """Per-query columns of the type-grouped entity accumulator.

    Built per (candidate set, scored features) pair by
    :func:`repro.features.columnar.build_ranker_inputs` from the
    per-epoch :class:`~repro.features.columnar.ColumnarFeatureTables`.
    ``ordinals`` are candidate entity ordinals in ascending order
    (ordinal order *is* entity-id order, so
    :func:`select_survivor_ordinals` reproduces the ``entity_id``
    tie-break); ``type_index`` maps each candidate to its local dominant
    type row; the per-type columns carry the base scores
    ``B(c) = sum base(pi, c) * r(pi)``, the exact per-column correction
    add values ``(1 - base) * r``, and the suffix correction bounds
    (``possible``-gated, shape ``(types, columns + 1)``).
    ``holder_positions`` holds, per feature column, the candidate
    positions that hold the feature — a precomputed scatter index.
    """

    ordinals: np.ndarray
    type_index: np.ndarray
    type_counts: np.ndarray
    base_scores: np.ndarray
    corrections: np.ndarray
    suffix_bounds: np.ndarray
    holder_positions: tuple[np.ndarray, ...]


def columnar_rank(
    inputs: RankerKernelInputs,
    top_k: int,
    stats: PruningStats,
    margin: int = SELECTION_MARGIN,
) -> tuple[np.ndarray, np.ndarray]:
    """The threshold-pruned type-grouped entity accumulator.

    Per-type base scatter, initial θ from the candidate base scores,
    up-front group kills, then per-feature holder scatter-adds with a
    kill scan after columns 1 and 4.  Partials are exact accumulator
    values (``(1 - base) * r`` products); θ arithmetic only has to be
    sound: it is the k-th best of the live accumulators, each a lower
    bound of a real score, and every cut keeps the safety slack.
    Returns the margin-selected ``(ordinals, partials)`` survivor
    columns — a superset of the true top-k for the caller's exact
    re-scoring epilogue.
    """
    ordinals = inputs.ordinals
    type_index = inputs.type_index
    num_candidates = int(ordinals.size)
    num_types = int(inputs.base_scores.size)
    num_columns = len(inputs.holder_positions)

    stats.queries += 1
    stats.kernel_queries += 1
    stats.candidates_total += num_candidates
    stats.groups_total += num_types

    accumulators = inputs.base_scores[type_index]
    if num_candidates == 0:
        return ordinals, accumulators

    threshold = _kth_largest(accumulators, top_k)
    cut = threshold - safety_slack(threshold) if threshold != NO_THRESHOLD else NO_THRESHOLD

    # Up-front group kills: whole dominant-type groups leave the walk as
    # one mask update.  ``walking`` tracks types still earning
    # corrections; ``killed`` tracks candidates evicted from the
    # accumulator.
    if cut != NO_THRESHOLD:
        dead = inputs.base_scores + inputs.suffix_bounds[:, 0] < cut
    else:
        dead = np.zeros(num_types, dtype=bool)
    dead_count = int(np.count_nonzero(dead))
    if dead_count:
        stats.groups_skipped += dead_count
        stats.candidates_pruned += int(inputs.type_counts[dead].sum())
    walking = ~dead
    killed = dead[type_index]
    walk_mask = walking[type_index]

    all_walking = not dead_count
    for column in range(num_columns):
        positions = inputs.holder_positions[column]
        if positions.size:
            # All groups still walking (the common early-walk state):
            # every holder position adds — skip the mask gather.
            adding = positions if all_walking else positions[walk_mask[positions]]
            if adding.size:
                accumulators[adding] += inputs.corrections[type_index[adding], column]
        done = column + 1
        if done not in (1, 4) or done >= num_columns or not walking.any():
            continue
        alive_count = num_candidates - int(np.count_nonzero(killed))
        if int(np.count_nonzero(walking)) <= 1 or alive_count <= top_k:
            continue
        refreshed = _kth_largest(accumulators[~killed], top_k)
        if refreshed == NO_THRESHOLD:
            continue
        cut = refreshed - safety_slack(refreshed)
        # Kill scan: per-walking-type best partial via one scatter-max
        # (walking members are never killed, so their partials are live).
        type_best = np.full(num_types, NO_THRESHOLD)
        np.maximum.at(type_best, type_index[walk_mask], accumulators[walk_mask])
        doomed = walking & (type_best + inputs.suffix_bounds[:, done] < cut)
        doomed_count = int(np.count_nonzero(doomed))
        if doomed_count:
            stats.groups_skipped += doomed_count
            stats.candidates_pruned += int(inputs.type_counts[doomed].sum())
            walking &= ~doomed
            killed |= doomed[type_index]
            walk_mask = walking[type_index]
            all_walking = False

    alive = ~killed
    survivor_ordinals = ordinals[alive]
    survivor_values = accumulators[alive]
    picked = select_survivor_ordinals(survivor_ordinals, survivor_values, top_k, margin)
    if picked.size < survivor_ordinals.size:
        # Survivor ordinals stay ascending (subset of an ascending
        # column), so the picked values gather with one searchsorted.
        gathered = np.searchsorted(survivor_ordinals, picked)
        return picked, survivor_values[gathered]
    return survivor_ordinals, survivor_values

"""Scoring support for the accumulator-based recommendation hot path.

The two-stage recommendation model of §2.3 scores every candidate entity
against every ranked semantic feature via ``p(pi | e)``.  The probability
has algebraic structure the exhaustive per-pair loop ignores: when ``e``
does **not** hold ``pi``, ``p(pi | e)`` depends only on the pair
``(pi, c*(e))`` where ``c*`` is the entity's dominant type.  Per-candidate
scores therefore decompose into

* a per-type **base score** ``B(c) = sum_pi max(p(pi|c), eps) * r(pi, Q)``
  shared by every candidate of dominant type ``c``, plus
* a sparse **correction** ``sum_{pi held by e} (1 - max(p(pi|c), eps)) * r(pi, Q)``
  walked term-at-a-time over the index's ``E(pi)`` holder lists,

turning ``O(candidates x features)`` per-pair Python calls into
``O(types x features + matched postings)``.  :class:`RankingSupport` is the
shared scoring context behind that decomposition: memoised dominant types,
memoised per-(feature, type) base probabilities, and no-copy holder access.
It is the recommendation-side sibling of
:class:`repro.index.scoring_support.ScoringSupport` and, like it, is only
valid for the feature-index epoch it was built at
(:meth:`FeatureProbabilityModel.support` hands out a fresh instance after
any graph mutation).

All arithmetic matches the exhaustive model exactly: base probabilities are
the same ``max(p(pi|c*), eps)`` floats ``FeatureProbabilityModel.probability``
produces, so rankings built on this layer are verifiable against the seed
``rank_exhaustive()`` paths.
"""

from __future__ import annotations

import heapq
import logging
from collections.abc import Iterator, Mapping, Sequence
from typing import TYPE_CHECKING

from ..features import SemanticFeature, SemanticFeatureIndex
from ..features.columnar import build_ranker_inputs, columnar_tables
from ..kg import KnowledgeGraph
from ..kg.columns import sorted_unique
from ..topk import (
    PruningStats,
    SharedThresholdSlot,
    accumulate_rank,
    ceil_div,
    columnar_rank,
    safety_slack,
    threshold_of,
    top_k_bounds,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .sf_ranking import ScoredFeature

_LOG = logging.getLogger("repro")

#: The stages of one recommendation request, in pipeline order.
STAGES = ("sf_rank", "candidates", "filters", "entity_rank", "correlation")


class StageCounters:
    """Which form each stage of the recommendation path ran in.

    ``arrays[stage]`` counts the calls served from the pinned snapshot's
    array tables; ``fallbacks[stage][reason]`` those that ran the object
    code instead, by reason: ``columnar-off`` (``RankingConfig.columnar``
    or, for the type filter, ``graph_topology`` is off), ``explicit-pool``
    (the caller supplied its own ``candidates=``), ``unknown-entity`` (an
    id the tables have no ordinal for), ``no-tables`` (the index object
    carries none), ``epoch-mismatch`` (the graph topology is of another
    epoch than the pinned tables).  One instance lives on the
    :class:`~repro.ranking.probability.FeatureProbabilityModel` the
    stages share; each reason is also logged once per epoch.
    """

    def __init__(self) -> None:
        self.arrays = dict.fromkeys(STAGES, 0)
        self.fallbacks: dict[str, dict[str, int]] = {stage: {} for stage in STAGES}
        self._logged_epoch = -1
        self._logged_reasons: set[str] = set()

    def ran(self, stage: str) -> None:
        self.arrays[stage] += 1

    def fell_back(self, stage: str, reason: str, epoch: int) -> None:
        reasons = self.fallbacks[stage]
        reasons[reason] = reasons.get(reason, 0) + 1
        if self._logged_epoch != epoch:
            self._logged_epoch, self._logged_reasons = epoch, set()
        if reason not in self._logged_reasons:
            self._logged_reasons.add(reason)
            _LOG.info(
                "recommendation stage %s runs its object form at epoch %d: %s",
                stage, epoch, reason,
            )


#: Default feature columns per correction chunk of the ``blockmax`` entity
#: accumulator: type groups are re-checked against θ (and retired once
#: they can gain nothing more) at every chunk boundary, the
#: recommendation-side mirror of the posting blocks of the search side.
#: Tunable per workload via ``RankingConfig.feature_chunk``.
FEATURE_CHUNK = 2


class FrozenMapping(Mapping[str, float]):
    """A read-only, picklable mapping for shared score decompositions.

    ``ScoredEntity.contributions`` and ``ScoredFeature.seed_probabilities``
    are shared by the recommendation engine's LRU cache, so they must not
    be mutable in place — but ``types.MappingProxyType`` cannot be pickled
    or deep-copied, which downstream consumers (multiprocessing fan-out,
    on-disk caching) legitimately rely on.  This wrapper is immutable from
    the outside, compares equal to plain dicts, and round-trips through
    ``pickle`` / ``copy.deepcopy``.
    """

    __slots__ = ("_data",)

    def __init__(self, data: Mapping[str, float]) -> None:
        object.__setattr__(self, "_data", dict(data))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FrozenMapping is read-only")

    def __getitem__(self, key: str) -> float:
        return self._data[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FrozenMapping):
            return self._data == other._data
        return self._data == other

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    __hash__ = None  # type: ignore[assignment]  # mutable-mapping semantics

    def __repr__(self) -> str:
        return f"FrozenMapping({self._data!r})"

    def __reduce__(self):
        return (FrozenMapping, (self._data,))


class RankingSupport:
    """Memoised probability lookups over one feature-index epoch.

    An instance is only valid for the index epoch it was built at; the
    probability model hands out a fresh instance after any graph mutation
    (see :meth:`repro.ranking.probability.FeatureProbabilityModel.support`).
    """

    def __init__(
        self,
        graph: KnowledgeGraph,
        index: SemanticFeatureIndex,
        type_smoothing: bool = True,
        epsilon: float = 1e-9,
    ) -> None:
        self._graph = graph
        #: The *pinned snapshot* of the feature index: every lookup this
        #: support object makes for its whole lifetime reads one immutable
        #: epoch state, so an in-flight query keeps the epoch it started
        #: on while graph mutations publish successor snapshots (the
        #: probability model hands out a fresh support after any epoch
        #: change, so new queries see the new state).
        self._index = index.snapshot() if hasattr(index, "snapshot") else index
        self._type_smoothing = type_smoothing
        self._epsilon = epsilon
        self._epoch = self._index.epoch
        #: Memoised dominant types (``graph.dominant_type`` scans the type
        #: sets on every call; candidates repeat across session operations).
        self._dominant_types: dict[str, str] = {}
        #: Memoised base probabilities ``max(p(pi|c), eps)`` per (pi, c).
        self._base: dict[tuple[SemanticFeature, str], float] = {}
        #: Memoised ``(base, correction possible)`` pairs per (pi, c): the
        #: pruned accumulator resolves both with a single dictionary hit.
        self._base_and_possible: dict[tuple[SemanticFeature, str], tuple[float, bool]] = {}

    @property
    def epoch(self) -> int:
        """The feature-index epoch this support object was built for."""
        return self._epoch

    @property
    def epsilon(self) -> float:
        return self._epsilon

    @property
    def type_smoothing(self) -> bool:
        return self._type_smoothing

    # ------------------------------------------------------------------ #
    # Probability lookups
    # ------------------------------------------------------------------ #
    def dominant_type(self, entity_id: str) -> str:
        """Memoised ``c*(e)`` (empty string for untyped entities).

        Resolved against the pinned snapshot's type tables when one is
        pinned, so an in-flight query's dominant types — like its holder
        sets and smoothing counts — all belong to one epoch.
        """
        cached = self._dominant_types.get(entity_id)
        if cached is None:
            source = self._index if hasattr(self._index, "dominant_type") else self._graph
            cached = source.dominant_type(entity_id)
            self._dominant_types[entity_id] = cached
        return cached

    def base_probability(self, feature: SemanticFeature, type_id: str) -> float:
        """``max(p(pi|c), eps)`` — ``p(pi|e)`` for a non-holder of type ``c``.

        Bitwise-identical to what ``FeatureProbabilityModel.probability``
        returns for an entity of dominant type ``type_id`` that does not
        hold the feature, including the no-smoothing and untyped fallbacks.
        """
        key = (feature, type_id)
        cached = self._base.get(key)
        if cached is None:
            if not self._type_smoothing or not type_id:
                cached = self._epsilon
            else:
                intersection, population = self._index.type_conditional_count(feature, type_id)
                smoothed = intersection / population if population else 0.0
                cached = max(smoothed, self._epsilon)
            self._base[key] = cached
        return cached

    def base_and_possible(self, feature: SemanticFeature, type_id: str) -> tuple[float, bool]:
        """``(base(pi, c), can any type-c candidate hold pi at all?)``.

        The second component gates the correction upper bounds of the
        pruned entity accumulator: a typed candidate can only earn the
        ``(1 - base) * r`` correction when the memoised
        ``||E(pi) ∩ E(c)||`` intersection is non-zero (untyped candidates
        fall back to the holder list being non-empty).  Both components
        are resolved with one dictionary hit on the hot path.
        """
        key = (feature, type_id)
        cached = self._base_and_possible.get(key)
        if cached is None:
            base = self.base_probability(feature, type_id)
            if type_id:
                possible = self._index.type_conditional_count(feature, type_id)[0] > 0
            else:
                possible = bool(self._index.holders_of(feature))
            cached = (base, possible)
            self._base_and_possible[key] = cached
        return cached

    def probability(self, feature: SemanticFeature, entity_id: str) -> float:
        """``p(pi | e)`` via the memoised lookups (same floats as the model)."""
        if self._index.holds(entity_id, feature):
            return 1.0
        return self.base_probability(feature, self.dominant_type(entity_id))

    def holders(self, feature: SemanticFeature) -> set[str]:
        """``E(pi)`` as the index's no-copy holder set (read-only)."""
        return self._index.holders_of(feature)

    # ------------------------------------------------------------------ #
    # Accumulator traversal
    # ------------------------------------------------------------------ #
    def score_entities(
        self,
        entity_ids: Sequence[str],
        scored_features: Sequence["ScoredFeature"],
    ) -> dict[str, float]:
        """Accumulator scores ``r(e, Q)`` for every candidate entity.

        Implements the type-grouped decomposition: one base score per
        distinct dominant type, then one sparse correction pass per scored
        feature over the smaller of its holder list and the candidate set.

        The decomposition sums the same terms as the exhaustive per-pair
        loop but in a different association (``b*s + (1-b)*s`` instead of
        ``1.0*s`` for holders), so individual totals can differ from the
        exhaustive scores by float rounding.  Callers selecting a top-k
        from these accumulators must re-score the boundary exactly — see
        ``EntityRanker.rank``, which selects with a safety margin and
        re-ranks the survivors through ``score_entity``.
        """
        relevance = [scored.score for scored in scored_features]
        entity_types: dict[str, str] = {}
        bases: dict[str, list[float]] = {}
        base_scores: dict[str, float] = {}
        accumulators: dict[str, float] = {}
        for entity_id in entity_ids:
            type_id = self.dominant_type(entity_id)
            entity_types[entity_id] = type_id
            if type_id not in bases:
                row = [self.base_probability(scored.feature, type_id) for scored in scored_features]
                bases[type_id] = row
                total = 0.0
                for base, score in zip(row, relevance):
                    total += base * score
                base_scores[type_id] = total
            accumulators[entity_id] = base_scores[type_id]

        for column, scored in enumerate(scored_features):
            score = relevance[column]
            holder_set = self._index.holders_of(scored.feature)
            if len(holder_set) <= len(accumulators):
                for entity_id in holder_set:
                    type_id = entity_types.get(entity_id)
                    if type_id is not None:
                        accumulators[entity_id] += (1.0 - bases[type_id][column]) * score
            else:
                for entity_id, type_id in entity_types.items():
                    if entity_id in holder_set:
                        accumulators[entity_id] += (1.0 - bases[type_id][column]) * score
        return accumulators

    def correction_bound(
        self,
        type_id: str,
        base_row: Sequence[float],
        scored_features: Sequence["ScoredFeature"],
        relevance: Sequence[float],
    ) -> float:
        """Upper bound on the sparse correction any type-``c`` candidate can earn.

        A candidate of dominant type ``c`` gains ``(1 - base(pi, c)) * r(pi)``
        for every scored feature it holds.  The bound sums the maximal
        per-holder correction over the features a type-``c`` entity *can*
        hold at all: for typed candidates that is gated on the memoised
        ``||E(pi) ∩ E(c)||`` intersection count (zero intersection means no
        instance of the type holds the feature), for untyped candidates on
        the holder list being non-empty.  Used by the pruned entity
        accumulator to skip whole type groups whose
        ``B(c) + bound(corrections)`` cannot reach the live θ.
        """
        bound = 0.0
        if type_id:
            for column, scored in enumerate(scored_features):
                score = relevance[column]
                if score <= 0.0:
                    continue
                intersection, _ = self._index.type_conditional_count(scored.feature, type_id)
                if intersection:
                    bound += (1.0 - base_row[column]) * score
        else:
            for column, scored in enumerate(scored_features):
                score = relevance[column]
                if score <= 0.0:
                    continue
                if self._index.holders_of(scored.feature):
                    bound += (1.0 - base_row[column]) * score
        return bound

    def score_entities_pruned(
        self,
        entity_ids: Sequence[str],
        scored_features: Sequence["ScoredFeature"],
        top_k: int,
        stats: PruningStats,
        blockmax: bool = False,
        shared: SharedThresholdSlot | None = None,
        feature_chunk: int = FEATURE_CHUNK,
    ) -> dict[str, float]:
        """Type-group-pruned accumulator scores (see :meth:`score_entities`).

        The decomposition makes every partial accumulator a score *lower*
        bound (corrections are non-negative), so the k-th largest partial
        is a live θ.  A whole dominant-type group dies — before the walk
        via ``B(c) + bound(corrections) < θ``, or after any correction
        column via ``best partial of c + remaining bound of c < θ`` — when
        even its best-scored member provably cannot reach the top-k; its
        members leave the accumulator map and the later (often much
        larger) holder walks pass over them.  Survivor scores are exactly
        the accumulator values :meth:`score_entities` produces; callers
        must re-score the selection boundary exactly, as before.

        With ``blockmax=True`` the feature columns are treated as chunks
        of :data:`FEATURE_CHUNK` (per-type chunked holder-list bounds):
        θ is refreshed and group kills re-checked at *every* chunk
        boundary instead of the two fixed checkpoints, and a group whose
        remaining chunk bounds are all zero is *retired* mid-walk — its
        members' accumulator values are already final, so they keep their
        place in the result map but drop out of every later (often much
        larger) holder walk.  Chunk decisions are reported through the
        ``blocks_total`` / ``blocks_skipped`` counters.

        ``shared`` is this worker's slot on the sharded execution
        layer's cross-shard θ broadcast: the shard offers its top-k
        partial lower bounds (its candidates' base scores up front, the
        θ-pool partials at every refresh), and the k-th best over all
        shards' offers — the θ the serial walk derives from the merged
        pool — drives the group kills everywhere.
        """
        relevance = [scored.score for scored in scored_features]
        entity_types: dict[str, str] = {}
        type_members: dict[str, list[str]] = {}
        for entity_id in entity_ids:
            type_id = self.dominant_type(entity_id)
            entity_types[entity_id] = type_id
            members = type_members.get(type_id)
            if members is None:
                type_members[type_id] = [entity_id]
            else:
                members.append(entity_id)

        num_columns = len(scored_features)
        bases: dict[str, list[float]] = {}
        base_scores: dict[str, float] = {}
        suffix_bounds: dict[str, list[float]] = {}
        base_and_possible = self.base_and_possible
        for type_id in type_members:
            # One memoised hit per (feature, type) yields both the base
            # probability and the correction-possible gate; the suffix
            # array accumulates the per-column correction upper bounds.
            row: list[float] = []
            suffix = [0.0] * (num_columns + 1)
            total = 0.0
            for column, scored in enumerate(scored_features):
                base, possible = base_and_possible(scored.feature, type_id)
                row.append(base)
                score = relevance[column]
                total += base * score
                if possible and score > 0.0:
                    suffix[column] = (1.0 - base) * score
            for column in range(num_columns - 1, -1, -1):
                suffix[column] += suffix[column + 1]
            bases[type_id] = row
            base_scores[type_id] = total
            suffix_bounds[type_id] = suffix

        stats.queries += 1
        stats.candidates_total += len(entity_types)
        stats.groups_total += len(type_members)
        # Chunk accounting: each type group would walk ``num_chunks``
        # correction chunks; chunks never walked (group killed, retired or
        # dead before the walk) are reported as skipped blocks.
        num_chunks = 0
        if blockmax and num_columns:
            num_chunks = ceil_div(num_columns, feature_chunk)
            stats.blocks_total += num_chunks * len(type_members)

        # Initial θ: the k-th largest base score over the candidate pool,
        # derived from the type-group sizes (no per-candidate pass).  The
        # same ordering yields the θ pool for the mid-walk refreshes: a
        # θ computed over any candidate *subset* is still witnessed by k
        # real candidates, so restricting the refresh to the members of
        # the highest-base types keeps it sound at a fraction of the cost
        # of scanning every accumulator.
        threshold = float("-inf")
        theta_pool: list[str] = []
        initial_bounds: list[float] = []
        if 0 < top_k < len(entity_types):
            covered = 0
            pool_budget = 2 * top_k + len(type_members)
            for type_id in sorted(type_members, key=lambda t: -base_scores[t]):
                members = type_members[type_id]
                if covered < top_k:
                    threshold = base_scores[type_id]
                    if shared is not None:
                        # This shard's top-k witnesses: the base scores of
                        # its k best-based candidates, distinct by
                        # construction (each counted via its own type slot).
                        needed = min(top_k - covered, len(members))
                        initial_bounds.extend([base_scores[type_id]] * needed)
                if len(theta_pool) < pool_budget:
                    theta_pool.extend(members)
                covered += len(members)
        elif shared is not None and top_k > 0:
            # Fewer candidates than k in this shard: every base score is
            # still a witness the global pool can use, and every member
            # belongs in the θ-refresh pool.
            for type_id, members in type_members.items():
                initial_bounds.extend([base_scores[type_id]] * len(members))
                theta_pool.extend(members)
        if shared is not None:
            offered = shared.offer(initial_bounds)
            if offered > threshold:
                threshold = offered
        cut = threshold - safety_slack(threshold) if threshold != float("-inf") else float("-inf")

        live_types: dict[str, list[float]] = {}
        accumulators: dict[str, float] = {}
        for type_id, members in type_members.items():
            if base_scores[type_id] + suffix_bounds[type_id][0] < cut:
                stats.groups_skipped += 1
                stats.candidates_pruned += len(members)
                if blockmax:
                    stats.blocks_skipped += num_chunks
                continue
            base = base_scores[type_id]
            for entity_id in members:
                accumulators[entity_id] = base
            if blockmax and suffix_bounds[type_id][0] == 0.0:
                # No member can earn any correction: the base score is
                # already final, so the group never enters the walk at
                # all (retired, not killed — its members stay ranked).
                stats.blocks_skipped += num_chunks
                continue
            live_types[type_id] = bases[type_id]

        if len(live_types) == len(type_members):
            # Nothing died up front: the full type map doubles as the live
            # map (mid-walk kills mutate it; it is query-local anyway).
            live_entities = entity_types
        else:
            live_entities = {
                entity_id: type_id
                for entity_id, type_id in entity_types.items()
                if type_id in live_types
            }
        for column, scored in enumerate(scored_features):
            score = relevance[column]
            holder_set = self._index.holders_of(scored.feature)
            if len(holder_set) <= len(live_entities):
                for entity_id in holder_set:
                    type_id = live_entities.get(entity_id)
                    if type_id is not None:
                        accumulators[entity_id] += (1.0 - live_types[type_id][column]) * score
            else:
                for entity_id, type_id in live_entities.items():
                    if entity_id in holder_set:
                        accumulators[entity_id] += (1.0 - live_types[type_id][column]) * score
            # Kill groups whose best member cannot reach θ with the
            # remaining corrections.  θ and the per-group best partials
            # are refreshed only after the heaviest-relevance columns in
            # maxscore mode (the features are already sorted by score, so
            # those columns decide almost all kills); blockmax mode
            # re-checks at every FEATURE_CHUNK boundary and additionally
            # *retires* groups whose remaining chunk bounds are all zero
            # — their values are final, so they keep their place in the
            # result map but drop out of every later holder walk.  θ only
            # ever grows, so a stale θ is sound.
            done = column + 1
            if done >= num_columns or not live_types:
                continue
            if blockmax:
                if done != 1 and done % feature_chunk != 0:
                    continue
                # Chunks not yet *started*: a partially-walked chunk (the
                # done=1 checkpoint sits mid-chunk) counts as walked, so
                # the skip counters never overstate the avoided work.
                rem_chunks = num_chunks - ceil_div(done, feature_chunk)
                finished = [
                    type_id
                    for type_id in live_types
                    if suffix_bounds[type_id][done] == 0.0
                ]
                for type_id in finished:
                    del live_types[type_id]
                    for entity_id in type_members[type_id]:
                        del live_entities[entity_id]
                    stats.blocks_skipped += rem_chunks
                # Retirement is O(live types) and runs at every chunk
                # boundary; the θ-refresh kill scan below is O(live
                # candidates), so it keeps the maxscore schedule plus a
                # sparse tail instead of firing at every boundary.
                if done not in (1, 4) and done % 8 != 0:
                    continue
            else:
                if done not in (1, 4):
                    continue
                rem_chunks = 0
            if shared is None and (len(live_types) <= 1 or len(accumulators) <= top_k):
                continue
            lookup_or_dead = accumulators.get
            if shared is not None:
                refreshed = shared.offer(
                    top_k_bounds(
                        (
                            partial
                            for partial in map(lookup_or_dead, theta_pool)
                            if partial is not None
                        ),
                        top_k,
                    )
                )
            else:
                refreshed = threshold_of(
                    (
                        partial
                        for partial in map(lookup_or_dead, theta_pool)
                        if partial is not None
                    ),
                    top_k,
                )
            if refreshed == float("-inf"):
                continue
            cut = refreshed - safety_slack(refreshed)
            lookup = accumulators.__getitem__
            doomed = [
                type_id
                for type_id, members in type_members.items()
                if type_id in live_types
                and max(map(lookup, members)) + suffix_bounds[type_id][done] < cut
            ]
            for type_id in doomed:
                del live_types[type_id]
                members = type_members[type_id]
                for entity_id in members:
                    del accumulators[entity_id]
                    del live_entities[entity_id]
                stats.groups_skipped += 1
                stats.candidates_pruned += len(members)
                stats.blocks_skipped += rem_chunks
        return accumulators

    # ------------------------------------------------------------------ #
    # Columnar traversal (vectorized kernels over the epoch feature tables)
    # ------------------------------------------------------------------ #
    def columnar_tables(self):
        """The pinned snapshot's per-epoch array tables (``None`` when the
        pinned index object has no snapshot memo slot)."""
        return columnar_tables(self._index)

    def ordinal_space(self, entity_ids: Sequence[str]):
        """``(tables, ordinals of entity_ids, "")``, or ``(None, None, reason)``.

        The pinned tables can serve a request stage only when they exist
        and know every entity the stage starts from; ``reason`` names
        which of the two failed (a :class:`StageCounters` reason).
        """
        tables = self.columnar_tables()
        if tables is None or tables.ordinal_of is None:
            return None, None, "no-tables"
        ordinals = tables.entity_ordinals(entity_ids)
        if (ordinals < 0).any():
            return None, None, "unknown-entity"
        return tables, ordinals, ""

    def kernel_inputs(self, tables, ordinals, scored_features):
        """One query's :class:`~repro.topk.RankerKernelInputs` over the
        epoch tables, with this support's smoothing knobs applied (shared
        with the process tier's inline fallback closures)."""
        return build_ranker_inputs(
            tables,
            tables.feature_ordinals([scored.feature.key for scored in scored_features]),
            [scored.score for scored in scored_features],
            ordinals,
            self._epsilon,
            type_smoothing=self._type_smoothing,
        )

    def score_entities_columnar(
        self,
        entity_ids: Sequence[str],
        scored_features: Sequence["ScoredFeature"],
    ) -> dict[str, float] | None:
        """Vectorized :meth:`score_entities` (``None`` → scalar fallback).

        Unknown entity ids (callers may rank arbitrary candidate lists)
        have no ordinal, so any miss routes the whole query back through
        the scalar walk rather than silently dropping candidates.
        """
        tables, ordinals, _ = self.ordinal_space(entity_ids)
        if tables is None:
            return None
        ordinals = sorted_unique(ordinals)
        inputs = self.kernel_inputs(tables, ordinals, scored_features)
        values = accumulate_rank(inputs)
        ids = tables.entity_ids
        return {
            ids[ordinal]: value
            for ordinal, value in zip(inputs.ordinals.tolist(), values.tolist())
        }

    def score_entities_pruned_columnar(
        self,
        entity_ids: Sequence[str],
        scored_features: Sequence["ScoredFeature"],
        top_k: int,
        stats: PruningStats,
        blockmax: bool = False,
        shared: SharedThresholdSlot | None = None,
        feature_chunk: int = FEATURE_CHUNK,
    ) -> dict[str, float] | None:
        """Vectorized :meth:`score_entities_pruned` (``None`` → fallback).

        Returns the margin-selected survivor accumulators — a *subset* of
        what the scalar walk returns, but a superset of the true top-k,
        which is all the exact re-scoring epilogue needs (the scalar
        caller applies the same ``top_k + margin`` selection to its full
        accumulator map before re-scoring).
        """
        tables, ordinals, _ = self.ordinal_space(entity_ids)
        if tables is None:
            return None
        ordinals = sorted_unique(ordinals)
        inputs = self.kernel_inputs(tables, ordinals, scored_features)
        survivors, values = columnar_rank(
            inputs,
            top_k,
            stats,
            blockmax=blockmax,
            feature_chunk=feature_chunk,
            shared=shared,
        )
        ids = tables.entity_ids
        return {
            ids[ordinal]: value
            for ordinal, value in zip(survivors.tolist(), values.tolist())
        }


def select_top_features(
    scored: Sequence[tuple["SemanticFeature", float]], k: int
) -> list[tuple["SemanticFeature", float]]:
    """The ``k`` best ``(feature, score)`` pairs by ``(-score, notation)``.

    Bounded-heap selection mirroring
    :func:`repro.index.scoring_support.select_top_k`, with the exact tie
    ordering of the exhaustive feature sort.
    """
    if k <= 0:
        return []

    def _key(item: tuple["SemanticFeature", float]) -> tuple[float, str]:
        feature, score = item
        return (-score, feature.notation())

    if k >= len(scored):
        return sorted(scored, key=_key)
    return heapq.nsmallest(k, scored, key=_key)


__all__ = ["STAGES", "RankingSupport", "StageCounters", "select_top_features"]

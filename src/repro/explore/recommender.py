"""The recommendation engine (Fig 2, §2.3).

Given the current exploration query (seed entities, pinned features,
optional domain restriction) the recommendation engine produces everything
the matrix interface needs:

* the ranked similar entities (x-axis, Fig 3-c);
* the ranked semantic features (y-axis, Fig 3-e);
* the entity x feature correlation matrix behind the heat map (Fig 3-f).

It is a thin coordinator over :mod:`repro.expansion` and
:mod:`repro.ranking`; keyword-only queries are resolved to seeds by the
search engine before they reach this class (the PivotE facade does that).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

from ..config import RankingConfig
from ..exceptions import NoSeedEntitiesError
from ..expansion import EntitySetExpander, ExpansionResult
from ..features import SemanticFeature, SemanticFeatureIndex
from ..kg import KnowledgeGraph, traversal_stats
from ..ranking import (
    CorrelationMatrix,
    ScoredEntity,
    ScoredFeature,
    build_correlation_matrix,
    build_correlation_matrix_exhaustive,
)
from ..stats import CacheStats, EngineStats, PruningStatsView, StageStats
from ..utils import LRUCache, dedupe_batch
from .query_state import ExplorationQuery


@dataclass(frozen=True)
class Recommendation:
    """The recommendation payload for one query state."""

    query: ExplorationQuery
    entities: tuple[ScoredEntity, ...]
    features: tuple[ScoredFeature, ...]
    correlations: CorrelationMatrix

    def entity_ids(self) -> list[str]:
        return [entity.entity_id for entity in self.entities]

    def feature_notations(self) -> list[str]:
        return [scored.feature.notation() for scored in self.features]


class RecommendationEngine:
    """Produces entity and semantic-feature recommendations for query states."""

    def __init__(
        self,
        graph: KnowledgeGraph,
        feature_index: SemanticFeatureIndex | None = None,
        config: RankingConfig | None = None,
    ) -> None:
        self._graph = graph
        self._config = config or RankingConfig()
        self._index = feature_index or SemanticFeatureIndex.build(graph)
        self._expander = EntitySetExpander(graph, feature_index=self._index, config=self._config)
        #: Epoch-keyed LRU recommendation cache: canonicalised query state ->
        #: Recommendation.  Cleared whenever the feature-index epoch moves
        #: (i.e. on any graph mutation), so session operations that revisit
        #: a query state (select -> deselect, re-investigate, matrix
        #: rebuilds) cost a dictionary lookup.
        self._cache: LRUCache[tuple[object, ...], Recommendation] = LRUCache(
            self._config.recommendation_cache_size
        )
        self._cache.sync_epoch(graph.epoch)

    @property
    def feature_index(self) -> SemanticFeatureIndex:
        return self._index

    @property
    def expander(self) -> EntitySetExpander:
        return self._expander

    # ------------------------------------------------------------------ #
    # Recommendation
    # ------------------------------------------------------------------ #
    def recommend_for_seeds(
        self,
        seeds: Sequence[str],
        pinned_features: Sequence[SemanticFeature] = (),
        domain_type: str = "",
        top_entities: int | None = None,
        top_features: int | None = None,
        exhaustive: bool = False,
    ) -> Recommendation:
        """Recommend entities and features for an explicit seed set.

        Repeated query states are served from the epoch-keyed LRU cache;
        the domain restriction is pushed into the expander's candidate
        filter (before top-k truncation), so a domain-restricted
        recommendation returns up to ``top_entities`` matching entities
        whenever that many exist.  ``exhaustive=True`` bypasses the cache
        and runs every stage through the exhaustive reference — the
        oracle the array form is checked against.
        """
        if not seeds:
            raise NoSeedEntitiesError("recommendation requires at least one seed entity")
        query = ExplorationQuery(
            seed_entities=tuple(seeds),
            pinned_features=tuple(pinned_features),
            domain_type=domain_type,
        )
        if exhaustive:
            return self._compute(query, top_entities, top_features, exhaustive=True)
        key = self._cache_key(query, top_entities, top_features)
        if key is None:
            return self._compute(query, top_entities, top_features)
        epoch = self._graph.epoch
        cached = self._cache.get(key)
        if cached is not None:
            # Re-attach the caller's query (seed order may differ from the
            # canonical key the payload was computed under).
            return replace(cached, query=query)
        recommendation = self._compute(query, top_entities, top_features)
        # Epoch-guarded publication: if a concurrent mutation moved the
        # cache to a newer epoch while this result was computed against
        # the old snapshot, the put is atomically rejected — the result is
        # still returned (it is correct for the epoch the query pinned),
        # it just never masquerades as a current-epoch entry.
        self._cache.put(key, recommendation, epoch=epoch)
        return recommendation

    def recommend_many(
        self,
        seed_lists: Sequence[Sequence[str]],
        pinned_features: Sequence[SemanticFeature] = (),
        domain_type: str = "",
        top_entities: int | None = None,
        top_features: int | None = None,
    ) -> list[Recommendation]:
        """Recommend for a batch of seed sets (one payload per input).

        The batch shares one epoch's pinned state (the scoring support and
        its feature tables), duplicate seed sets inside the batch are
        computed once — including *permutations*, which canonicalise to
        the same key — and every miss lands in the LRU cache.  Results
        are byte-identical to calling :meth:`recommend_for_seeds` per
        seed list.
        """
        def key_of(seeds: Sequence[str]) -> tuple[object, ...]:
            return tuple(sorted(seeds))

        results = dedupe_batch(
            seed_lists,
            key_of,
            lambda seeds: self.recommend_for_seeds(
                seeds,
                pinned_features=pinned_features,
                domain_type=domain_type,
                top_entities=top_entities,
                top_features=top_features,
            ),
        )
        # Re-attach each caller's seed order: duplicates (including
        # permutations) share one payload but keep their own query view,
        # exactly as repeated serial calls through the cache would.
        return [
            result
            if tuple(result.query.seed_entities) == tuple(seeds)
            else replace(
                result,
                query=replace(result.query, seed_entities=tuple(seeds)),
            )
            for seeds, result in zip(seed_lists, results)
        ]

    def _compute(
        self,
        query: ExplorationQuery,
        top_entities: int | None,
        top_features: int | None,
        exhaustive: bool = False,
    ) -> Recommendation:
        """Run the two-stage ranking pipeline for one query state."""
        result: ExpansionResult = self._expander.expand(
            query.seed_entities,
            top_k=top_entities or self._config.top_entities,
            required_features=query.pinned_features,
            domain_type=query.domain_type,
            exhaustive=exhaustive,
        )
        entities = result.entities
        features = result.features[: (top_features or self._config.top_features)]
        probability_model = self._expander.feature_ranker.probability_model
        build_matrix = (
            build_correlation_matrix_exhaustive if exhaustive else build_correlation_matrix
        )
        matrix = build_matrix(probability_model, entities, features)
        return Recommendation(
            query=query,
            entities=entities,
            features=features,
            correlations=matrix,
        )

    # ------------------------------------------------------------------ #
    # Result cache
    # ------------------------------------------------------------------ #
    def _cache_key(
        self,
        query: ExplorationQuery,
        top_entities: int | None,
        top_features: int | None,
    ) -> tuple[object, ...] | None:
        """Canonicalised cache key, or ``None`` when caching is disabled.

        Seeds and pinned features are order-insensitive (the ranking model
        treats both as sets), so ``select(A) -> select(B)`` and
        ``select(B) -> select(A)`` share one entry.  The feature-index
        epoch is checked first and any change clears the whole cache, so
        every surviving entry is current — the key itself does not need an
        epoch component.
        """
        if self._config.recommendation_cache_size <= 0:
            return None
        self._refresh_epoch()
        return (
            tuple(sorted(query.seed_entities)),
            tuple(sorted(feature.key for feature in query.pinned_features)),
            query.domain_type,
            top_entities or self._config.top_entities,
            top_features or self._config.top_features,
        )

    def _refresh_epoch(self) -> int:
        """Sync with the graph epoch, clearing the cache on change.

        Reads ``graph.epoch`` (a counter) rather than ``index.epoch`` so
        that pure observability calls like :meth:`stats` stay O(1):
        the index property would trigger its full lazy rebuild, which can
        wait until the next actual recommendation.  The two epochs are
        identical whenever the index is fresh.
        """
        epoch = self._graph.epoch
        self._cache.sync_epoch(epoch)
        return epoch

    def stats(self) -> EngineStats:
        """The engine's typed introspection record.

        One :class:`~repro.stats.EngineStats` carrying the current graph
        epoch, the epoch-keyed recommendation cache's counters
        (``"recommendations"``), the entity ranker's pruning counters
        (``"entity-ranker"``) and, per request stage, how many calls ran
        on the array tables and how many ran the exhaustive reference, by
        reason (``stages``).  A
        request runs on the calling thread, so ``executor`` reports
        ``inline`` with no tasks.  Reads the graph epoch first, so entries
        invalidated by a mutation are already dropped from the reported
        cache ``size``.
        """
        epoch = self._refresh_epoch()
        stages = self._expander.feature_ranker.probability_model.stages
        return EngineStats(
            component="recommendation",
            epoch=epoch,
            caches=(
                CacheStats.from_info(
                    "recommendations", self._cache.cache_info(), epoch=epoch
                ),
            ),
            pruning_counters=(
                PruningStatsView.from_counters(
                    "entity-ranker", self._expander.entity_ranker.pruning_info()
                ),
            ),
            traversal=traversal_stats(self._graph),
            stages=StageStats(
                arrays=dict(stages.arrays),
                fallbacks={stage: dict(reasons) for stage, reasons in stages.fallbacks.items()},
            ),
        )

    def close(self) -> None:
        """Drop the cached results.

        Safe to call repeatedly: the engine remains usable.
        """
        self._cache.clear()

    def __enter__(self) -> "RecommendationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def clear_cache(self) -> None:
        """Drop all cached recommendations (counters are kept)."""
        self._cache.clear()

    def recommend(self, query: ExplorationQuery) -> Recommendation:
        """Recommend for a full query state (seeds must already be present).

        Keyword-only queries cannot be answered here — the PivotE facade
        first resolves keywords to seed entities via the search engine.
        """
        if not query.seed_entities:
            raise NoSeedEntitiesError(
                "query has no seed entities; resolve keywords to entities first"
            )
        recommendation = self.recommend_for_seeds(
            query.seed_entities,
            pinned_features=query.pinned_features,
            domain_type=query.domain_type,
        )
        # Preserve the original query (including keywords) in the payload.
        return Recommendation(
            query=query,
            entities=recommendation.entities,
            features=recommendation.features,
            correlations=recommendation.correlations,
        )

    # ------------------------------------------------------------------ #
    # Pivot support
    # ------------------------------------------------------------------ #
    def pivot_targets(self, recommendation: Recommendation, max_targets: int = 10) -> list[tuple[str, str, int]]:
        """Possible pivot directions from a recommendation.

        Returns ``(anchor_entity, anchor_type, support)`` triples: the
        anchors of the recommended semantic features grouped by their
        dominant type, with how many recommended features point at them.
        Targets are ordered by the total relevance score of the features
        anchored at them, so the most query-relevant anchors (e.g. the
        shared star of the seed films) come first.  These are the
        "exploration pointers" guiding users to other domains.
        """
        support: dict[tuple[str, str], int] = {}
        strength: dict[tuple[str, str], float] = {}
        for scored in recommendation.features:
            anchor = scored.feature.anchor
            anchor_type = self._graph.dominant_type(anchor) or "(untyped)"
            key = (anchor, anchor_type)
            support[key] = support.get(key, 0) + 1
            strength[key] = strength.get(key, 0.0) + scored.score
        ranked = sorted(support.items(), key=lambda item: (-strength[item[0]], -item[1], item[0]))
        return [(anchor, anchor_type, count) for (anchor, anchor_type), count in ranked[:max_targets]]

"""Entity set expansion with semantic features (paper refs [1] and [6]).

Given a few example entities of a target concept ("Forrest Gump",
"Apollo 13"), entity set expansion returns further entities of the same
concept (more Tom Hanks films).  PivotE applies this as the model behind the
*investigation* operation: clicking entities in the x-axis provides seeds,
and the x-axis is expanded with similar entities of the same type.

The expander is a thin, user-facing wrapper around the two-stage ranking
model of :mod:`repro.ranking`, adding the options the investigation UI
exposes: restricting results to the seeds' type and pinning mandatory
semantic features chosen by the user.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..config import RankingConfig
from ..exceptions import NoSeedEntitiesError
from ..features import SemanticFeature, SemanticFeatureIndex
from ..features.columnar import ColumnarFeatureTables
from ..kg import KnowledgeGraph
from ..kg.columns import isin_sorted
from ..ranking import EntityRanker, ScoredEntity, ScoredFeature, SemanticFeatureRanker


@dataclass(frozen=True)
class ExpansionResult:
    """The outcome of one expansion call."""

    seeds: tuple[str, ...]
    entities: tuple[ScoredEntity, ...]
    features: tuple[ScoredFeature, ...]
    restricted_type: str = ""

    def entity_ids(self) -> list[str]:
        """The recommended entity identifiers in rank order."""
        return [entity.entity_id for entity in self.entities]

    def feature_notations(self) -> list[str]:
        """The recommended semantic features in rank order."""
        return [scored.feature.notation() for scored in self.features]


class EntitySetExpander:
    """Expand a seed set of entities using semantic features."""

    def __init__(
        self,
        graph: KnowledgeGraph,
        feature_index: SemanticFeatureIndex | None = None,
        config: RankingConfig | None = None,
    ) -> None:
        self._graph = graph
        self._config = config or RankingConfig()
        self._index = feature_index or SemanticFeatureIndex.build(graph)
        self._feature_ranker = SemanticFeatureRanker(graph, self._index, config=self._config)
        self._entity_ranker = EntityRanker(
            graph, self._index, config=self._config, feature_ranker=self._feature_ranker
        )

    @property
    def feature_index(self) -> SemanticFeatureIndex:
        """The shared semantic-feature index."""
        return self._index

    @property
    def entity_ranker(self) -> EntityRanker:
        """The underlying entity ranker."""
        return self._entity_ranker

    @property
    def feature_ranker(self) -> SemanticFeatureRanker:
        """The underlying semantic-feature ranker."""
        return self._feature_ranker

    # ------------------------------------------------------------------ #
    # Expansion
    # ------------------------------------------------------------------ #
    def dominant_seed_type(self, seeds: Sequence[str]) -> str:
        """The most common dominant type among the seeds (may be "")."""
        if not seeds:
            return ""
        seed_types = (self._graph.dominant_type(seed) for seed in seeds)
        counts = Counter(seed_type for seed_type in seed_types if seed_type)
        if not counts:
            return ""
        # Most common; ties broken by type name for determinism.
        best = sorted(counts.items(), key=lambda item: (-item[1], item[0]))[0]
        return best[0]

    def expand(
        self,
        seeds: Sequence[str],
        top_k: int | None = None,
        restrict_to_seed_type: bool = False,
        required_features: Sequence[SemanticFeature] = (),
        domain_type: str = "",
        exhaustive: bool = False,
    ) -> ExpansionResult:
        """Expand the seed set.

        Type and pinned-feature restrictions are applied to the candidate
        pool *before* ranking and top-k truncation, so a restricted
        expansion returns up to ``top_k`` matching entities whenever that
        many exist (instead of whatever survives filtering an over-fetched
        prefix).

        Parameters
        ----------
        seeds:
            Example entities of the target concept.
        top_k:
            How many similar entities to return.
        restrict_to_seed_type:
            Keep only candidates whose types intersect the dominant seed
            type — the investigation mode of the UI, which stays within one
            domain.
        required_features:
            Semantic features the user pinned as query conditions
            (Fig 3-b); candidates not matching all of them are filtered
            out, and the pinned features are added to the scored pool.
        domain_type:
            Explicit entity type the x-axis is restricted to (the pivot
            domain); takes precedence over ``restrict_to_seed_type``.
        exhaustive:
            Run every stage through the exhaustive reference
            (``rank_exhaustive`` on both rankers and the object-form
            candidate tally and filters).  A seed the pinned feature
            tables do not know does the same, counted as
            ``unknown-entity`` on the probability model's ``stages``.
        """
        if not seeds:
            raise NoSeedEntitiesError("entity set expansion needs at least one seed")
        for seed in seeds:
            self._graph.require_entity(seed)
        top_k = top_k or self._config.top_entities
        pinned = list(required_features)
        restricted_type = ""
        if domain_type:
            restricted_type = domain_type
        elif restrict_to_seed_type:
            restricted_type = self.dominant_seed_type(seeds)

        feature_ranker = self._feature_ranker
        probability_model = feature_ranker.probability_model
        # Candidates travel as entity ordinals of the pinned snapshot's
        # tables from the tally to the ranker.
        tables = seed_ordinals = None
        if not exhaustive:
            support = probability_model.support()
            tables, seed_ordinals, reason = support.ordinal_space(seeds)
            if reason:
                stages = probability_model.stages
                for stage in ("sf_rank", "candidates", "entity_rank"):
                    stages.fell_back(stage, reason, support.epoch)
                if restricted_type or pinned:
                    stages.fell_back("filters", reason, support.epoch)
                exhaustive = True

        rank_features = feature_ranker.rank_exhaustive if exhaustive else feature_ranker.rank
        scored_features = rank_features(seeds)
        if pinned:
            existing = {scored.feature for scored in scored_features}
            extra = [
                feature_ranker.score_feature(feature, seeds)
                for feature in pinned
                if feature not in existing
            ]
            scored_features = sorted(
                list(scored_features) + extra,
                key=lambda item: (-item.score, item.feature.notation()),
            )

        # Candidate generation without the max_candidates cap: the type and
        # pinned-feature restrictions must narrow the pool *before* any
        # truncation (cap or top-k), or low-match-count domain entities can
        # be squeezed out while matching candidates still exist.
        entity_ranker = self._entity_ranker
        if exhaustive:
            candidates = self._index.candidates_matching_any(
                [scored.feature for scored in scored_features], exclude=seeds
            )
            if restricted_type:
                candidates = self.restrict_candidates(candidates, restricted_type)
            if pinned:
                candidates = [
                    entity_id
                    for entity_id in candidates
                    if all(self._index.holds(entity_id, feature) for feature in pinned)
                ]
            ranked = entity_ranker.rank_exhaustive(
                seeds,
                top_k=top_k,
                scored_features=scored_features,
                candidates=candidates[: self._config.max_candidates],
            )
        else:
            stages = probability_model.stages
            stages.ran("candidates")
            candidates = self._index.candidates_matching_any(
                tables.feature_ordinals([scored.feature.key for scored in scored_features]),
                exclude=seed_ordinals,
                tables=tables,
            )
            if restricted_type:
                candidates = self.restrict_candidates(candidates, restricted_type, tables=tables)
            if pinned:
                stages.ran("filters")
                for ordinal in tables.feature_ordinals([feature.key for feature in pinned]).tolist():
                    candidates = candidates[isin_sorted(tables.holders(ordinal), candidates)]
            ranked = entity_ranker.rank(
                seeds,
                top_k=top_k,
                scored_features=scored_features,
                candidates=candidates[: self._config.max_candidates],
                tables=tables,
            )

        return ExpansionResult(
            seeds=tuple(seeds),
            entities=tuple(ranked),
            features=tuple(scored_features[: self._config.top_features]),
            restricted_type=restricted_type,
        )

    def restrict_candidates(
        self,
        candidates: list[str] | np.ndarray,
        restricted_type: str,
        tables: ColumnarFeatureTables | None = None,
    ) -> list[str] | np.ndarray:
        """Keep only candidates that are instances of ``restricted_type``, in order.

        With ``tables`` the candidates are entity ordinals of the
        request's pinned tables and so is the result: one membership mask
        over the tables' membership CSR
        (:meth:`~repro.features.columnar.ColumnarFeatureTables.of_type`),
        so the filter sees the epoch every other stage of the request
        sees.  Without, the candidates are identifiers and each is probed
        against the graph's member set — the exhaustive reference.
        """
        if tables is not None:
            self._feature_ranker.probability_model.stages.ran("filters")
            return candidates[tables.of_type(candidates, restricted_type)]
        members = self._graph.entities_of_type(restricted_type)
        return [entity_id for entity_id in candidates if entity_id in members]

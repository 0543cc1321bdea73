"""The ranking model of entities (§2.3.2).

The relevance of a candidate entity ``e`` to a query ``Q`` combines, over
the query's ranked semantic features ``Phi(Q)``, how likely ``e`` is to hold
each feature and how relevant the feature itself is to the query:

    r(e, Q) = sum_{pi in Phi(Q)} p(pi | e) * r(pi, Q)

The same ``p(pi | e)`` model (with type smoothing) is shared with the
semantic-feature ranker, so an entity of the right type that is missing one
edge still receives partial credit — the "error-tolerant" behaviour the
paper emphasises.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from ..config import RankingConfig
from ..exceptions import NoSeedEntitiesError
from ..features import SemanticFeatureIndex
from ..features.columnar import ColumnarFeatureTables, build_ranker_inputs
from ..kg import KnowledgeGraph
from ..topk import PruningStats, columnar_rank
from .probability import FeatureProbabilityModel
from .ranking_support import FrozenMapping
from .sf_ranking import ScoredFeature, SemanticFeatureRanker


@dataclass(frozen=True)
class ScoredEntity:
    """A ranked entity with its per-feature score contributions."""

    entity_id: str
    score: float
    contributions: Mapping[str, float]

    def top_contributions(self, k: int = 5) -> list[tuple[str, float]]:
        """The ``k`` features contributing most to the score."""
        ranked = sorted(self.contributions.items(), key=lambda item: (-item[1], item[0]))
        return ranked[:k]

    def as_dict(self) -> dict[str, object]:
        return {
            "entity": self.entity_id,
            "score": self.score,
            "contributions": dict(self.contributions),
        }


class EntityRanker:
    """Ranks candidate entities against a seed-set query (the x-axis)."""

    def __init__(
        self,
        graph: KnowledgeGraph,
        feature_index: SemanticFeatureIndex,
        config: RankingConfig | None = None,
        feature_ranker: SemanticFeatureRanker | None = None,
    ) -> None:
        self._graph = graph
        self._index = feature_index
        self._config = config or RankingConfig()
        self._feature_ranker = feature_ranker or SemanticFeatureRanker(
            graph, feature_index, config=self._config
        )
        self._probability: FeatureProbabilityModel = self._feature_ranker.probability_model
        self._pruning_stats = PruningStats()

    @property
    def feature_ranker(self) -> SemanticFeatureRanker:
        """The semantic-feature ranker this entity ranker builds on."""
        return self._feature_ranker

    def pruning_info(self) -> dict[str, int]:
        """Cumulative pruning counters (``cache_info()`` convention)."""
        return self._pruning_stats.as_dict()

    # ------------------------------------------------------------------ #
    # Candidate generation
    # ------------------------------------------------------------------ #
    def candidates(
        self, seeds: Sequence[str], scored_features: Sequence[ScoredFeature]
    ) -> list[str]:
        """Candidate entities: anything matching a query feature, minus seeds.

        Walks the feature index's materialised no-copy holder lists (same
        ordering as :func:`repro.features.candidate_entities`, which queries
        the graph per feature).
        """
        features = [scored.feature for scored in scored_features]
        return self._index.candidates_matching_any(
            features,
            exclude=seeds,
            limit=self._config.max_candidates,
        )

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #
    def score_entity(
        self, entity_id: str, scored_features: Sequence[ScoredFeature]
    ) -> ScoredEntity:
        """``r(e, Q) = sum_pi p(pi|e) * r(pi, Q)`` with per-feature detail."""
        contributions: dict[str, float] = {}
        total = 0.0
        for scored in scored_features:
            probability = self._probability.probability(scored.feature, entity_id)
            contribution = probability * scored.score
            if contribution > 0.0:
                contributions[scored.feature.notation()] = contribution
            total += contribution
        # Read-only view: scored entities are shared by the engine's
        # recommendation cache (same protection as the frozen matrix array).
        return ScoredEntity(
            entity_id=entity_id, score=total, contributions=FrozenMapping(contributions)
        )

    def rank(
        self,
        seeds: Sequence[str],
        top_k: int | None = None,
        scored_features: Sequence[ScoredFeature] | None = None,
        candidates: Sequence[str] | np.ndarray | None = None,
        tables: ColumnarFeatureTables | None = None,
    ) -> list[ScoredEntity]:
        """Rank entities similar to the seed set (the fast path).

        The method mirrors the two-stage process of §2.3: semantic features
        are ranked first (or supplied by the caller), then candidate
        entities are scored against those ranked features.

        The whole call stays in ordinal space (:meth:`_rank_arrays`): the
        candidate tally, the kernel
        (:func:`repro.topk.kernels.columnar_rank`) and the exact epilogue
        read the pinned snapshot's feature tables, and identifiers are
        looked up for the returned entities only.  The kernel only
        *selects* a margin-guarded survivor superset; the epilogue
        re-scores the survivors, so the returned entities carry exactly
        the scores and per-feature contributions of
        :meth:`score_entity`.  ``tables`` marks
        ``candidates`` as entity ordinals of those tables — how
        :class:`~repro.expansion.EntitySetExpander` hands over its
        filtered pool.  A caller's own list of candidate ids and a seed
        the tables do not know run :meth:`rank_exhaustive` instead,
        counted by reason on the probability model's ``stages``.
        """
        if not seeds:
            raise NoSeedEntitiesError("cannot rank entities for an empty seed set")
        for seed in seeds:
            self._graph.require_entity(seed)
        top_k = top_k or self._config.top_entities
        if scored_features is None:
            scored_features = self._feature_ranker.rank(seeds)
        support = self._probability.support()
        stages = self._probability.stages
        if tables is None:
            if candidates is not None:
                reason = "explicit-pool"
            else:
                tables, seed_ordinals, reason = support.ordinal_space(seeds)
            if reason:
                stages.fell_back("entity_rank", reason, support.epoch)
                return self.rank_exhaustive(
                    seeds, top_k=top_k, scored_features=scored_features, candidates=candidates
                )
            stages.ran("candidates")
            candidates = self._index.candidates_matching_any(
                tables.feature_ordinals([scored.feature.key for scored in scored_features]),
                exclude=seed_ordinals,
                limit=self._config.max_candidates,
                tables=tables,
            )
        stages.ran("entity_rank")
        return self._rank_arrays(tables, candidates, scored_features, top_k)

    def _rank_arrays(
        self,
        tables: ColumnarFeatureTables,
        candidates: np.ndarray,
        scored_features: Sequence[ScoredFeature],
        top_k: int,
    ) -> list[ScoredEntity]:
        """:meth:`rank` over candidate ordinals of the pinned ``tables``.

        The kernel picks the ``top_k + margin`` survivors; the epilogue
        builds their dense ``p(pi|e)`` rows
        (:meth:`ColumnarFeatureTables.probabilities`), multiplies by the
        feature relevance and adds each row up left to right — a
        ``cumsum``, never ``sum``/``@``, whose pairwise or blocked
        association would change the last bit — which is term for term
        what :meth:`score_entity` does.  Ordinals are in identifier
        order, so ``lexsort((ordinal, -score))`` is the exhaustive
        ``(-score, entity_id)`` order.
        """
        config = self._config
        feature_ordinals = tables.feature_ordinals(
            [scored.feature.key for scored in scored_features]
        )
        relevance = [scored.score for scored in scored_features]
        inputs = build_ranker_inputs(
            tables, feature_ordinals, relevance, candidates,
            config.epsilon, type_smoothing=config.type_smoothing,
        )
        selected, _ = columnar_rank(inputs, top_k, self._pruning_stats)
        self._pruning_stats.rescored += int(selected.size)

        contributions = tables.probabilities(
            selected, feature_ordinals, config.epsilon, config.type_smoothing
        ) * np.asarray(relevance, dtype=np.float64)
        if contributions.shape[1]:
            totals = np.cumsum(contributions, axis=1)[:, -1]
        else:
            totals = np.zeros(selected.size, dtype=np.float64)
        order = np.lexsort((selected, -totals))[:top_k]
        notations = [scored.feature.notation() for scored in scored_features]
        ids = tables.entity_ids
        return [
            ScoredEntity(
                entity_id=ids[ordinal],
                score=score,
                contributions=FrozenMapping(
                    {
                        notation: contribution
                        for notation, contribution in zip(notations, row)
                        if contribution > 0.0
                    }
                ),
            )
            for ordinal, score, row in zip(
                selected[order].tolist(), totals[order].tolist(), contributions[order].tolist()
            )
        ]

    def rank_exhaustive(
        self,
        seeds: Sequence[str],
        top_k: int | None = None,
        scored_features: Sequence[ScoredFeature] | None = None,
        candidates: Sequence[str] | None = None,
    ) -> list[ScoredEntity]:
        """The seed scoring path: score every candidate, sort, truncate.

        The reference the array form is verified against and the form
        :meth:`rank` falls back to.  A candidate repeated in
        ``candidates`` is ranked once; one the graph does not contain
        raises :class:`~repro.exceptions.EntityNotFoundError`.
        """
        if not seeds:
            raise NoSeedEntitiesError("cannot rank entities for an empty seed set")
        for seed in seeds:
            self._graph.require_entity(seed)
        top_k = top_k or self._config.top_entities
        if scored_features is None:
            scored_features = self._feature_ranker.rank_exhaustive(seeds)
        if candidates is None:
            candidates = self.candidates(seeds, scored_features)
        else:
            candidates = list(dict.fromkeys(candidates))
            for entity_id in candidates:
                self._graph.require_entity(entity_id)
        scored = [self.score_entity(entity_id, scored_features) for entity_id in candidates]
        scored.sort(key=lambda item: (-item.score, item.entity_id))
        return scored[:top_k]

    def rank_with_features(
        self,
        seeds: Sequence[str],
        top_entities: int | None = None,
        top_features: int | None = None,
    ) -> tuple[list[ScoredEntity], list[ScoredFeature]]:
        """Rank both entities and features for a query in one call.

        This is the recommendation-engine entry point the PivotE facade
        uses: the returned pair is exactly the x-axis and y-axis of the
        matrix interface.
        """
        if not seeds:
            raise NoSeedEntitiesError("cannot rank an empty seed set")
        scored_features = self._feature_ranker.rank(seeds, top_k=top_features)
        scored_entities = self.rank(
            seeds, top_k=top_entities, scored_features=scored_features
        )
        return scored_entities, scored_features

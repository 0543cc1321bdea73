"""The probability ``p(pi | e)`` of an entity holding a semantic feature.

Following §2.3.1 of the paper:

* if ``e |= pi`` the probability is 1;
* otherwise the model falls back to the type-conditional estimate
  ``p(pi | c*) = ||E(pi) ∩ E(c*)|| / ||E(c*)||`` where ``c*`` is the
  dominant (most specific) type of ``e``.

This fallback is what the paper calls handling entities "in an
error-tolerant manner": a seed film that happens to miss a ``starring``
edge still contributes a non-zero probability for the feature as long as
films in general tend to hold it.
"""

from __future__ import annotations

from ..features import SemanticFeature, SemanticFeatureIndex
from ..kg import KnowledgeGraph
from .ranking_support import RankingSupport, StageCounters


class FeatureProbabilityModel:
    """Computes ``p(pi | e)`` with optional type-based smoothing."""

    def __init__(
        self,
        graph: KnowledgeGraph,
        feature_index: SemanticFeatureIndex,
        type_smoothing: bool = True,
        epsilon: float = 1e-9,
    ) -> None:
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        self._graph = graph
        self._index = feature_index
        self._type_smoothing = type_smoothing
        self._epsilon = epsilon
        # Cache of type-conditional probabilities keyed by (feature, type),
        # serving the exhaustive reference path; it invalidates off the
        # same index epoch as the scoring context.
        self._type_cache: dict[tuple[SemanticFeature, str], float] = {}
        self._cache_epoch = feature_index.epoch
        self._support: RankingSupport | None = None
        #: Array-vs-object tallies of every stage scoring through this model.
        self.stages = StageCounters()

    @property
    def epsilon(self) -> float:
        """Floor probability returned when no evidence supports the feature."""
        return self._epsilon

    def _ensure_current(self) -> None:
        """Drop memoised probabilities when the graph (index epoch) changed."""
        epoch = self._index.epoch
        if epoch != self._cache_epoch:
            self._type_cache.clear()
            self._support = None
            self._cache_epoch = epoch

    def support(self) -> RankingSupport:
        """The shared scoring context, cached per index epoch.

        Both rankers and the correlation-matrix builder read the pinned
        snapshot's tables through this object; it is replaced whenever
        the underlying graph mutates.
        """
        self._ensure_current()
        if self._support is None:
            self._support = RankingSupport(
                self._index,
                type_smoothing=self._type_smoothing,
                epsilon=self._epsilon,
            )
        return self._support

    def type_conditional(self, feature: SemanticFeature, type_id: str) -> float:
        """``p(pi | c) = ||E(pi) ∩ E(c)|| / ||E(c)||`` for a type ``c``."""
        if not type_id:
            return 0.0
        self._ensure_current()
        key = (feature, type_id)
        cached = self._type_cache.get(key)
        if cached is not None:
            return cached
        intersection, population = self._index.type_conditional_count(feature, type_id)
        probability = intersection / population if population else 0.0
        self._type_cache[key] = probability
        return probability

    def probability(self, feature: SemanticFeature, entity_id: str) -> float:
        """``p(pi | e)`` as defined in §2.3.1."""
        if self._index.holds(entity_id, feature):
            return 1.0
        if not self._type_smoothing:
            return self._epsilon
        dominant_type = self._graph.dominant_type(entity_id)
        smoothed = self.type_conditional(feature, dominant_type)
        return max(smoothed, self._epsilon)

    def probability_with_explanation(
        self, feature: SemanticFeature, entity_id: str
    ) -> tuple[float, str]:
        """``p(pi | e)`` plus a short description of how it was obtained.

        The explanation string is surfaced in the UI's explanation area to
        justify why an entity that does not hold a feature still correlates
        with it.
        """
        if self._index.holds(entity_id, feature):
            return 1.0, "direct: entity holds the feature"
        if not self._type_smoothing:
            return self._epsilon, "no evidence (type smoothing disabled)"
        dominant_type = self._graph.dominant_type(entity_id)
        if not dominant_type:
            return self._epsilon, "no evidence (entity has no type)"
        smoothed = self.type_conditional(feature, dominant_type)
        if smoothed <= 0.0:
            return self._epsilon, f"no instances of {dominant_type} hold the feature"
        return (
            max(smoothed, self._epsilon),
            f"type-smoothed via {dominant_type}: p(pi|c*)={smoothed:.4f}",
        )

    def clear_cache(self) -> None:
        """Drop all memoised probability state: the type-conditional memo
        and the scoring context."""
        self._type_cache.clear()
        self._support = None

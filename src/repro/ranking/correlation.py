"""Entity-feature correlation used by the explanation heat map.

The paper visualises "the correlation of entities and semantic features in
the form of a heat map" divided into seven levels (§2.3.2, Fig 3-f).  The
correlation of an entity ``e`` with a feature ``pi`` under query ``Q`` is
the entity's contribution for that feature in the ranking model:

    corr(e, pi; Q) = p(pi | e) * r(pi, Q)

which is exactly one addend of ``r(e, Q)``.  The heat map therefore *is* a
visual decomposition of the entity ranking, which is what lets users
"understand the recommendation of the system".
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..features import SemanticFeature
from .entity_ranking import ScoredEntity
from .probability import FeatureProbabilityModel
from .sf_ranking import ScoredFeature


@dataclass(frozen=True)
class CorrelationMatrix:
    """A dense entity x feature correlation matrix.

    Rows are entities (the x-axis of the UI), columns are semantic features
    (the y-axis); ``values[i, j]`` is the raw correlation of entity ``i``
    with feature ``j``.
    """

    entities: tuple[str, ...]
    features: tuple[SemanticFeature, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        expected = (len(self.entities), len(self.features))
        if self.values.shape != expected:
            raise ValueError(
                f"matrix shape {self.values.shape} does not match "
                f"{len(self.entities)} entities x {len(self.features)} features"
            )

    @cached_property
    def _entity_positions(self) -> dict[str, int]:
        """Memoised entity -> row map (replaces O(n) ``tuple.index`` scans)."""
        return {entity: row for row, entity in enumerate(self.entities)}

    @cached_property
    def _feature_positions(self) -> dict[SemanticFeature, int]:
        """Memoised feature -> column map."""
        return {feature: column for column, feature in enumerate(self.features)}

    def _entity_position(self, entity_id: str) -> int:
        try:
            return self._entity_positions[entity_id]
        except KeyError:
            raise ValueError(f"{entity_id!r} is not an entity of the matrix") from None

    def _feature_position(self, feature: SemanticFeature) -> int:
        try:
            return self._feature_positions[feature]
        except KeyError:
            raise ValueError(f"{feature.notation()!r} is not a feature of the matrix") from None

    def value(self, entity_id: str, feature: SemanticFeature) -> float:
        """The correlation of one (entity, feature) cell."""
        row = self._entity_position(entity_id)
        column = self._feature_position(feature)
        return float(self.values[row, column])

    def entity_row(self, entity_id: str) -> dict[str, float]:
        """All feature correlations of one entity, keyed by notation."""
        row = self._entity_position(entity_id)
        return {
            feature.notation(): float(self.values[row, column])
            for column, feature in enumerate(self.features)
        }

    def feature_column(self, feature: SemanticFeature) -> dict[str, float]:
        """All entity correlations of one feature."""
        column = self._feature_position(feature)
        return {
            entity: float(self.values[row, column])
            for row, entity in enumerate(self.entities)
        }

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.entities), len(self.features))


def build_correlation_matrix(
    probability_model: FeatureProbabilityModel,
    scored_entities: Sequence[ScoredEntity],
    scored_features: Sequence[ScoredFeature],
) -> CorrelationMatrix:
    """Build the correlation matrix for ranked entities and features.

    One dense ``p(pi|e)`` matrix over the pinned snapshot's feature
    tables (:meth:`ColumnarFeatureTables.probabilities` — the base row of
    each entity's dominant type with the held cells set to 1.0) times
    the feature relevance; no per-cell ``probability()`` calls.  Cell
    values are bitwise-identical to
    :func:`build_correlation_matrix_exhaustive`.
    """
    support = probability_model.support()
    tables = support.columnar_tables()
    probability_model.stages.ran("correlation")
    entities = tuple(entity.entity_id for entity in scored_entities)
    features = tuple(scored.feature for scored in scored_features)
    values = tables.probabilities(
        tables.entity_ordinals(entities),
        tables.feature_ordinals([feature.key for feature in features]),
        support.epsilon,
        support.type_smoothing,
    ) * np.asarray([scored.score for scored in scored_features], dtype=np.float64)
    # Recommendation payloads built here are shared by the engine's LRU
    # cache, so freeze the array: an in-place mutation by one caller must
    # not corrupt every later cache hit for the same query state.
    values.setflags(write=False)
    return CorrelationMatrix(entities=entities, features=features, values=values)


def build_correlation_matrix_exhaustive(
    probability_model: FeatureProbabilityModel,
    scored_entities: Sequence[ScoredEntity],
    scored_features: Sequence[ScoredFeature],
) -> CorrelationMatrix:
    """The seed cell-by-cell assembly, kept as the reference path.

    Calls ``probability()`` once per (entity, feature) cell; the
    equivalence tests compare :func:`build_correlation_matrix` against
    this implementation.
    """
    entities = tuple(entity.entity_id for entity in scored_entities)
    features = tuple(scored.feature for scored in scored_features)
    values = np.zeros((len(entities), len(features)), dtype=float)
    for row, entity_id in enumerate(entities):
        for column, scored in enumerate(scored_features):
            probability = probability_model.probability(scored.feature, entity_id)
            values[row, column] = probability * scored.score
    return CorrelationMatrix(entities=entities, features=features, values=values)

"""Semantic features: the (anchor entity, predicate, direction) patterns."""

from .extraction import (
    anchor_type_directions,
    candidate_entities,
    entity_matches,
    feature_target_types,
    features_of_entities,
    features_of_entity,
    matching_entities,
)
from .feature_index import FeatureIndexSnapshot, SemanticFeatureIndex
from .semantic_feature import Direction, SemanticFeature

__all__ = [
    "Direction",
    "FeatureIndexSnapshot",
    "SemanticFeature",
    "SemanticFeatureIndex",
    "anchor_type_directions",
    "candidate_entities",
    "entity_matches",
    "feature_target_types",
    "features_of_entities",
    "features_of_entity",
    "matching_entities",
]

"""The recommendation engine's ranking models (paper §2.3)."""

from .baselines import (
    BaselineRanker,
    CoOccurrenceRanker,
    JaccardRanker,
    PersonalizedPageRankRanker,
    make_baselines,
)
from .correlation import (
    CorrelationMatrix,
    build_correlation_matrix,
    build_correlation_matrix_exhaustive,
)
from .entity_ranking import EntityRanker, ScoredEntity
from .probability import FeatureProbabilityModel
from .ranking_support import RankingSupport
from .sf_ranking import ScoredFeature, SemanticFeatureRanker

__all__ = [
    "BaselineRanker",
    "CoOccurrenceRanker",
    "CorrelationMatrix",
    "EntityRanker",
    "FeatureProbabilityModel",
    "JaccardRanker",
    "PersonalizedPageRankRanker",
    "RankingSupport",
    "ScoredEntity",
    "ScoredFeature",
    "SemanticFeatureRanker",
    "build_correlation_matrix",
    "build_correlation_matrix_exhaustive",
    "make_baselines",
]

"""Configuration objects for the PivotE system.

The configuration is intentionally plain-data: a handful of frozen dataclasses
with documented defaults matching the behaviour described in the paper
(five retrieval fields, seven heat-map correlation levels, top-k result
sizes used by the demo interface).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace


#: The five retrieval fields of Table 1 in the paper.
DEFAULT_FIELDS: tuple[str, ...] = (
    "names",
    "attributes",
    "categories",
    "similar_entity_names",
    "related_entity_names",
)

#: Default mixture weights for the five fields.  Names dominate, the
#: remaining mass is spread over the contextual fields; weights sum to 1.
DEFAULT_FIELD_WEIGHTS: Mapping[str, float] = {
    "names": 0.4,
    "attributes": 0.15,
    "categories": 0.2,
    "similar_entity_names": 0.1,
    "related_entity_names": 0.15,
}


@dataclass(frozen=True)
class SearchConfig:
    """Configuration of the keyword entity search engine (paper §2.2)."""

    #: Retrieval fields of the multi-fielded entity representation.
    fields: tuple[str, ...] = DEFAULT_FIELDS
    #: Per-field interpolation weights of the mixture of language models.
    field_weights: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_FIELD_WEIGHTS)
    )
    #: Dirichlet smoothing pseudo-count (mu).
    dirichlet_mu: float = 100.0
    #: Jelinek-Mercer interpolation weight towards the collection model.
    jm_lambda: float = 0.1
    #: Smoothing method: ``"dirichlet"`` or ``"jelinek-mercer"``.
    smoothing: str = "dirichlet"
    #: Number of entities returned for a keyword query.
    top_k: int = 20
    #: Maximum number of query results kept in the engine's LRU result
    #: cache; ``0`` disables result caching entirely.
    result_cache_size: int = 128

    def __post_init__(self) -> None:
        if self.smoothing not in ("dirichlet", "jelinek-mercer"):
            raise ValueError(f"unknown smoothing method: {self.smoothing!r}")
        if not math.isfinite(self.dirichlet_mu) or self.dirichlet_mu <= 0:
            raise ValueError("dirichlet_mu must be positive and finite")
        if not 0.0 <= self.jm_lambda <= 1.0:
            raise ValueError("jm_lambda must lie in [0, 1]")
        if self.top_k <= 0:
            raise ValueError("top_k must be positive")
        if self.result_cache_size < 0:
            raise ValueError("result_cache_size must be non-negative")
        if not self.fields:
            raise ValueError("fields must name at least one field")
        missing = [f for f in self.fields if f not in self.field_weights]
        if missing:
            raise ValueError(f"missing field weights for: {missing}")
        bad = {f: w for f, w in self.field_weights.items() if not math.isfinite(w) or w < 0}
        if bad:
            raise ValueError(f"field weights must be non-negative and finite: {bad}")

    def with_(self, **changes: object) -> "SearchConfig":
        """Return a copy with the given attributes replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]


@dataclass(frozen=True)
class RankingConfig:
    """Configuration of the recommendation engine (paper §2.3)."""

    #: Number of recommended entities (x-axis of the matrix).
    top_entities: int = 20
    #: Number of recommended semantic features (y-axis of the matrix).
    top_features: int = 30
    #: Maximum number of candidate entities considered before ranking.
    max_candidates: int = 5000
    #: Maximum number of semantic features scored per query.
    max_features: int = 10000
    #: Whether p(pi|e) falls back to the type-based estimate p(pi|c*)
    #: when the entity does not hold the feature (the paper's
    #: "error-tolerant manner").
    type_smoothing: bool = True
    #: Floor probability used when even the type-based estimate is zero.
    epsilon: float = 1e-9
    #: Use discriminability d(pi) in the SF score (ablation switch).
    use_discriminability: bool = True
    #: Use commonality c(pi, Q) in the SF score (ablation switch).
    use_commonality: bool = True
    #: Maximum number of query states kept in the recommendation engine's
    #: epoch-keyed LRU result cache; ``0`` disables recommendation caching.
    recommendation_cache_size: int = 64

    def __post_init__(self) -> None:
        if self.top_entities <= 0 or self.top_features <= 0:
            raise ValueError("top_entities and top_features must be positive")
        if self.max_candidates <= 0 or self.max_features <= 0:
            raise ValueError("max_candidates and max_features must be positive")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.recommendation_cache_size < 0:
            raise ValueError("recommendation_cache_size must be non-negative")

    def with_(self, **changes: object) -> "RankingConfig":
        """Return a copy with the given attributes replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]


@dataclass(frozen=True)
class HeatmapConfig:
    """Configuration of the explanation heat map (paper §2.3.2 and Fig 3-f)."""

    #: Number of discrete correlation levels; the paper uses seven.
    levels: int = 7
    #: Scale used to bucket correlations: ``"linear"``, ``"log"`` or
    #: ``"quantile"``.
    scale: str = "quantile"

    def __post_init__(self) -> None:
        if self.levels < 2:
            raise ValueError("a heat map needs at least two levels")
        if self.scale not in ("linear", "log", "quantile"):
            raise ValueError(f"unknown heat map scale: {self.scale!r}")


@dataclass(frozen=True)
class PivotEConfig:
    """Top-level configuration bundling all components of Fig 2."""

    search: SearchConfig = field(default_factory=SearchConfig)
    ranking: RankingConfig = field(default_factory=RankingConfig)
    heatmap: HeatmapConfig = field(default_factory=HeatmapConfig)

    @staticmethod
    def default() -> "PivotEConfig":
        """Return the configuration used by the demo system."""
        return PivotEConfig()

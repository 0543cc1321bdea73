"""Exploration model: query states, operations, sessions, paths, recommendations."""

from .operations import (
    DeselectEntity,
    LookupEntity,
    Operation,
    PinFeature,
    Pivot,
    SelectEntity,
    SetDomain,
    SubmitKeywords,
    UnpinFeature,
)
from .path import ExplorationPath, PathEdge, PathNode
from .query_state import ExplorationQuery
from .recommender import Recommendation, RecommendationEngine
from .session import ExplorationSession, TimelineEntry

__all__ = [
    "DeselectEntity",
    "ExplorationPath",
    "ExplorationQuery",
    "ExplorationSession",
    "LookupEntity",
    "Operation",
    "PathEdge",
    "PathNode",
    "PinFeature",
    "Pivot",
    "Recommendation",
    "RecommendationEngine",
    "SelectEntity",
    "SetDomain",
    "SubmitKeywords",
    "TimelineEntry",
    "UnpinFeature",
]

"""Fielded inverted-index substrate used by the entity search engine."""

from .columnar import ColumnarIndex, ColumnarPostings, columnar_view
from .fielded_index import FieldedIndex
from .inverted_index import InvertedIndex
from .postings import (
    Posting,
    PostingList,
    intersect,
    merge_frequencies,
    union,
)
from .statistics import CollectionStatistics, FieldStatistics

__all__ = [
    "CollectionStatistics",
    "ColumnarIndex",
    "ColumnarPostings",
    "FieldStatistics",
    "FieldedIndex",
    "InvertedIndex",
    "Posting",
    "PostingList",
    "columnar_view",
    "intersect",
    "merge_frequencies",
    "union",
]

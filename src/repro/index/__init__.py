"""Fielded inverted-index substrate used by the entity search engine."""

from .columnar import ColumnarPostings, columnar_view
from .fielded_index import FieldedIndex
from .inverted_index import DocumentColumns, InvertedIndex, PostingColumns

__all__ = [
    "ColumnarPostings",
    "DocumentColumns",
    "FieldedIndex",
    "InvertedIndex",
    "PostingColumns",
    "columnar_view",
]

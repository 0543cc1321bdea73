"""The entity search engine: five-field documents, language models, MLM."""

from .bm25 import BM25FScorer, BM25Params, idf
from .engine import SearchEngine, SearchHit
from .fields import (
    FIELD_ANALYZERS,
    FIELD_ATTRIBUTES,
    FIELD_CATEGORIES,
    FIELD_NAMES,
    FIELD_RELATED,
    FIELD_SIMILAR,
    FieldedEntityDocument,
    analyze_document,
    build_all_documents,
    build_entity_document,
    token_rows,
)
from .language_model import (
    SmoothingParams,
    dirichlet_probability,
    jelinek_mercer_probability,
    log_probability,
    smoothed_probability,
)
from .mlm import MixtureLanguageModelScorer, ScoredDocument, SingleFieldScorer
from .query import KeywordQuery, parse_query

__all__ = [
    "BM25FScorer",
    "BM25Params",
    "FIELD_ANALYZERS",
    "FIELD_ATTRIBUTES",
    "FIELD_CATEGORIES",
    "FIELD_NAMES",
    "FIELD_RELATED",
    "FIELD_SIMILAR",
    "FieldedEntityDocument",
    "KeywordQuery",
    "MixtureLanguageModelScorer",
    "ScoredDocument",
    "SearchEngine",
    "SearchHit",
    "SingleFieldScorer",
    "SmoothingParams",
    "analyze_document",
    "build_all_documents",
    "build_entity_document",
    "dirichlet_probability",
    "idf",
    "jelinek_mercer_probability",
    "log_probability",
    "parse_query",
    "smoothed_probability",
    "token_rows",
]

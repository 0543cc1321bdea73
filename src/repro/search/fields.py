"""The five-field entity representation of Table 1.

Every entity is described by five textual fields:

=====================  =====================================================
Field                  Content
=====================  =====================================================
names                  the entity's labels
attributes             its literal values ("142 minutes", "55 million dollars")
categories             the labels of its categories
similar_entity_names   labels of redirected and disambiguated entities
related_entity_names   labels of the connected entities
=====================  =====================================================

The :class:`FieldedEntityDocument` holds the raw text per field;
:func:`build_entity_document` derives it from the knowledge graph, and
:func:`analyze_document` turns it into term lists ready for indexing.
A build analyses every document at once (:func:`token_rows`): each
distinct string once per analyzer, into the integer token rows the
index's posting CSRs are sorted from.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..config import DEFAULT_FIELDS
from ..kg import KnowledgeGraph, label_from_identifier
from ..text import Analyzer, NAME_ANALYZER, TEXT_ANALYZER

#: Canonical field names, re-exported for convenience.
FIELD_NAMES = "names"
FIELD_ATTRIBUTES = "attributes"
FIELD_CATEGORIES = "categories"
FIELD_SIMILAR = "similar_entity_names"
FIELD_RELATED = "related_entity_names"

#: Analyzer used per field.  Name-like fields keep stopwords, text fields
#: are stopword-filtered and stemmed.
FIELD_ANALYZERS: Mapping[str, Analyzer] = {
    FIELD_NAMES: NAME_ANALYZER,
    FIELD_ATTRIBUTES: TEXT_ANALYZER,
    FIELD_CATEGORIES: TEXT_ANALYZER,
    FIELD_SIMILAR: NAME_ANALYZER,
    FIELD_RELATED: NAME_ANALYZER,
}


@dataclass(frozen=True)
class FieldedEntityDocument:
    """The multi-fielded textual representation of one entity."""

    entity_id: str
    fields: Mapping[str, Sequence[str]] = field(default_factory=dict)

    def field_text(self, name: str) -> Sequence[str]:
        """Raw text snippets of one field (empty when the field is absent)."""
        return self.fields.get(name, ())

    def joined(self, name: str) -> str:
        """The field's snippets joined into a single string."""
        return " ".join(self.field_text(name))

    def all_text(self) -> str:
        """All fields concatenated; used by the single-field LM baseline."""
        return " ".join(self.joined(name) for name in DEFAULT_FIELDS)

    def as_table(self) -> list[tuple[str, str]]:
        """(field, content) rows mirroring Table 1 of the paper."""
        return [(name, ", ".join(self.field_text(name))) for name in DEFAULT_FIELDS]


def build_entity_document(graph: KnowledgeGraph, entity_id: str) -> FieldedEntityDocument:
    """Derive the five-field document of an entity from the knowledge graph."""
    entity = graph.entity(entity_id)
    return FieldedEntityDocument(
        entity_id=entity_id,
        fields={
            FIELD_NAMES: entity.labels or (label_from_identifier(entity_id),),
            FIELD_ATTRIBUTES: entity.attribute_values(),
            FIELD_CATEGORIES: tuple(map(label_from_identifier, entity.categories)),
            FIELD_SIMILAR: entity.aliases,
            FIELD_RELATED: tuple(map(graph.label, entity.related)),
        },
    )


def analyze_document(
    document: FieldedEntityDocument, fields: Collection[str] = DEFAULT_FIELDS
) -> dict[str, list[str]]:
    """Analyze the given fields of a document (all five by default) into
    index-ready terms; an index over a subset of the fields gets only its own."""
    analyzed: dict[str, list[str]] = {}
    for name in DEFAULT_FIELDS:
        if name in fields:
            analyzed[name] = FIELD_ANALYZERS[name].analyze_all(document.field_text(name))
    return analyzed


def build_all_documents(graph: KnowledgeGraph) -> dict[str, FieldedEntityDocument]:
    """Build the five-field document for every entity in the graph."""
    return {
        entity_id: build_entity_document(graph, entity_id)
        for entity_id in sorted(graph.entities())
    }


def token_rows(
    documents: Iterable[FieldedEntityDocument], fields: Collection[str] = DEFAULT_FIELDS
) -> tuple[list[str], dict[str, tuple[np.ndarray, np.ndarray]]]:
    """``(vocabulary, field → (codes, ordinals))``: every token of the documents.

    Token ``i`` of a field is term ``vocabulary[codes[i]]`` in the
    document at position ``ordinals[i]`` of ``documents``; the
    vocabulary is ascending, so a code is a term's rank.  The tokens are
    exactly :func:`analyze_document`'s, in its order, but each distinct
    string is analysed once per analyzer (a memo local to this call, so
    nothing outlives the build), and a field without an analyzer has no
    tokens, as in :func:`analyze_document`.
    """
    documents = list(documents)
    codes_of: dict[str, int] = {}
    memos: dict[Analyzer, dict[str, list[int]]] = {}
    rows: dict[str, tuple[list[int], list[int]]] = {}
    for name in fields:
        codes: list[int] = []
        sizes = [0] * len(documents)
        analyzer = FIELD_ANALYZERS.get(name)
        if analyzer is not None:
            memo = memos.setdefault(analyzer, {})
            for position, document in enumerate(documents):
                before = len(codes)
                for text in document.field_text(name):
                    tokens = memo.get(text)
                    if tokens is None:
                        tokens = memo[text] = [
                            codes_of.setdefault(term, len(codes_of))
                            for term in analyzer.analyze(text)
                        ]
                    codes.extend(tokens)
                sizes[position] = len(codes) - before
        rows[name] = (codes, sizes)
    vocabulary = sorted(codes_of)
    rank = np.empty(len(vocabulary), dtype=np.int64)
    rank[np.fromiter(map(codes_of.__getitem__, vocabulary), np.int64, len(vocabulary))] = (
        np.arange(len(vocabulary), dtype=np.int64)
    )
    positions = np.arange(len(documents), dtype=np.int64)
    return vocabulary, {
        name: (
            rank[np.array(codes, dtype=np.int64)],
            np.repeat(positions, sizes),
        )
        for name, (codes, sizes) in rows.items()
    }

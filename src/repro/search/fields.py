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
"""

from __future__ import annotations

from collections.abc import Collection, Mapping, Sequence
from dataclasses import dataclass, field

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
    graph.require_entity(entity_id)

    names: list[str] = list(graph.labels_of(entity_id))
    if not names:
        names = [label_from_identifier(entity_id)]

    attributes: list[str] = []
    for _, values in sorted(graph.attributes_of(entity_id).items()):
        attributes.extend(values)

    categories = [label_from_identifier(category) for category in sorted(graph.categories_of(entity_id))]

    similar = [graph.label(alias) for alias in sorted(graph.aliases_of(entity_id))]

    related_ids: list[str] = []
    seen: set[str] = set()
    for _, target in graph.outgoing(entity_id):
        if target not in seen:
            seen.add(target)
            related_ids.append(target)
    for _, source in graph.incoming(entity_id):
        if source not in seen:
            seen.add(source)
            related_ids.append(source)
    related = [graph.label(related_id) for related_id in related_ids]

    return FieldedEntityDocument(
        entity_id=entity_id,
        fields={
            FIELD_NAMES: tuple(names),
            FIELD_ATTRIBUTES: tuple(attributes),
            FIELD_CATEGORIES: tuple(categories),
            FIELD_SIMILAR: tuple(similar),
            FIELD_RELATED: tuple(related),
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

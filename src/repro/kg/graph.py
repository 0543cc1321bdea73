"""The knowledge-graph store.

:class:`KnowledgeGraph` is the substrate every other component builds on.
It is its column log (:class:`~repro.kg.columns.EdgeColumnLog`): a write
codes the triple straight into the log's string tables and row logs, and
every accessor answers from the log's rows grouped by subject, by object
and by type — the access paths PivotE relies on:

* types (``rdf:type``), for the type-based smoothing ``p(pi|c*)`` and the
  entity-type view of Fig 1-b;
* labels, literals, categories and aliases, for the five-field entity
  representation of Table 1;
* the object-property edges in both directions, so that ``E(pi)`` — the
  set of entities matching a semantic feature — is one row read.

A graph built by ``add`` and one adopted from saved columns
(:meth:`KnowledgeGraph.adopt`, the cold-start path of ``PivotE.load``)
are the same object over the same kind of log, and answer alike in
values and in order.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from ..exceptions import EntityNotFoundError
from .columns import EdgeColumnLog, LogColumns, sorted_unique
from .entity import Entity
from .namespaces import (
    DCT_SUBJECT,
    DISAMBIGUATES,
    NamespaceRegistry,
    RDFS_LABEL,
    RDF_TYPE,
    REDIRECT,
    label_from_identifier,
)
from .triple import Literal, Triple, TripleObject

#: Predicates that describe an entity rather than connect it to another
#: domain entity.  They are excluded from "related entities" and from the
#: semantic-feature space, matching how the paper treats labels, types and
#: categories as dedicated fields instead of exploration pointers.
STRUCTURAL_PREDICATES: frozenset[str] = frozenset(
    {RDF_TYPE, RDFS_LABEL, DCT_SUBJECT, REDIRECT, DISAMBIGUATES}
)

#: The key columns of the row logs: an edge's (or any row's) subject and
#: an edge's object; a type membership's type is its column 1.
SUBJECT, OBJECT, TYPE = 0, 2, 1


class KnowledgeGraph:
    """A mutable, indexed, in-memory RDF knowledge graph."""

    def __init__(self, name: str = "kg", namespaces: NamespaceRegistry | None = None) -> None:
        self.name = name
        self.namespaces = namespaces or NamespaceRegistry()
        #: Serialises mutations against the readers (see :attr:`lock`);
        #: re-entrant so derived structures (the semantic-feature index)
        #: can hold it across a whole rebuild that itself calls accessors.
        self._lock = threading.RLock()
        #: The graph itself: every triple, as ordinal-coded columns (see
        #: :mod:`repro.kg.columns`), which the per-epoch feature tables
        #: and topology are built from too.
        self._columns = EdgeColumnLog(self._lock)
        #: Each labelled entity's first label once asked for: the log only
        #: appends, so it never changes (responses name dozens of entities).
        self._labels: dict[str, str] = {}

    @staticmethod
    def adopt(
        columns: LogColumns,
        name: str = "kg",
        namespaces: NamespaceRegistry | None = None,
    ) -> "KnowledgeGraph":
        """The graph whose triple log is ``columns``, without replaying it.

        Equal on every accessor to the graph that ``add``-ed the same
        triples in the same order.  ``columns`` must have passed
        :meth:`LogColumns.check` and is owned by the graph from here on.
        """
        graph = KnowledgeGraph(name, namespaces)
        graph._columns = EdgeColumnLog(graph._lock, adopted=columns)
        return graph

    @property
    def columns(self) -> EdgeColumnLog:
        """The graph's append-only edge-column log."""
        return self._columns

    @property
    def epoch(self) -> int:
        """A counter incremented on every successful mutation of the graph."""
        return len(self._columns)

    @property
    def lock(self) -> threading.RLock:
        """The graph's mutation lock (re-entrant).

        Concurrent-serving contract: :meth:`add_triple` holds it for every
        mutation and every accessor holds it per call, and derived
        structures (the semantic-feature index) hold it across a whole
        refresh so they fold a *consistent* graph state into their
        snapshot.  Membership tests and ``epoch`` stay lock-free — they
        are atomic under the GIL.
        """
        return self._lock

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, subject: str, predicate: str, obj: TripleObject) -> bool:
        """Add a triple; return False when it was already present."""
        return self.add_triple(Triple(subject, predicate, obj))

    def add_triple(self, triple: Triple) -> bool:
        """Add a :class:`Triple`; return False when it was already present.

        Runs under :attr:`lock` so readers see either the whole mutation
        or none of it.
        """
        with self._lock:
            return self._columns.add(triple)

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Add many triples under one lock acquisition; return how many were new."""
        with self._lock:
            add = self._columns.add
            return sum(1 for triple in triples if add(triple))

    def add_label(self, entity: str, label: str) -> None:
        """Attach an ``rdfs:label`` to ``entity``."""
        self.add(entity, RDFS_LABEL, Literal(label))

    def add_type(self, entity: str, type_id: str) -> None:
        """Declare ``entity rdf:type type_id``."""
        self.add(entity, RDF_TYPE, type_id)

    def add_category(self, entity: str, category: str) -> None:
        """Declare ``entity dct:subject category``."""
        self.add(entity, DCT_SUBJECT, category)

    def add_attribute(self, entity: str, predicate: str, value: str, datatype: str = "string") -> None:
        """Attach a literal attribute to ``entity``."""
        self.add(entity, predicate, Literal(value, datatype=datatype))

    def add_alias(self, entity: str, alias_entity: str) -> None:
        """Declare that ``alias_entity`` redirects to ``entity``."""
        self.add(entity, REDIRECT, alias_entity)

    # ------------------------------------------------------------------ #
    # Row reads
    # ------------------------------------------------------------------ #
    def _rows(self, log, column: int, entity_id: str) -> list[list[int]]:
        """The value columns, in log order, of ``log``'s rows whose
        ``column`` is the entity (lock held)."""
        return log.values(log.rows_of(column, self._columns.entities.find(entity_id)))

    def _edges_with(self, predicate: str) -> tuple[np.ndarray, np.ndarray]:
        """``(subjects, objects)`` codes of the edges labelled ``predicate`` (lock held)."""
        code = self._columns.predicates.find(predicate)
        subjects, predicates, objects, _ = self._columns.edges.rows()
        labelled = predicates == (-1 if code is None else code)
        return subjects[labelled], objects[labelled]

    def _entity_set(self, codes: Iterable[int]) -> set[str]:
        return set(self._columns.entities.decode(codes))

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        # One epoch per logged triple, and triples are never removed.
        return len(self._columns)

    def __contains__(self, entity_id: str) -> bool:
        return self._columns.entities.find(entity_id) is not None

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._columns.triples())

    @property
    def triples(self) -> Sequence[Triple]:
        """All triples in insertion order."""
        return tuple(self._columns.triples())

    def entities(self) -> set[str]:
        """All entity identifiers (subjects and object-entities)."""
        with self._lock:
            return set(self._columns.entities.tolist())

    def predicates(self) -> set[str]:
        """All predicates appearing in the graph."""
        with self._lock:
            log = self._columns
            found = set(log.predicates.tolist())
            if len(log.typed):
                found.add(RDF_TYPE)
            found.update(log.strings.decode(sorted_unique(log.others.rows()[1]).tolist()))
            return found

    def edge_predicates(self) -> set[str]:
        """Predicates that connect entities (exploration-relevant relations)."""
        with self._lock:
            return set(self._columns.predicates.tolist())

    def num_entities(self) -> int:
        return len(self._columns.entities)

    def num_edges(self) -> int:
        """Number of object-property edges (excluding structural predicates)."""
        return len(self._columns.edges)

    def has_entity(self, entity_id: str) -> bool:
        return entity_id in self

    def require_entity(self, entity_id: str) -> None:
        """Raise :class:`EntityNotFoundError` unless the entity exists."""
        if entity_id not in self:
            raise EntityNotFoundError(entity_id)

    # ------------------------------------------------------------------ #
    # Pattern queries
    # ------------------------------------------------------------------ #
    def objects(self, subject: str, predicate: str) -> set[str]:
        """Entities ``o`` with ``<subject, predicate, o>`` in the graph."""
        with self._lock:
            code = self._columns.predicates.find(predicate)
            _, predicates, objects = self._rows(self._columns.edges, SUBJECT, subject)
            return self._entity_set(o for p, o in zip(predicates, objects) if p == code)

    def subjects(self, predicate: str, obj: str) -> set[str]:
        """Entities ``s`` with ``<s, predicate, obj>`` in the graph."""
        with self._lock:
            code = self._columns.predicates.find(predicate)
            subjects, predicates, _ = self._rows(self._columns.edges, OBJECT, obj)
            return self._entity_set(s for s, p in zip(subjects, predicates) if p == code)

    def predicates_between(self, subject: str, obj: str) -> set[str]:
        """Predicates ``p`` with ``<subject, p, obj>`` in the graph."""
        with self._lock:
            code = self._columns.entities.find(obj)
            _, predicates, objects = self._rows(self._columns.edges, SUBJECT, subject)
            names = self._columns.predicates
            return {names[p] for p, o in zip(predicates, objects) if o == code}

    def outgoing(self, entity_id: str) -> list[tuple[str, str]]:
        """Object-property edges leaving ``entity_id`` as ``(predicate, target)``:
        predicates in first-seen order, targets ascending within each."""
        with self._lock:
            _, predicates, objects = self._rows(self._columns.edges, SUBJECT, entity_id)
            targets: dict[int, list[str]] = {}
            for predicate, target in zip(predicates, self._columns.entities.decode(objects)):
                targets.setdefault(predicate, []).append(target)
            names = self._columns.predicates
            return [
                (names[predicate], target)
                for predicate, found in targets.items()
                for target in sorted(found)
            ]

    def incoming(self, entity_id: str) -> list[tuple[str, str]]:
        """Object-property edges arriving at ``entity_id`` as ``(predicate, source)``:
        sources in first-seen order, predicates ascending within each."""
        with self._lock:
            subjects, predicates, _ = self._rows(self._columns.edges, OBJECT, entity_id)
            labels: dict[int, list[str]] = {}
            for subject, predicate in zip(subjects, self._columns.predicates.decode(predicates)):
                labels.setdefault(subject, []).append(predicate)
            entities = self._columns.entities
            return [
                (predicate, entities[subject])
                for subject, found in labels.items()
                for predicate in sorted(found)
            ]

    def neighbours(self, entity_id: str) -> set[str]:
        """Entities one object-property hop away (either direction)."""
        with self._lock:
            edges = self._columns.edges
            return self._entity_set(
                [*self._rows(edges, SUBJECT, entity_id)[2], *self._rows(edges, OBJECT, entity_id)[0]]
            )

    def degree(self, entity_id: str) -> int:
        """Number of object-property edges touching ``entity_id``."""
        with self._lock:
            edges, code = self._columns.edges, self._columns.entities.find(entity_id)
            return int(edges.rows_of(SUBJECT, code).size + edges.rows_of(OBJECT, code).size)

    def subjects_of_predicate(self, predicate: str) -> set[str]:
        """All subjects that have at least one edge with ``predicate``."""
        with self._lock:
            return self._entity_set(set(self._edges_with(predicate)[0].tolist()))

    def objects_of_predicate(self, predicate: str) -> set[str]:
        """All objects reachable via ``predicate``."""
        with self._lock:
            return self._entity_set(set(self._edges_with(predicate)[1].tolist()))

    def predicate_frequency(self, predicate: str) -> int:
        """Number of edges labelled with ``predicate``."""
        with self._lock:
            return int(self._edges_with(predicate)[0].size)

    # ------------------------------------------------------------------ #
    # Types, labels, categories
    # ------------------------------------------------------------------ #
    def types_of(self, entity_id: str) -> set[str]:
        """Types of an entity (``rdf:type`` objects)."""
        with self._lock:
            return set(self._columns.types.decode(self._rows(self._columns.typed, SUBJECT, entity_id)[1]))

    def entities_of_type(self, type_id: str) -> set[str]:
        """All instances of a type."""
        with self._lock:
            typed = self._columns.typed
            rows = typed.rows_of(TYPE, self._columns.types.find(type_id))
            return self._entity_set(typed.values(rows)[0])

    def types(self) -> set[str]:
        """All entity types used in the graph."""
        with self._lock:
            return set(self._columns.types.tolist())

    def type_count(self, type_id: str) -> int:
        """Number of instances of a type."""
        with self._lock:
            return int(self._columns.typed.rows_of(TYPE, self._columns.types.find(type_id)).size)

    def type_tables(self) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
        """One consistent ``(entity → types, type → members)`` copy, taken under :attr:`lock`.

        A reader pinned to an epoch takes its types from that epoch's
        feature tables instead
        (:meth:`~repro.features.feature_index.FeatureIndexSnapshot.dominant_type`).
        """
        with self._lock:
            entities, types = self._columns.entities, self._columns.types
            entity_types: dict[str, set[str]] = {}
            members: dict[str, set[str]] = {}
            for entity_code, type_code in zip(*self._columns.typed.rows()[:2].tolist()):
                entity_id, type_id = entities[entity_code], types[type_code]
                entity_types.setdefault(entity_id, set()).add(type_id)
                members.setdefault(type_id, set()).add(entity_id)
            return entity_types, members

    def dominant_type(self, entity_id: str) -> str:
        """The most specific type of an entity.

        Following the entity-set-expansion papers, the dominant type ``c*``
        of an entity is its *least populated* type — the rarest type is the
        most specific one.  Entities without a type return ``""``.
        """
        with self._lock:
            typed, types = self._columns.typed, self._columns.types
            codes = self._rows(typed, SUBJECT, entity_id)[1]
            if not codes:
                return ""
            return min((typed.rows_of(TYPE, code).size, types[code]) for code in codes)[1]

    def _facts(self, entity_id: str) -> tuple[list[str], dict[str, list[str]], set[str], set[str]]:
        """``(labels, attributes, categories, aliases)`` of the entity, from
        one read of its literal, category and alias rows (lock held)."""
        strings = self._columns.strings
        label, category = strings.find(RDFS_LABEL), strings.find(DCT_SUBJECT)
        aliases = {strings.find(REDIRECT), strings.find(DISAMBIGUATES)} - {None}
        labels: list[int] = []
        attributes: dict[int, list[int]] = {}
        categories: list[int] = []
        targets: list[int] = []
        _, predicates, objects, datatypes, _ = self._rows(self._columns.others, SUBJECT, entity_id)
        for predicate, value, datatype in zip(predicates, objects, datatypes):
            if datatype >= 0:
                (labels if predicate == label else attributes.setdefault(predicate, [])).append(value)
            elif predicate == category:
                categories.append(value)
            elif predicate in aliases:
                targets.append(value)
        return (
            strings.decode(labels),
            {strings[predicate]: strings.decode(values) for predicate, values in attributes.items()},
            set(strings.decode(categories)),
            self._entity_set(targets),
        )

    def labels_of(self, entity_id: str) -> list[str]:
        """Explicit labels of an entity (may be empty), in the order written."""
        with self._lock:
            return self._facts(entity_id)[0]

    def label(self, entity_id: str) -> str:
        """Preferred display label (the first written), falling back to the identifier."""
        found = self._labels.get(entity_id)
        if found is None:
            labels = self.labels_of(entity_id)
            if not labels:
                return label_from_identifier(entity_id)
            found = self._labels[entity_id] = labels[0]
        return found

    def categories_of(self, entity_id: str) -> set[str]:
        """Categories of an entity (``dct:subject`` objects)."""
        with self._lock:
            return self._facts(entity_id)[2]

    def entities_in_category(self, category: str) -> set[str]:
        """All entities carrying the given category."""
        with self._lock:
            strings = self._columns.strings
            predicate, value = strings.find(DCT_SUBJECT), strings.find(category)
            if predicate is None or value is None:
                return set()
            subjects, predicates, objects, datatypes, _, _ = self._columns.others.rows()
            held = (predicates == predicate) & (objects == value) & (datatypes < 0)
            return self._entity_set(subjects[held].tolist())

    def aliases_of(self, entity_id: str) -> set[str]:
        """Alias entities (redirects/disambiguations) of an entity."""
        with self._lock:
            return self._facts(entity_id)[3]

    def attributes_of(self, entity_id: str) -> dict[str, list[str]]:
        """Literal attributes of an entity keyed by predicate (first-seen
        order), values in the order written.

        Structural literals (labels) are excluded — they are exposed via
        :meth:`labels_of`.
        """
        with self._lock:
            return self._facts(entity_id)[1]

    # ------------------------------------------------------------------ #
    # Entity snapshots
    # ------------------------------------------------------------------ #
    def entity(self, entity_id: str) -> Entity:
        """Build the full :class:`Entity` snapshot for an identifier."""
        self.require_entity(entity_id)
        with self._lock:
            outgoing = tuple(self.outgoing(entity_id))
            incoming = tuple(self.incoming(entity_id))
            labels, attributes, categories, aliases = self._facts(entity_id)
            types = sorted(self.types_of(entity_id), key=lambda t: (self.type_count(t), t))
        # Neighbours once each, targets first, in edge order.
        related = dict.fromkeys([target for _, target in outgoing] + [source for _, source in incoming])
        return Entity(
            identifier=entity_id,
            labels=tuple(labels),
            types=tuple(types),
            categories=tuple(sorted(categories)),
            attributes={predicate: tuple(values) for predicate, values in sorted(attributes.items())},
            aliases=tuple(self.label(alias) for alias in sorted(aliases)),
            related=tuple(related),
            outgoing=outgoing,
            incoming=incoming,
        )

    def entity_or_none(self, entity_id: str) -> Entity | None:
        """Like :meth:`entity` but returning ``None`` for unknown identifiers."""
        if entity_id not in self:
            return None
        return self.entity(entity_id)

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """One-line description used by logging and the examples."""
        log = self._columns
        return (
            f"KnowledgeGraph({self.name!r}: {len(self)} triples, "
            f"{len(log.entities)} entities, {len(log.types)} types, "
            f"{len(log.predicates)} edge predicates)"
        )

    def copy(self, name: str | None = None) -> "KnowledgeGraph":
        """Return an independent copy of the graph."""
        clone = KnowledgeGraph(name or self.name, namespaces=self.namespaces)
        clone.add_all(self._columns.triples())
        return clone

    def merge(self, other: "KnowledgeGraph") -> int:
        """Merge another graph into this one; return number of new triples."""
        return self.add_all(other.triples)

"""The in-memory knowledge-graph store.

:class:`KnowledgeGraph` is the substrate every other component builds on.  It
stores triples with three access-path indexes (by subject, by predicate and by
object) plus dedicated indexes for the structures PivotE relies on heavily:

* a type index (``rdf:type``) used for the type-based smoothing ``p(pi|c*)``
  and for the entity-type view of Fig 1-b;
* a label/alias index used to build the five-field entity representation of
  Table 1;
* per-predicate subject/object maps so that ``E(pi)`` — the set of entities
  matching a semantic feature — can be computed in O(1) lookups.

The store is deliberately simple (dictionaries of sets) but the interface is
what a production triple store would expose, so swapping in a disk-backed
implementation would not change any caller.

A graph comes into being in one of two ways.  Built by ``add``, it fills
every container as the triples arrive.  *Adopted* from saved columns
(:meth:`KnowledgeGraph.adopt`, the cold-start path of ``PivotE.load``) it
builds no container at all: its entity accessors — membership, entities,
labels, types and their members: all that search, recommendation, pivot
and explanation read — answer from the log's label and type rows,
grouped into CSRs over the one sorted entity table by array sorts
(:class:`~repro.kg.columns.EntityRows`).  The first read of any
container (the triple list and set, the three edge indexes, literals,
categories, aliases, the entity tables as dictionaries) replays the
column log through ``_add_triple_locked``, once, under the lock
(:class:`_AdoptedGraph`), after which the graph is an ordinary one: no
accessor of a built or hydrated graph tests anything.
"""

from __future__ import annotations

import logging
import sys
import threading
from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence
from time import perf_counter

from ..exceptions import EntityNotFoundError
from ..utils import gc_paused
from .columns import EdgeColumnLog, LogColumns
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

#: The containers an adopted graph builds on first use (see :class:`_AdoptedGraph`).
_CONTAINERS = (
    "_entities", "_labels", "_types", "_type_members",
    "_triples", "_triple_set", "_spo", "_pos", "_osp", "_literals",
    "_categories", "_category_members", "_aliases", "_predicates",
)

_LOG = logging.getLogger("repro")


class KnowledgeGraph:
    """A mutable, indexed, in-memory RDF knowledge graph."""

    def __init__(self, name: str = "kg", namespaces: NamespaceRegistry | None = None) -> None:
        self.name = name
        self.namespaces = namespaces or NamespaceRegistry()
        self._triples: list[Triple] = []
        self._triple_set: set[tuple[str, str, TripleObject]] = set()
        # Access-path indexes over entity edges (object properties).
        self._spo: dict[str, dict[str, set[str]]] = defaultdict(lambda: defaultdict(set))
        self._pos: dict[str, dict[str, set[str]]] = defaultdict(lambda: defaultdict(set))
        self._osp: dict[str, dict[str, set[str]]] = defaultdict(lambda: defaultdict(set))
        # Literal attributes: subject -> predicate -> [values]
        self._literals: dict[str, dict[str, list[Literal]]] = defaultdict(lambda: defaultdict(list))
        # Special-purpose indexes.
        self._types: dict[str, set[str]] = defaultdict(set)          # entity -> types
        self._type_members: dict[str, set[str]] = defaultdict(set)   # type -> entities
        self._labels: dict[str, list[str]] = defaultdict(list)       # entity -> labels
        self._categories: dict[str, set[str]] = defaultdict(set)     # entity -> categories
        self._category_members: dict[str, set[str]] = defaultdict(set)
        self._aliases: dict[str, set[str]] = defaultdict(set)        # entity -> alias entity ids
        self._entities: set[str] = set()
        self._predicates: set[str] = set()
        #: Mutation counter: bumped on every new triple so derived
        #: structures (feature index, recommendation caches) can detect
        #: staleness, mirroring ``FieldedIndex.epoch`` on the search side.
        self._epoch = 0
        #: Serialises mutations against the readers that iterate or copy
        #: shared containers (see :attr:`lock`); re-entrant so derived
        #: structures (the semantic-feature index) can hold it across a
        #: whole rebuild that itself calls locked accessors.
        self._lock = threading.RLock()
        #: Ordinal-coded columns of the triple log, caught up on demand
        #: (see :mod:`repro.kg.columns`); what the per-epoch feature
        #: tables and topology are built from.
        self._columns = EdgeColumnLog(self._triples, self._lock)
        #: How long building deferred access paths took (0.0: none were deferred).
        self.hydration_ms = 0.0

    @staticmethod
    def adopt(
        columns: LogColumns,
        name: str = "kg",
        namespaces: NamespaceRegistry | None = None,
    ) -> "KnowledgeGraph":
        """The graph whose triple log is ``columns``, without replaying it.

        Equal on every accessor to the graph that ``add``-ed the same
        triples in the same order.  No container is built here: the
        entity accessors answer from the log's rows, which it groups as
        it adopts them, and the containers are built when a caller first
        reads one (see :class:`_AdoptedGraph`).
        ``columns`` must have passed :meth:`LogColumns.check` and is owned
        by the graph from here on.
        """
        graph = _AdoptedGraph.__new__(_AdoptedGraph)
        graph.name = name
        graph.namespaces = namespaces or NamespaceRegistry()
        graph._lock = threading.RLock()
        graph._columns = EdgeColumnLog([], graph._lock, adopted=columns)
        graph._epoch = columns.triples
        graph.hydration_ms = 0.0
        return graph

    @property
    def hydrated(self) -> bool:
        """Whether the dictionary containers exist (always, unless adopted)."""
        return "_triples" in self.__dict__

    @property
    def columns(self) -> EdgeColumnLog:
        """The graph's append-only edge-column log."""
        return self._columns

    @property
    def epoch(self) -> int:
        """A counter incremented on every successful mutation of the graph."""
        return self._epoch

    @property
    def lock(self) -> threading.RLock:
        """The graph's mutation lock (re-entrant).

        Concurrent-serving contract: :meth:`add_triple` holds it for every
        mutation, the accessors that iterate or copy shared containers
        hold it per call, and derived structures (the semantic-feature
        index) hold it across a whole refresh so they fold a *consistent*
        graph state into their snapshot.  Point lookups (`in`,
        ``epoch``, dictionary ``get``) stay lock-free — they are atomic
        under the GIL.
        """
        return self._lock

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, subject: str, predicate: str, obj: TripleObject) -> bool:
        """Add a triple; return False when it was already present."""
        triple = Triple(subject, predicate, obj)
        return self.add_triple(triple)

    def add_triple(self, triple: Triple) -> bool:
        """Add a :class:`Triple`; return False when it was already present.

        Runs under :attr:`lock` so readers that take it see either the
        whole mutation or none of it.
        """
        with self._lock:
            return self._add_triple_locked(triple)

    def _add_triple_locked(self, triple: Triple) -> bool:
        key = triple.as_tuple()
        if key in self._triple_set:
            return False
        self._triple_set.add(key)
        self._triples.append(triple)
        self._epoch += 1
        subject, predicate = triple.subject, triple.predicate
        self._entities.add(subject)
        self._predicates.add(predicate)

        if triple.is_literal:
            assert isinstance(triple.object, Literal)
            self._literals[subject][predicate].append(triple.object)
            if predicate == RDFS_LABEL:
                self._labels[subject].append(triple.object.value)
            return True

        obj = triple.object
        assert isinstance(obj, str)
        if predicate == RDF_TYPE:
            self._types[subject].add(obj)
            self._type_members[obj].add(subject)
            return True
        if predicate == DCT_SUBJECT:
            self._categories[subject].add(obj)
            self._category_members[obj].add(subject)
            return True
        if predicate in (REDIRECT, DISAMBIGUATES):
            self._aliases[subject].add(obj)
            self._entities.add(obj)
            return True

        # A genuine entity edge.
        self._entities.add(obj)
        self._spo[subject][predicate].add(obj)
        self._pos[predicate][obj].add(subject)
        self._osp[obj][subject].add(predicate)
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Add many triples under one lock acquisition; return how many were new."""
        with self._lock:
            return sum(1 for triple in triples if self._add_triple_locked(triple))

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
    # Basic accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        # One epoch per logged triple, and triples are never removed.
        return self._epoch

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self._entities

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    @property
    def triples(self) -> Sequence[Triple]:
        """All triples in insertion order."""
        return tuple(self._triples)

    def entities(self) -> set[str]:
        """All entity identifiers (subjects and object-entities)."""
        with self._lock:
            return set(self._entities)

    def predicates(self) -> set[str]:
        """All predicates appearing in the graph."""
        return set(self._predicates)

    def edge_predicates(self) -> set[str]:
        """Predicates that connect entities (exploration-relevant relations)."""
        return set(self._pos.keys())

    def num_entities(self) -> int:
        return len(self._entities)

    def num_edges(self) -> int:
        """Number of object-property edges (excluding structural predicates)."""
        return sum(
            len(objs)
            for by_pred in self._spo.values()
            for objs in by_pred.values()
        )

    def has_entity(self, entity_id: str) -> bool:
        return entity_id in self._entities

    def require_entity(self, entity_id: str) -> None:
        """Raise :class:`EntityNotFoundError` unless the entity exists."""
        if entity_id not in self._entities:
            raise EntityNotFoundError(entity_id)

    # ------------------------------------------------------------------ #
    # Pattern queries
    # ------------------------------------------------------------------ #
    def objects(self, subject: str, predicate: str) -> set[str]:
        """Entities ``o`` with ``<subject, predicate, o>`` in the graph."""
        with self._lock:
            return set(self._spo.get(subject, {}).get(predicate, set()))

    def subjects(self, predicate: str, obj: str) -> set[str]:
        """Entities ``s`` with ``<s, predicate, obj>`` in the graph."""
        with self._lock:
            return set(self._pos.get(predicate, {}).get(obj, set()))

    def predicates_between(self, subject: str, obj: str) -> set[str]:
        """Predicates ``p`` with ``<subject, p, obj>`` in the graph."""
        with self._lock:
            return set(self._osp.get(obj, {}).get(subject, set()))

    def outgoing(self, entity_id: str) -> list[tuple[str, str]]:
        """Object-property edges leaving ``entity_id`` as ``(predicate, target)``."""
        with self._lock:
            result: list[tuple[str, str]] = []
            for predicate, objs in self._spo.get(entity_id, {}).items():
                result.extend((predicate, obj) for obj in sorted(objs))
            return result

    def incoming(self, entity_id: str) -> list[tuple[str, str]]:
        """Object-property edges arriving at ``entity_id`` as ``(predicate, source)``."""
        with self._lock:
            result: list[tuple[str, str]] = []
            for subject, predicates in self._osp.get(entity_id, {}).items():
                result.extend((predicate, subject) for predicate in sorted(predicates))
            return result

    def neighbours(self, entity_id: str) -> set[str]:
        """Entities one object-property hop away (either direction)."""
        with self._lock:
            result: set[str] = set()
            for objs in self._spo.get(entity_id, {}).values():
                result.update(objs)
            result.update(self._osp.get(entity_id, {}).keys())
            return result

    def degree(self, entity_id: str) -> int:
        """Number of object-property edges touching ``entity_id``."""
        out = sum(len(objs) for objs in self._spo.get(entity_id, {}).values())
        inc = sum(len(preds) for preds in self._osp.get(entity_id, {}).values())
        return out + inc

    def subjects_of_predicate(self, predicate: str) -> set[str]:
        """All subjects that have at least one edge with ``predicate``."""
        result: set[str] = set()
        for obj_subjects in self._pos.get(predicate, {}).values():
            result.update(obj_subjects)
        return result

    def objects_of_predicate(self, predicate: str) -> set[str]:
        """All objects reachable via ``predicate``."""
        return set(self._pos.get(predicate, {}).keys())

    def predicate_frequency(self, predicate: str) -> int:
        """Number of edges labelled with ``predicate``."""
        return sum(len(subjects) for subjects in self._pos.get(predicate, {}).values())

    # ------------------------------------------------------------------ #
    # Types, labels, categories
    # ------------------------------------------------------------------ #
    def types_of(self, entity_id: str) -> set[str]:
        """Types of an entity (``rdf:type`` objects)."""
        with self._lock:
            return set(self._types.get(entity_id, set()))

    def entities_of_type(self, type_id: str) -> set[str]:
        """All instances of a type."""
        with self._lock:
            return set(self._type_members.get(type_id, set()))

    def types(self) -> set[str]:
        """All entity types used in the graph."""
        with self._lock:
            return set(self._type_members.keys())

    def type_count(self, type_id: str) -> int:
        """Number of instances of a type."""
        return len(self._type_members.get(type_id, set()))

    def type_tables(self) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
        """One consistent ``(entity → types, type → members)`` copy, taken under :attr:`lock`.

        A reader pinned to an epoch takes its types from that epoch's
        feature tables instead
        (:meth:`~repro.features.feature_index.FeatureIndexSnapshot.dominant_type`).
        """
        with self._lock:
            return (
                {entity: set(types) for entity, types in self._types.items()},
                {type_id: set(members) for type_id, members in self._type_members.items()},
            )

    def dominant_type(self, entity_id: str) -> str:
        """The most specific type of an entity.

        Following the entity-set-expansion papers, the dominant type ``c*``
        of an entity is its *least populated* type — the rarest type is the
        most specific one.  Entities without a type return ``""``.
        """
        with self._lock:
            entity_types = self._types.get(entity_id)
            if not entity_types:
                return ""
            return min(entity_types, key=lambda t: (len(self._type_members[t]), t))

    def labels_of(self, entity_id: str) -> list[str]:
        """Explicit labels of an entity (may be empty)."""
        with self._lock:
            return list(self._labels.get(entity_id, []))

    def label(self, entity_id: str) -> str:
        """Preferred display label, falling back to the identifier."""
        labels = self._labels.get(entity_id)
        if labels:
            return labels[0]
        return label_from_identifier(entity_id)

    def categories_of(self, entity_id: str) -> set[str]:
        """Categories of an entity (``dct:subject`` objects)."""
        with self._lock:
            return set(self._categories.get(entity_id, set()))

    def entities_in_category(self, category: str) -> set[str]:
        """All entities carrying the given category."""
        with self._lock:
            return set(self._category_members.get(category, set()))

    def aliases_of(self, entity_id: str) -> set[str]:
        """Alias entities (redirects/disambiguations) of an entity."""
        with self._lock:
            return set(self._aliases.get(entity_id, set()))

    def attributes_of(self, entity_id: str) -> dict[str, list[str]]:
        """Literal attributes of an entity keyed by predicate.

        Structural literals (labels) are excluded — they are exposed via
        :meth:`labels_of`.
        """
        with self._lock:
            result: dict[str, list[str]] = {}
            for predicate, literals in self._literals.get(entity_id, {}).items():
                if predicate == RDFS_LABEL:
                    continue
                result[predicate] = [lit.value for lit in literals]
            return result

    # ------------------------------------------------------------------ #
    # Entity snapshots
    # ------------------------------------------------------------------ #
    def entity(self, entity_id: str) -> Entity:
        """Build the full :class:`Entity` snapshot for an identifier."""
        self.require_entity(entity_id)
        outgoing = tuple(self.outgoing(entity_id))
        incoming = tuple(self.incoming(entity_id))
        related: list[str] = []
        seen: set[str] = set()
        for _, target in outgoing:
            if target not in seen:
                seen.add(target)
                related.append(target)
        for _, source in incoming:
            if source not in seen:
                seen.add(source)
                related.append(source)
        attributes = {
            predicate: tuple(values)
            for predicate, values in sorted(self.attributes_of(entity_id).items())
        }
        alias_names = tuple(self.label(alias) for alias in sorted(self.aliases_of(entity_id)))
        return Entity(
            identifier=entity_id,
            labels=tuple(self.labels_of(entity_id)),
            types=tuple(sorted(self.types_of(entity_id), key=lambda t: (self.type_count(t), t))),
            categories=tuple(sorted(self.categories_of(entity_id))),
            attributes=attributes,
            aliases=alias_names,
            related=tuple(related),
            outgoing=outgoing,
            incoming=incoming,
        )

    def entity_or_none(self, entity_id: str) -> Entity | None:
        """Like :meth:`entity` but returning ``None`` for unknown identifiers."""
        if entity_id not in self._entities:
            return None
        return self.entity(entity_id)

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """One-line description used by logging and the examples."""
        return (
            f"KnowledgeGraph({self.name!r}: {len(self)} triples, "
            f"{len(self._entities)} entities, {len(self._type_members)} types, "
            f"{len(self._pos)} edge predicates)"
        )

    def copy(self, name: str | None = None) -> "KnowledgeGraph":
        """Return an independent copy of the graph."""
        clone = KnowledgeGraph(name or self.name, namespaces=self.namespaces)
        clone.add_all(self._triples)
        return clone

    def merge(self, other: "KnowledgeGraph") -> int:
        """Merge another graph into this one; return number of new triples."""
        return self.add_all(other.triples)


class _AdoptedGraph(KnowledgeGraph):
    """An adopted graph nobody has asked a dictionary container of yet.

    The entity accessors below answer from the log's grouped rows
    (:meth:`~repro.kg.columns.EdgeColumnLog.entity_rows`).  The
    containers are simply not set, so the first read of one lands in
    ``__getattr__``, which builds them all and turns the instance into a
    plain :class:`KnowledgeGraph`, whose accessors read them.  Only this
    class defines ``__getattr__`` — a class that does makes *every*
    attribute read of its instances slower — so built and hydrated graphs
    pay nothing for the laziness, and an unhydrated one pays a slower
    lookup, not a missing feature.  Nothing writes to an unhydrated
    graph: a write reads the triple set first.
    """

    def __getattr__(self, name: str):
        if name not in _CONTAINERS or "_columns" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._hydrate(sys._getframe(1).f_code.co_name)
        return self.__dict__[name]

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self._columns.entity_rows().entities

    has_entity = __contains__

    def require_entity(self, entity_id: str) -> None:
        if entity_id not in self._columns.entity_rows().entities:
            raise EntityNotFoundError(entity_id)

    def entities(self) -> set[str]:
        return set(self._columns.entity_rows().entities.ids)

    def num_entities(self) -> int:
        return len(self._columns.entity_rows().entities)

    def labels_of(self, entity_id: str) -> list[str]:
        return self._columns.entity_rows().labels_of(entity_id)

    def label(self, entity_id: str) -> str:
        labels = self._columns.entity_rows().labels_of(entity_id)
        return labels[0] if labels else label_from_identifier(entity_id)

    def types_of(self, entity_id: str) -> set[str]:
        return set(self._columns.entity_rows().types_of(entity_id))

    def dominant_type(self, entity_id: str) -> str:
        return self._columns.entity_rows().dominant_type(entity_id)

    def entities_of_type(self, type_id: str) -> set[str]:
        return set(self._columns.entity_rows().members_of(type_id))

    def types(self) -> set[str]:
        return set(self._columns.entity_rows().types.ids)

    def type_count(self, type_id: str) -> int:
        return self._columns.entity_rows().population(type_id)

    def type_tables(self) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
        rows = self._columns.entity_rows()
        members = {type_id: set(rows.members_of(type_id)) for type_id in rows.types.ids}
        entity_types: dict[str, set[str]] = {}
        for type_id, entity_ids in members.items():
            for entity_id in entity_ids:
                entity_types.setdefault(entity_id, set()).add(type_id)
        return entity_types, members

    def _hydrate(self, caller: str) -> None:
        """Build the dictionary containers from the column log, once.

        The log's rows are decoded into triples and replayed into a fresh
        graph through ``_add_triple_locked``; its containers are then
        installed here one assignment each, so lock-free readers never
        see one half-built.  The replay allocates only long-lived acyclic
        containers: the cyclic collector is paused for it.
        """
        with self._lock:
            if self.hydrated:  # another caller got here first
                return
            started = perf_counter()
            replayed = KnowledgeGraph(self.name, self.namespaces)
            with gc_paused():
                replayed.add_all(self._columns.triples())
            if replayed._epoch != self._epoch:
                raise RuntimeError(
                    f"column log replayed to epoch {replayed._epoch}, adopted at {self._epoch}"
                )
            self._columns.bind(replayed._triples)
            for name in _CONTAINERS:
                self.__dict__[name] = replayed.__dict__[name]
            self.hydration_ms = (perf_counter() - started) * 1000.0
            self.__class__ = KnowledgeGraph
        _LOG.info(
            "graph %r: %d triples hydrated in %.1f ms, first needed by %s",
            self.name, self._epoch, self.hydration_ms, caller,
        )

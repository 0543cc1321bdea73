"""The durable KG/document tier: whole-system save/load round-trips.

The disk store (:mod:`repro.storage.diskstore`) persists segments; this
module decides which ones make a system and orchestrates
``PivotE.save(dir)`` / ``PivotE.load(dir)`` into a lossless round-trip::

    <dir>/store/                the DiskSnapshotStore (see diskstore.py)
        MANIFEST.json           one pointer entry per segment
        graph-triples/<epoch>.snap
        search-index/<epoch>.snap
        feature-tables/<epoch>.snap

``graph-triples`` is the graph itself — its column log
(:mod:`repro.kg.columns`) at full fidelity, literal datatype/language
tags included, every row stamped with its position in the triple log —
and its manifest entry carries what used to be a system manifest: the
format number, the graph's name, epoch and triple count.  The other
two are derived from it and record the graph epoch they were derived
from.  Which segment holds which table:

==================  ================================================
``graph-triples``   the **one dictionary**: the entity, edge-predicate
                    and type tables, each ascending with a ``rank``
                    (first-seen code → position); the literal table;
                    the three stamped row logs
``search-index``    per field: its terms, posting CSR and lengths;
                    the document ids as a reference to the entity
                    table when they are the graph's entities
``feature-tables``  feature codes and holder CSR — the graph's edge
                    CSR, its topology — dominant types, type
                    populations and membership CSR; its entity,
                    predicate and type tables as references
==================  ================================================

A reference is ``{"count", "crc"}``: the referenced table's length and
CRC-32 (:class:`~repro.storage.codec.Dictionary`), which the load checks
before it hands the derived structure the very list the graph adopted.

Cold start *adopts instead of replaying*, and decodes arrays, not
objects: each identifier is decoded once, and the JSON manifests hold a
fixed number of descriptors whatever the corpus.

* The graph takes the decoded columns as they are
  (:meth:`KnowledgeGraph.adopt`): its sorted tables and ranks *are* the
  adopted epoch's numbering, so one :class:`~repro.utils.ordinals.OrdinalMap`
  — the sorted entity list over the log's code dictionary — serves the
  graph, the index's documents, the feature tables and the topology.  It
  groups the rows by subject, object and type as it adopts them and
  answers every accessor from those groups; it builds no triple object
  unless a caller iterates the triples.
* The fielded index serves its stored per-field posting CSRs as its
  base: a search finds a term's row by bisecting the sorted term table
  and reads its counts, ordinals and frequencies and the length column
  off the arrays.
* The feature index adopts a snapshot over the stored tables, which
  decodes a row into a frozenset when a lookup asks for it; the feature
  codes address features as sort-built tables do.  Their holder CSR is
  the graph's topology of the loaded epoch (:func:`restore_graph_topology`),
  which keeps the adopted log's epoch columns, so the first write after
  a load derives the next epoch's CSR from it as a build's would.

Every component is checksummed and cross-checked against the graph's
epoch, and its arrays against each other (ranges and orderings); a
failed derived component raises :class:`SnapshotUnavailable` and the
caller falls back to rebuilding *that component* from the loaded graph
— a missing or corrupt ``graph-triples`` segment fails the whole load
(there is nothing to rebuild from).  Directories saved in earlier
layouts still load, converted once inside the decoder: identifier
tables listed in a segment (or, earlier still, in its JSON manifest,
the feature keys as ``[anchor, predicate, direction]`` triples), a
CRC-32 per document id, feature type tables over the dominant types
only, and graph tables in first-seen order, which are sorted once.  A
``graph-topology`` segment such a directory holds is not read.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from ..kg.columns import in_range
from ..utils.ordinals import strictly_ascending
from .codec import (
    INDEX_KIND,
    Dictionary,
    SegmentView,
    SnapshotUnavailable,
    encode_feature_tables,
    encode_graph_triples,
    encode_index_snapshot,
)
from .diskstore import DiskSnapshotStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..features.feature_index import FeatureIndexSnapshot, SemanticFeatureIndex
    from ..index.fielded_index import FieldedIndex
    from ..index.inverted_index import DocumentColumns, PostingColumns
    from ..kg import KnowledgeGraph
    from ..kg.columns import EpochColumns
    from ..kg.topology import GraphTopology

#: Stable role keys inside the snapshot store.  Index uids are
#: process-local counters and mean nothing across restarts, so durable
#: segments are addressed by role; the uid/epoch embedded in each
#: segment still pins which build produced it.
GRAPH_TRIPLES_KEY = "graph-triples"
SEARCH_INDEX_KEY = "search-index"
FEATURE_TABLES_KEY = "feature-tables"

_STORE_DIR = "store"
#: Format 1 kept the graph as ``graph.jsonl`` beside a ``pivote.json``
#: system manifest; format 2 keeps it as the ``graph-triples`` segment.
_SYSTEM_FORMAT = 2
_FORMAT_1_MANIFEST = "pivote.json"


# --------------------------------------------------------------------- #
# System save
# --------------------------------------------------------------------- #
def system_store(directory: str) -> DiskSnapshotStore:
    """The snapshot store rooted inside a system directory (``<dir>/store``)."""
    return DiskSnapshotStore(os.path.join(directory, _STORE_DIR))


def save_system(
    directory: str,
    graph: "KnowledgeGraph",
    index: "FieldedIndex",
    feature_index: "SemanticFeatureIndex",
    *,
    store: DiskSnapshotStore | None = None,
) -> dict[str, object]:
    """Persist one whole system (graph + both derived tiers) under ``directory``.

    The graph goes out as its column log: a loaded graph republishes the
    columns it adopted, plus the rows written since.  Each derived entry records the graph epoch it was
    derived from; loads cross-check it so segments from different saves
    never silently combine.  Returns a summary of what was written.
    Callers interested in publish counters pass their own ``store``
    (see :func:`system_store`) and read them back off it.
    """
    from ..features.columnar import columnar_tables

    os.makedirs(directory, exist_ok=True)
    if store is None:
        store = system_store(directory)

    with graph.lock:
        graph_epoch = graph.epoch
        graph_info = {"name": graph.name, "epoch": graph_epoch, "triples": len(graph)}
        # Durable segments are addressed by role, so the uid slot of the
        # graph segment is unused (0).
        columns = graph.columns.export()
        manifest, builder = encode_graph_triples(SimpleNamespace(uid=0, epoch=graph_epoch), columns)
        store.publish(
            GRAPH_TRIPLES_KEY, manifest, builder,
            extra={"format": _SYSTEM_FORMAT, **graph_info},
        )
        dictionary = Dictionary({name: columns.tables[name][0] for name in columns.ranks})

        manifest, builder = encode_index_snapshot(index, dictionary)
        store.publish(
            SEARCH_INDEX_KEY, manifest, builder, extra={"graph_epoch": graph_epoch}
        )

        snapshot = feature_index.snapshot()
        tables = columnar_tables(snapshot)
        manifest, builder = encode_feature_tables(
            SimpleNamespace(uid=feature_index.uid, epoch=snapshot.epoch),
            tables,
            dictionary,
        )
        store.publish(
            FEATURE_TABLES_KEY, manifest, builder, extra={"graph_epoch": graph_epoch}
        )

    return {
        "format": _SYSTEM_FORMAT,
        "graph": graph_info,
        "keys": [GRAPH_TRIPLES_KEY, SEARCH_INDEX_KEY, FEATURE_TABLES_KEY],
    }


# --------------------------------------------------------------------- #
# System load
# --------------------------------------------------------------------- #
def load_graph(
    store: DiskSnapshotStore, manifest: dict[str, dict[str, object]] | None = None
) -> "KnowledgeGraph":
    """Adopt the graph a :func:`save_system` store holds.

    Attaches the ``graph-triples`` segment (whole-file CRC), checks that
    its rows are the log the entry describes — stamps numbering exactly
    the recorded triples, codes inside their tables, epoch equal to the
    triple count — and hands the columns to
    :meth:`KnowledgeGraph.adopt`: no triple object is built here.
    Anything short of that raises :class:`SnapshotUnavailable` naming
    the segment.  ``manifest`` is the store manifest when the caller has
    already read it.
    """
    from ..kg import KnowledgeGraph

    if manifest is None:
        manifest = store.read_manifest()
    entry = manifest.get(GRAPH_TRIPLES_KEY)
    directory = os.path.dirname(store.root)
    if not isinstance(entry, dict):
        if os.path.exists(os.path.join(directory, _FORMAT_1_MANIFEST)):
            raise SnapshotUnavailable(
                f"system under {directory!r} is in format 1 (graph.jsonl); "
                f"this build reads format {_SYSTEM_FORMAT} — save it again"
            )
        raise SnapshotUnavailable(f"no loadable system under {directory!r}")
    if entry.get("format") != _SYSTEM_FORMAT:
        raise SnapshotUnavailable(
            f"system under {directory!r} is in format {entry.get('format')!r}, "
            f"this build reads format {_SYSTEM_FORMAT}"
        )
    try:
        view = store.attach(GRAPH_TRIPLES_KEY, manifest)
        try:
            columns = view.graph_columns()
        finally:
            view.close()
        columns.check()
        recorded = (entry.get("epoch"), entry.get("triples"))
        if recorded != (view.epoch, columns.triples) or view.epoch != columns.triples:
            raise ValueError(
                f"entry records epoch/triples {recorded}, the segment holds "
                f"epoch {view.epoch} and {columns.triples} rows"
            )
    except (SnapshotUnavailable, ValueError) as error:
        raise SnapshotUnavailable(f"{GRAPH_TRIPLES_KEY} segment unusable: {error}") from error
    return KnowledgeGraph.adopt(columns, name=str(entry.get("name", "kg")))


def _int_column(view: SegmentView, desc: object, what: str) -> np.ndarray:
    """A read-only int64 copy of one placed 1-D integer array.

    A copy, because the caller closes the backing memmap right after
    the restore.
    """
    stored = view.array(desc)  # type: ignore[arg-type]
    if stored.ndim != 1 or stored.dtype.kind not in "iu":
        raise SnapshotUnavailable(f"snapshot {what} is not a 1-D integer column")
    column = stored.astype(np.int64)
    column.flags.writeable = False
    return column


def _field_columns(
    view: SegmentView, field: str, documents: "DocumentColumns"
) -> "PostingColumns":
    """Decode one field's posting CSR and check it describes a real index.

    Each check guards an assumption something downstream relies on:
    offsets that start at 0, strictly increase (every stored term has a
    posting) and end at the column size; ordinals inside ``[0, n)`` and
    strictly increasing within a term (ordinal order is doc-id order);
    positive integer frequencies; terms strictly ascending (one row per term); and a length
    column equal to the per-document sum of the frequencies.
    """
    from ..index.inverted_index import PostingColumns

    num_documents = len(documents.doc_ids)
    try:
        csr = view.manifest["postings"][field]
        terms = view.strings(csr["terms"], field)
        offsets = _int_column(view, csr["offsets"], f"{field!r} offsets")
        ordinals = _int_column(view, csr["ordinals"], f"{field!r} ordinals")
        frequencies = _int_column(view, csr["frequencies"], f"{field!r} frequencies")
        lengths = _int_column(view, view.manifest["lengths"][field], f"{field!r} lengths")
    except (KeyError, TypeError) as error:
        raise SnapshotUnavailable(f"index snapshot lacks field {field!r}'s CSR") from error

    def malformed(why: str) -> SnapshotUnavailable:
        return SnapshotUnavailable(f"index snapshot field {field!r}: {why}")

    if offsets.shape != (len(terms) + 1,) or ordinals.shape != frequencies.shape:
        raise malformed("column shapes disagree")
    if offsets[0] != 0 or offsets[-1] != ordinals.size or (np.diff(offsets) <= 0).any():
        raise malformed("offsets are not monotone up to the column size")
    if ordinals.size and (ordinals.min() < 0 or ordinals.max() >= num_documents):
        raise malformed("an ordinal lies outside the documents")
    steps = np.diff(ordinals)
    steps[offsets[1:-1] - 1] = 1  # a row may start below where the last one ended
    if (steps <= 0).any():
        raise malformed("ordinals do not increase within a term")
    if (frequencies <= 0).any():
        raise malformed("a term frequency is not positive")
    placed = csr["terms"]["text"][0]  # a vocabulary fields share is checked once
    if not view.memoised(("ascending", placed), lambda: strictly_ascending(terms)):
        raise malformed("terms are not strictly ascending")
    if lengths.shape != (num_documents,) or not np.array_equal(
        lengths, np.bincount(ordinals, weights=frequencies, minlength=num_documents)
    ):
        raise malformed("the length column disagrees with the postings")
    return PostingColumns(documents, terms, offsets, ordinals, frequencies, lengths)


def restore_fielded_index(
    view: SegmentView, fields: tuple[str, ...], dictionary: Dictionary | None = None
) -> "FieldedIndex":
    """Adopt one index snapshot as a live :class:`FieldedIndex`.

    The stored per-field posting CSRs *are* the index's base: nothing
    is decoded here, and the first search reads its statistics,
    candidates and columns off the arrays.  The CSRs are checked first (see
    :func:`_field_columns`), and so are the document ids: the
    ``dictionary``'s entity table, with its map, when the segment
    references it (:meth:`Dictionary.resolve`); otherwise strictly
    ascending, since ordinal order must be doc-id order.  There must be
    as many as the segment says, and a segment saved with a CRC-32 per
    document (the ``crcs`` column) must match it.  Any violation, a
    configured field schema other than the stored one, or a segment in
    the old one-column-pair-per-term layout raises
    :class:`SnapshotUnavailable`, and the caller rebuilds.
    """
    from ..index.fielded_index import FieldedIndex
    from ..index.inverted_index import DocumentColumns

    if view.kind != INDEX_KIND:
        raise SnapshotUnavailable(
            f"index snapshot is of kind {view.kind!r}, this build reads {INDEX_KIND!r}"
        )
    manifest = view.manifest
    if manifest.get("fields") != list(fields):
        raise SnapshotUnavailable(
            f"snapshot indexes fields {manifest.get('fields')!r}, "
            f"configuration wants {list(fields)!r}"
        )
    dictionary = dictionary or Dictionary()
    doc_ids = dictionary.resolve(view, "doc_ids")
    if len(doc_ids) != manifest.get("num_documents"):
        raise SnapshotUnavailable(
            f"snapshot lists {len(doc_ids)} document ids for "
            f"{manifest.get('num_documents')!r} documents"
        )
    ordinal_of = dictionary.ordinals(doc_ids)
    if ordinal_of is None and not strictly_ascending(doc_ids):
        raise SnapshotUnavailable("snapshot document ids are not strictly ascending")
    if "crcs" in manifest:
        crcs = _int_column(view, manifest["crcs"], "crc column")
        hashed = np.fromiter(
            (zlib.crc32(doc_id.encode("utf-8")) for doc_id in doc_ids),
            dtype=np.int64,
            count=len(doc_ids),
        )
        if not np.array_equal(crcs, hashed):
            raise SnapshotUnavailable("snapshot crc column disagrees with the document ids")

    documents = DocumentColumns(doc_ids, ordinal_of)
    return FieldedIndex(
        fields, documents, {field: _field_columns(view, field, documents) for field in fields}
    )


def _check_csr(offsets: np.ndarray, rows: int, values: np.ndarray, bound: int) -> bool:
    """Whether ``offsets`` cut ``values`` into ``rows`` rows of values in ``[0, bound)``.

    The offsets must start at 0, never decrease and end at the size of
    ``values``.
    """
    return bool(
        offsets.shape == (rows + 1,)
        and values.ndim == 1
        and offsets[0] == 0
        and offsets[-1] == values.size
        and not (np.diff(offsets) < 0).any()
        and in_range(values, 0, bound)
    )


def _coded_features(keys: object, entity_ids: list[str]) -> tuple[np.ndarray, list[str]]:
    """``(feature codes, predicates)`` of the key triples older segments list.

    A ``feature-tables`` segment saved before the codes were placed
    lists every feature as a JSON ``[anchor, predicate, direction]``
    triple in ordinal order; this codes them once, as the tables would
    have (see :class:`~repro.features.columnar.ColumnarFeatureTables`).
    The predicates are the distinct ones the keys name, which are the
    epoch's edge predicates: every edge makes two features.
    """
    from ..features.columnar import DIRECTIONS
    from ..utils.ordinals import OrdinalMap

    malformed = SnapshotUnavailable("feature snapshot keys are malformed")
    if not isinstance(keys, list):
        raise SnapshotUnavailable("feature snapshot carries no feature codes")
    try:
        anchors, named, directions = zip(*keys) if keys else ((), (), ())
        predicates = sorted(set(named))
        predicate_of = {predicate: ordinal for ordinal, predicate in enumerate(predicates)}
        direction_of = {direction: code for code, direction in enumerate(DIRECTIONS)}
        if (
            any(len(key) != 3 for key in keys)
            or not set(directions) <= direction_of.keys()
            or not all(isinstance(predicate, str) for predicate in predicates)
        ):
            raise malformed
        anchor_ords = OrdinalMap(entity_ids).array(anchors, len(keys))
        pred_ords = np.fromiter(map(predicate_of.__getitem__, named), np.int64, len(keys))
        direction_codes = np.fromiter(map(direction_of.__getitem__, directions), np.int64, len(keys))
    except (TypeError, ValueError, KeyError) as error:
        raise malformed from error
    if (anchor_ords < 0).any():
        raise malformed
    return (anchor_ords * len(predicates) + pred_ords) * 2 + direction_codes, predicates


def _widened_types(columns: "EpochColumns", arrays: dict[str, np.ndarray]) -> list[str]:
    """Widen an older segment's type tables to every type of the epoch.

    A ``feature-tables`` segment saved before the tables named their
    types holds them over the dominant types only, by position.  The
    widened tables are the loaded epoch's own
    (:meth:`~repro.features.columnar.ColumnarFeatureTables.type_tables`);
    the stored ones must be them narrowed, or the segment is refused.
    ``arrays`` is updated in place; returns the type identifiers.
    """
    from ..features.columnar import ColumnarFeatureTables

    dominant, populations, member_offsets, member_type_ords = (
        ColumnarFeatureTables.type_tables(columns)
    )
    universe = np.unique(dominant[dominant >= 0])
    local = np.full(populations.size + 1, -1, dtype=np.int64)  # slot −1 (untyped) stays −1
    local[universe] = np.arange(universe.size, dtype=np.int64)
    if not (
        np.array_equal(arrays["type_populations"], populations[universe])
        and np.array_equal(arrays["dominant_ords"], local[dominant])
    ):
        raise SnapshotUnavailable("feature snapshot type tables disagree with the graph")
    arrays.update(
        dominant_ords=dominant,
        type_populations=populations,
        member_offsets=member_offsets,
        member_type_ords=member_type_ords,
    )
    return columns.type_ids


def _copied(view: SegmentView, names: tuple[str, ...]) -> dict[str, np.ndarray]:
    """The named manifest arrays, copied out of the view (its memmap is
    closed right after the restore)."""
    try:
        return {name: np.array(view.manifest_array(name)) for name in names}
    except KeyError as error:
        raise SnapshotUnavailable("feature snapshot lacks a table array") from error


def restore_graph_topology(
    graph: "KnowledgeGraph", view: SegmentView, dictionary: Dictionary | None = None
) -> "GraphTopology":
    """The edge CSR a ``feature-tables`` segment holds, as the graph's topology.

    The feature codes and predicates (coded once from the key triples of
    a segment of an older layout, :func:`_coded_features`) and the
    holder CSR are the loaded epoch's :class:`~repro.kg.topology.GraphTopology`.
    The identifier tables are the ``dictionary``'s (:meth:`Dictionary.resolve`)
    and must be the adopted log's epoch tables, whose columns the
    topology keeps, so a write derives the next epoch's CSR from it.

    The segment must be of the graph's epoch, its codes strictly
    ascending with anchors inside the entities and a predicate table to
    index, and the holder CSR must cut its column into one row per
    feature with holders inside the entities.  A violation raises
    :class:`SnapshotUnavailable`.
    """
    from ..kg.topology import GraphTopology

    if view.epoch != graph.epoch:
        raise SnapshotUnavailable(
            f"feature snapshot is for graph epoch {view.epoch}, "
            f"loaded graph is at {graph.epoch}"
        )
    dictionary = dictionary or Dictionary()
    entity_ids = dictionary.resolve(view, "entity_ids")
    if "feature_codes" in view.manifest:
        predicates = dictionary.resolve(view, "predicates")
        codes = _int_column(view, view.manifest["feature_codes"], "feature codes")
    else:
        codes, predicates = _coded_features(view.manifest.get("features"), entity_ids)
    arrays = _copied(view, ("holder_offsets", "holder_ordinals"))
    num_entities = len(entity_ids)
    if not in_range(codes, 0, num_entities * 2 * len(predicates)) or (np.diff(codes) <= 0).any():
        raise SnapshotUnavailable("feature snapshot codes are malformed")
    if not strictly_ascending(predicates):
        raise SnapshotUnavailable("feature snapshot predicates are not strictly ascending")
    if not _check_csr(
        arrays["holder_offsets"], codes.size, arrays["holder_ordinals"], num_entities
    ):
        raise SnapshotUnavailable("feature snapshot holder CSR is malformed")
    columns = graph.columns.epoch(len(graph))
    for ids, ours in ((entity_ids, columns.entity_ids), (predicates, columns.predicates)):
        if ids is not ours and ids != ours:
            raise SnapshotUnavailable("feature snapshot identifiers are not the graph's")
    return GraphTopology(
        view.epoch, columns.entity_ids, columns.predicates, codes, **arrays,
        ordinal_of=columns.ordinal_of, columns=columns,
    )


def restore_feature_snapshot(
    graph: "KnowledgeGraph", view: SegmentView, dictionary: Dictionary | None = None
) -> "FeatureIndexSnapshot":
    """Adopt one feature-tables snapshot as a pinned feature snapshot.

    The decoded tables (arrays copied out, because the caller closes the
    backing memmap) *are* the snapshot, as the sorted ones are a built
    index's: it answers from them, turning a holder or feature row into
    its frozenset when asked for it
    (:class:`~repro.features.feature_index.FeatureIndexSnapshot`), so
    the first recommendation after a cold start rebuilds nothing.  The
    holder CSR is the graph's topology (:func:`restore_graph_topology`);
    the type identifiers are the ``dictionary``'s, or in a segment of an
    older layout the type tables are widened to every type
    (:func:`_widened_types`).

    The type arrays are checked against what the tables assume: the
    membership CSR cutting its column into one row per entity with type
    ordinals inside the types; dominant types inside them too (or
    ``-1``, untyped); every type populated.  A violation raises
    :class:`SnapshotUnavailable`, and the caller rebuilds the tables
    from the graph.
    """
    from ..features.columnar import ColumnarFeatureTables
    from ..features.feature_index import FeatureIndexSnapshot

    topology = restore_graph_topology(graph, view, dictionary)
    arrays = _copied(
        view, ("dominant_ords", "type_populations", "member_offsets", "member_type_ords")
    )
    if "type_ids" in view.manifest:
        type_ids = (dictionary or Dictionary()).resolve(view, "type_ids")
    else:
        assert topology._columns is not None
        type_ids = _widened_types(topology._columns, arrays)
    num_entities, num_types = topology.num_entities, len(type_ids)
    if not _check_csr(
        arrays["member_offsets"], num_entities, arrays["member_type_ords"], num_types
    ):
        raise SnapshotUnavailable("feature snapshot membership CSR is malformed")
    dominant = arrays["dominant_ords"]
    if dominant.shape != (num_entities,) or not in_range(dominant, -1, num_types):
        raise SnapshotUnavailable("feature snapshot dominant types are malformed")
    populations = arrays["type_populations"]
    if populations.shape != (num_types,) or not in_range(populations, 1, num_entities + 1):
        raise SnapshotUnavailable("feature snapshot type populations are malformed")
    tables = ColumnarFeatureTables(topology, **arrays, type_ids=type_ids)
    return FeatureIndexSnapshot(graph, tables, epoch=view.epoch, triples=len(graph))


@dataclass
class LoadedSystem:
    """What :func:`load_system` recovered from disk.

    ``index`` / ``feature_snapshot`` are ``None`` when that component's
    snapshot was missing or corrupt — the graph always loads (or the
    whole call raises), so callers rebuild just the missing piece.
    """

    graph: "KnowledgeGraph"
    index: "FieldedIndex | None"
    feature_snapshot: "FeatureIndexSnapshot | None"
    store: DiskSnapshotStore


def load_system(
    directory: str,
    *,
    fields: tuple[str, ...],
) -> LoadedSystem:
    """Load a saved system, attaching snapshots instead of rebuilding.

    The graph is mandatory: a missing or corrupt ``graph-triples``
    segment raises :class:`SnapshotUnavailable` (callers fall back to
    whatever built the graph originally).  The derived tiers are
    best-effort — each is CRC-verified and cross-checked against the
    loaded graph's epoch, and arrives as ``None`` on any failure so the
    caller rebuilds it from the (sound) graph.  The store manifest is
    read once.
    """
    store = system_store(directory)
    manifest = store.read_manifest()
    graph = load_graph(store, manifest)
    maps = graph.columns.adopted_maps()
    dictionary = Dictionary({name: ids.ids for name, ids in maps.items()}, maps["entities"])

    def restored(key: str, restore):
        """Attach one role, graph-epoch-check it, restore from it.

        ``None`` on any problem, which bumps ``store.failures`` exactly
        once: ``store.attach`` counts its own failures, the entry and
        graph-epoch checks and the restore count theirs here.
        """
        try:
            entry = store.entry(key, manifest)
            if int(entry.get("graph_epoch", -1)) != graph.epoch:  # type: ignore[arg-type]
                raise SnapshotUnavailable(f"snapshot {key!r} is from another graph epoch")
        except SnapshotUnavailable:
            store.failures += 1
            return None
        try:
            view = store.attach(key, manifest)
        except SnapshotUnavailable:
            return None
        try:
            return restore(view)
        except SnapshotUnavailable:
            store.failures += 1
            return None
        finally:
            view.close()

    return LoadedSystem(
        graph=graph,
        index=restored(
            SEARCH_INDEX_KEY, lambda view: restore_fielded_index(view, fields, dictionary)
        ),
        feature_snapshot=restored(
            FEATURE_TABLES_KEY, lambda view: restore_feature_snapshot(graph, view, dictionary)
        ),
        store=store,
    )


__all__ = [
    "FEATURE_TABLES_KEY",
    "GRAPH_TRIPLES_KEY",
    "SEARCH_INDEX_KEY",
    "LoadedSystem",
    "load_graph",
    "load_system",
    "restore_feature_snapshot",
    "restore_fielded_index",
    "restore_graph_topology",
    "save_system",
    "system_store",
]

"""The durable KG/document tier: whole-system save/load round-trips.

The disk store (:mod:`repro.storage.diskstore`) persists segments; this
module decides which ones make a system and orchestrates
``PivotE.save(dir)`` / ``PivotE.load(dir)`` into a lossless round-trip::

    <dir>/store/                the DiskSnapshotStore (see diskstore.py)
        MANIFEST.json           one pointer entry per segment
        graph-triples/<epoch>.snap
        search-index/<epoch>.snap
        feature-tables/<epoch>.snap
        graph-topology/<epoch>.snap

``graph-triples`` is the graph itself — its column log
(:mod:`repro.kg.columns`) at full fidelity, literal datatype/language
tags included, every row stamped with its position in the triple log —
and its manifest entry carries what used to be a system manifest: the
format number, the graph's name, epoch and triple count.  The other
three are derived from it and record the graph epoch they were derived
from.

Cold start *adopts instead of replaying*: the graph takes the decoded
columns as they are and builds no triple objects until a caller asks for
one (:meth:`KnowledgeGraph.adopt`), the fielded index serves its stored
per-field posting CSRs and decodes a term's posting list when a query
first touches the term (:meth:`FieldedIndex.adopt`), the feature index
adopts a snapshot that decodes rows of the stored tables on demand, the
topology its arrays.  Every component is
checksummed and cross-checked against the graph's epoch; a failed
derived component raises :class:`SnapshotUnavailable` and the caller
falls back to rebuilding *that component* from the loaded graph — a
missing or corrupt ``graph-triples`` segment fails the whole load (there
is nothing to rebuild from).
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
from operator import itemgetter
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from .codec import (
    INDEX_KIND,
    SegmentView,
    SnapshotUnavailable,
    encode_feature_tables,
    encode_graph_topology,
    encode_graph_triples,
    encode_index_snapshot,
)
from .diskstore import DiskSnapshotStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..features.feature_index import FeatureIndexSnapshot, SemanticFeatureIndex
    from ..index.fielded_index import FieldedIndex
    from ..index.inverted_index import DocumentColumns, PostingColumns
    from ..kg import KnowledgeGraph
    from ..kg.topology import GraphTopology

#: Stable role keys inside the snapshot store.  Index uids are
#: process-local counters and mean nothing across restarts, so durable
#: segments are addressed by role; the uid/epoch embedded in each
#: segment still pins which build produced it.
GRAPH_TRIPLES_KEY = "graph-triples"
SEARCH_INDEX_KEY = "search-index"
FEATURE_TABLES_KEY = "feature-tables"
GRAPH_TOPOLOGY_KEY = "graph-topology"

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

    The graph goes out as its column log — whatever form the graph is in:
    a loaded graph that nobody asked a triple of republishes the columns
    it adopted.  Each derived entry records the graph epoch it was
    derived from; loads cross-check it so segments from different saves
    never silently combine.  Returns a summary of what was written.
    Callers interested in publish counters pass their own ``store``
    (see :func:`system_store`) and read them back off it.
    """
    from ..features.columnar import columnar_tables
    from ..index.columnar import columnar_view
    from ..kg.topology import graph_topology

    os.makedirs(directory, exist_ok=True)
    if store is None:
        store = system_store(directory)

    with graph.lock:
        graph_epoch = graph.epoch
        graph_info = {"name": graph.name, "epoch": graph_epoch, "triples": len(graph)}
        # Durable segments are addressed by role, so the uid slot of the
        # two graph-side segments is unused (0).
        source = SimpleNamespace(uid=0, epoch=graph_epoch)
        manifest, builder = encode_graph_triples(source, graph.columns.export())
        store.publish(
            GRAPH_TRIPLES_KEY, manifest, builder,
            extra={"format": _SYSTEM_FORMAT, **graph_info},
        )

        view = columnar_view(index)
        manifest, builder = encode_index_snapshot(index, view)
        store.publish(
            SEARCH_INDEX_KEY, manifest, builder, extra={"graph_epoch": graph_epoch}
        )

        snapshot = feature_index.snapshot()
        tables = columnar_tables(snapshot)
        manifest, builder = encode_feature_tables(
            SimpleNamespace(uid=feature_index.uid, epoch=snapshot.epoch),
            tables,
        )
        store.publish(
            FEATURE_TABLES_KEY, manifest, builder, extra={"graph_epoch": graph_epoch}
        )

        # The columnar topology is installed straight into a loaded
        # graph's memo instead of being sorted out of the log again.
        manifest, builder = encode_graph_topology(source, graph_topology(graph))
        store.publish(
            GRAPH_TOPOLOGY_KEY, manifest, builder, extra={"graph_epoch": graph_epoch}
        )

    return {
        "format": _SYSTEM_FORMAT,
        "graph": graph_info,
        "keys": [GRAPH_TRIPLES_KEY, SEARCH_INDEX_KEY, FEATURE_TABLES_KEY, GRAPH_TOPOLOGY_KEY],
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
        raise SnapshotUnavailable(f"index snapshot {what} is not a 1-D integer column")
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
    positive integer frequencies (``PostingList.add`` refuses anything
    else); terms strictly ascending (one row per term); and a length
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
    if any(left >= right for left, right in zip(terms, terms[1:])):
        raise malformed("terms are not strictly ascending")
    if lengths.shape != (num_documents,) or not np.array_equal(
        lengths, np.bincount(ordinals, weights=frequencies, minlength=num_documents)
    ):
        raise malformed("the length column disagrees with the postings")
    return PostingColumns(documents, terms, offsets, ordinals, frequencies, lengths)


def restore_fielded_index(view: SegmentView, fields: tuple[str, ...]) -> "FieldedIndex":
    """Adopt one index snapshot as a live :class:`FieldedIndex`.

    The stored per-field posting CSRs *are* the index
    (:meth:`FieldedIndex.adopt`): nothing is decoded into posting lists
    here, and the first search reads its statistics, candidates and
    columns off the arrays.  The CSRs are checked first (see
    :func:`_field_columns`), and so are the document ids — strictly
    ascending, since ordinal order must be doc-id order, as many as the
    segment says, and each with its own CRC-32 in the ``crcs`` column.
    Any violation, a
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
    table = manifest.get("doc_ids")
    if not isinstance(table, dict):
        raise SnapshotUnavailable("snapshot carries no document identifiers")
    doc_ids = view.strings(table, "doc_ids")
    if len(doc_ids) != manifest.get("num_documents"):
        raise SnapshotUnavailable(
            f"snapshot lists {len(doc_ids)} document ids for "
            f"{manifest.get('num_documents')!r} documents"
        )
    if any(left >= right for left, right in zip(doc_ids, doc_ids[1:])):
        raise SnapshotUnavailable("snapshot document ids are not strictly ascending")
    crcs = _int_column(view, manifest.get("crcs"), "crc column")
    hashed = np.fromiter(
        (zlib.crc32(doc_id.encode("utf-8")) for doc_id in doc_ids),
        dtype=np.int64,
        count=len(doc_ids),
    )
    if not np.array_equal(crcs, hashed):
        raise SnapshotUnavailable("snapshot crc column disagrees with the document ids")

    documents = DocumentColumns(doc_ids)
    columns = {field: _field_columns(view, field, documents) for field in fields}
    index = FieldedIndex(fields)
    index.adopt(documents, columns)
    return index


def restore_feature_snapshot(
    graph: "KnowledgeGraph", view: SegmentView
) -> "FeatureIndexSnapshot":
    """Adopt one feature-tables snapshot as a pinned feature snapshot.

    The decoded tables (arrays copied out, because the caller closes the
    backing memmap) *are* the snapshot: it answers from them, turning a
    holder or feature row into its frozenset when first asked for it
    (:class:`~repro.features.feature_index.RestoredFeatureSnapshot`),
    and they are its columnar memo, so the first recommendation after a
    cold start rebuilds nothing.  Nothing here walks the features.
    """
    from ..features.columnar import DIRECTIONS, ColumnarFeatureTables
    from ..features.feature_index import RestoredFeatureSnapshot

    if view.epoch != graph.epoch:
        raise SnapshotUnavailable(
            f"feature snapshot is for graph epoch {view.epoch}, "
            f"loaded graph is at {graph.epoch}"
        )
    entity_ids = view.manifest.get("entity_ids")
    if not isinstance(entity_ids, list):
        raise SnapshotUnavailable("feature snapshot carries no entity identifiers")
    keys = view.manifest.get("features")
    if not isinstance(keys, list):
        raise SnapshotUnavailable("feature snapshot carries no feature keys")
    try:
        well_formed = set(map(len, keys)) <= {3} and set(map(itemgetter(2), keys)) <= set(DIRECTIONS)
    except (TypeError, LookupError):
        well_formed = False
    if not well_formed:
        raise SnapshotUnavailable("feature snapshot keys are malformed")

    try:
        tables = ColumnarFeatureTables.from_arrays(
            epoch=view.epoch,
            feature_keys=keys,
            entity_ids=entity_ids,
            **{
                name: np.array(view.manifest_array(name))
                for name in (
                    "holder_offsets", "holder_ordinals", "dominant_ords",
                    "type_populations", "member_offsets", "member_type_ords",
                )
            },
        )
    except KeyError as error:
        raise SnapshotUnavailable("feature snapshot lacks a table array") from error
    holders = tables.holder_ordinals
    if (
        tables.holder_offsets.shape != (len(keys) + 1,)
        or tables.dominant_ords.shape != (len(entity_ids),)
        or tables.member_offsets.shape != (len(entity_ids) + 1,)
        or int(tables.holder_offsets[-1]) != holders.size
        or (np.diff(tables.holder_offsets) < 0).any()
        or (holders.size and (holders.min() < 0 or holders.max() >= len(entity_ids)))
    ):
        raise SnapshotUnavailable("feature snapshot CSR is malformed")
    return RestoredFeatureSnapshot(graph, tables, epoch=view.epoch, triples=len(graph))


def restore_graph_topology(graph: "KnowledgeGraph", view: SegmentView) -> "GraphTopology":
    """Rebuild a :class:`~repro.kg.topology.GraphTopology` from one segment.

    Every array is *copied* out of the (CRC-verified) view: the caller closes the backing memmap
    right after the restore, and the topology outlives it as the graph's
    per-epoch memo.  The epoch cross-check mirrors
    :func:`restore_feature_snapshot` — a topology from another graph
    state must not be installed.
    """
    from ..kg.topology import GraphTopology

    if view.epoch != graph.epoch:
        raise SnapshotUnavailable(
            f"topology snapshot is for graph epoch {view.epoch}, "
            f"loaded graph is at {graph.epoch}"
        )
    manifest = view.manifest
    strings: dict[str, list[str]] = {}
    for key in ("entity_ids", "predicates", "type_ids"):
        values = manifest.get(key)
        if not isinstance(values, list):
            raise SnapshotUnavailable(f"topology snapshot carries no {key}")
        strings[key] = [str(value) for value in values]

    def copied(key: str) -> np.ndarray:
        try:
            return np.array(view.manifest_array(key))
        except KeyError as error:
            raise SnapshotUnavailable(
                f"topology snapshot lacks the {key!r} array"
            ) from error

    topology = GraphTopology.from_arrays(
        epoch=view.epoch,
        entity_ids=strings["entity_ids"],
        predicates=strings["predicates"],
        type_ids=strings["type_ids"],
        out_offsets=copied("out_offsets"),
        out_targets=copied("out_targets"),
        out_preds=copied("out_preds"),
        in_offsets=copied("in_offsets"),
        in_sources=copied("in_sources"),
        in_preds=copied("in_preds"),
        type_offsets=copied("type_offsets"),
        type_members=copied("type_members"),
        type_parents=copied("type_parents"),
        type_pre=copied("type_pre"),
        type_post=copied("type_post"),
        pre_order=copied("pre_order"),
        subtree_sizes=copied("subtree_sizes"),
    )
    if (
        topology.out_offsets.shape != (topology.num_entities + 1,)
        or topology.in_offsets.shape != (topology.num_entities + 1,)
        or topology.type_offsets.shape != (len(topology.type_ids) + 1,)
    ):
        raise SnapshotUnavailable("topology snapshot CSR offsets are malformed")
    return topology


@dataclass
class LoadedSystem:
    """What :func:`load_system` recovered from disk.

    ``index`` / ``feature_snapshot`` / ``topology`` are ``None`` when
    that component's snapshot was missing or corrupt — the graph always
    loads (or the whole call raises), so callers rebuild just the
    missing piece (the topology lazily, on first traversal).
    """

    graph: "KnowledgeGraph"
    index: "FieldedIndex | None"
    feature_snapshot: "FeatureIndexSnapshot | None"
    topology: "GraphTopology | None"
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
        index=restored(SEARCH_INDEX_KEY, lambda view: restore_fielded_index(view, fields)),
        feature_snapshot=restored(
            FEATURE_TABLES_KEY, lambda view: restore_feature_snapshot(graph, view)
        ),
        topology=restored(
            GRAPH_TOPOLOGY_KEY, lambda view: restore_graph_topology(graph, view)
        ),
        store=store,
    )


__all__ = [
    "FEATURE_TABLES_KEY",
    "GRAPH_TOPOLOGY_KEY",
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

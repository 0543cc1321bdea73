"""The durable KG/document tier: whole-system save/load round-trips.

The disk store (:mod:`repro.storage.diskstore`) persists the *derived*
array state — the columnar postings and feature tables.  This module
adds the substrate those arrays were derived from (the knowledge graph's
triple log, at full fidelity including literal datatype/language tags)
and the orchestration that makes ``PivotE.save(dir)`` /
``PivotE.load(dir)`` a lossless round-trip::

    <dir>/
        pivote.json             system manifest (graph epoch, role keys)
        graph.jsonl             one triple per line, replay-ordered
        store/                  the DiskSnapshotStore (see diskstore.py)
            MANIFEST.json
            search-index/<epoch>.snap
            feature-tables/<epoch>.snap
            graph-topology/<epoch>.snap

Cold start then *attaches instead of rebuilding*: the graph replays its
append-only triple log (epoch invariant: one bump per unique triple, so
the restored graph lands on exactly the saved epoch), the fielded index
replays stored per-document term counts straight into posting lists
(:meth:`FieldedIndex.add_document_counts` — no document building, no
tokenisation), and the feature index adopts a snapshot inverted from the
stored holder CSR (no per-entity feature extraction).  Every component
cross-checks the graph epoch recorded at publish time; a failed or
corrupt component raises :class:`SnapshotUnavailable` and the caller
falls back to rebuilding *that component* from the loaded graph — a
corrupt graph file fails the whole load (there is nothing to rebuild
from).
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from .codec import (
    SegmentView,
    SnapshotUnavailable,
    encode_feature_tables,
    encode_graph_topology,
    encode_index_snapshot,
)
from .diskstore import DiskSnapshotStore, _atomic_write_bytes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..features.feature_index import FeatureIndexSnapshot, SemanticFeatureIndex
    from ..index.fielded_index import FieldedIndex
    from ..kg import KnowledgeGraph
    from ..kg.topology import GraphTopology

#: Stable role keys inside the snapshot store.  Index uids are
#: process-local counters and mean nothing across restarts, so durable
#: segments are addressed by role; the uid/epoch embedded in each
#: segment still pins which build produced it.
SEARCH_INDEX_KEY = "search-index"
FEATURE_TABLES_KEY = "feature-tables"
GRAPH_TOPOLOGY_KEY = "graph-topology"

_SYSTEM_MANIFEST = "pivote.json"
_GRAPH_FILE = "graph.jsonl"
_STORE_DIR = "store"
_SYSTEM_FORMAT = 1


# --------------------------------------------------------------------- #
# Graph serialisation (full fidelity, replay-ordered)
# --------------------------------------------------------------------- #
def _triple_to_record(triple) -> dict[str, object]:
    record: dict[str, object] = {"s": triple.subject, "p": triple.predicate}
    if triple.is_literal:
        literal = triple.object
        record["v"] = literal.value
        if literal.datatype != "string":
            record["d"] = literal.datatype
        if literal.language:
            record["l"] = literal.language
    else:
        record["o"] = triple.object
    return record


def _record_to_triple(record: dict[str, object]):
    from ..kg import Literal, Triple

    subject = record["s"]
    predicate = record["p"]
    if "o" in record:
        return Triple(subject, predicate, record["o"])  # type: ignore[arg-type]
    return Triple(
        subject,  # type: ignore[arg-type]
        predicate,  # type: ignore[arg-type]
        Literal(
            value=record["v"],  # type: ignore[arg-type]
            datatype=str(record.get("d", "string")),
            language=str(record.get("l", "")),
        ),
    )


def save_graph(path: str, graph: "KnowledgeGraph") -> None:
    """Write the graph's triple log as JSONL (atomic temp-then-rename).

    Unlike the interchange formats in :mod:`repro.kg.io` this is
    lossless: literal datatype and language tags survive, and the
    replay order is the mutation order, so loading reproduces the exact
    epoch sequence.
    """
    with graph.lock:
        lines = [
            json.dumps(_triple_to_record(triple), separators=(",", ":"))
            for triple in graph.triples
        ]
    payload = ("\n".join(lines) + "\n") if lines else ""
    _atomic_write_bytes(path, payload.encode("utf-8"))


def load_graph(path: str, name: str = "kg") -> "KnowledgeGraph":
    """Replay a :func:`save_graph` file into a fresh graph."""
    from ..kg import KnowledgeGraph

    graph = KnowledgeGraph(name=name)
    try:
        with open(path, encoding="utf-8") as handle:
            lines = [line.strip() for line in handle.read().splitlines()]
    except OSError as error:
        raise SnapshotUnavailable(f"graph file {path!r} is unreadable") from error
    try:
        # One batched decode of the whole log — much faster than a
        # json.loads per line on cold start; the per-line loop below
        # only runs to attribute a line number to a malformed record.
        records = json.loads("[%s]" % ",".join(line for line in lines if line))
        triples = [_record_to_triple(record) for record in records]
    except Exception as batch_error:
        for number, line in enumerate(lines, start=1):
            if not line:
                continue
            try:
                _record_to_triple(json.loads(line))
            except Exception as error:
                raise SnapshotUnavailable(
                    f"graph file {path!r} line {number} is malformed"
                ) from error
        raise SnapshotUnavailable(f"graph file {path!r} is malformed") from batch_error
    graph.add_all(triples)
    return graph


# --------------------------------------------------------------------- #
# System save
# --------------------------------------------------------------------- #
def system_store(directory: str) -> DiskSnapshotStore:
    """The snapshot store rooted inside a system directory (``<dir>/store``)."""
    return DiskSnapshotStore(os.path.join(directory, _STORE_DIR))


def graph_path(directory: str) -> str:
    """The triple-log file inside a system directory (``<dir>/graph.jsonl``)."""
    return os.path.join(directory, _GRAPH_FILE)


def save_system(
    directory: str,
    graph: "KnowledgeGraph",
    index: "FieldedIndex",
    feature_index: "SemanticFeatureIndex",
    *,
    store: DiskSnapshotStore | None = None,
) -> dict[str, object]:
    """Persist one whole system (graph + both derived tiers) under ``directory``.

    Each snapshot entry records the graph epoch it was derived from;
    loads cross-check it so a graph file and a snapshot from different
    saves never silently combine.  Returns the written system manifest.
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
        num_triples = len(graph)
        save_graph(os.path.join(directory, _GRAPH_FILE), graph)

        view = columnar_view(index)
        manifest, builder = encode_index_snapshot(index, view, include_doc_ids=True)
        store.publish(
            SEARCH_INDEX_KEY, manifest, builder, extra={"graph_epoch": graph_epoch}
        )

        snapshot = feature_index.snapshot()
        tables = columnar_tables(snapshot)
        source = SimpleNamespace(uid=feature_index.uid, epoch=snapshot.epoch)
        manifest, builder = encode_feature_tables(
            source, tables, include_entity_ids=True
        )
        store.publish(
            FEATURE_TABLES_KEY, manifest, builder, extra={"graph_epoch": graph_epoch}
        )

        # The columnar topology takes the remaining O(triples) replay term
        # out of cold start: loads install it straight into the graph's
        # memo instead of re-walking the adjacency.  Durable segments are
        # addressed by role, so the uid slot is unused (0) here.
        topology = graph_topology(graph)
        source = SimpleNamespace(uid=0, epoch=graph_epoch)
        manifest, builder = encode_graph_topology(source, topology)
        store.publish(
            GRAPH_TOPOLOGY_KEY, manifest, builder, extra={"graph_epoch": graph_epoch}
        )

    system_manifest: dict[str, object] = {
        "format": _SYSTEM_FORMAT,
        "graph": {
            "file": _GRAPH_FILE,
            "name": graph.name,
            "epoch": graph_epoch,
            "triples": num_triples,
        },
        "store": _STORE_DIR,
        "keys": [SEARCH_INDEX_KEY, FEATURE_TABLES_KEY, GRAPH_TOPOLOGY_KEY],
    }
    _atomic_write_bytes(
        os.path.join(directory, _SYSTEM_MANIFEST),
        json.dumps(system_manifest, indent=2, sort_keys=True).encode("utf-8"),
    )
    return system_manifest


# --------------------------------------------------------------------- #
# System load
# --------------------------------------------------------------------- #
def _read_system_manifest(directory: str) -> dict[str, object]:
    path = os.path.join(directory, _SYSTEM_MANIFEST)
    try:
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise SnapshotUnavailable(
            f"no loadable system under {directory!r}"
        ) from error
    if not isinstance(manifest, dict) or manifest.get("format") != _SYSTEM_FORMAT:
        raise SnapshotUnavailable(f"system manifest under {directory!r} is malformed")
    return manifest


def restore_fielded_index(
    view: SegmentView, fields: tuple[str, ...], shards: int = 1
) -> "FieldedIndex":
    """Rebuild a live :class:`FieldedIndex` from one index snapshot.

    The snapshot's posting columns are already in ordinal (sorted
    doc-id) order, so each becomes a :class:`PostingList` directly —
    no per-document insert replay — and the per-ordinal length columns
    become the per-field document lengths.  The result is structurally
    identical to replaying every document through
    ``add_document_counts`` in ordinal order: same sorted posting
    lists, same lengths, same epoch (one bump per document).  The
    configured field schema must match the stored one — a mismatch
    means the snapshot cannot serve this configuration and the caller
    rebuilds instead.
    """
    from ..index.fielded_index import FieldedIndex
    from ..index.postings import PostingList
    from ..index.sharded import ShardedFieldedIndex

    if tuple(view.fields) != tuple(fields):
        raise SnapshotUnavailable(
            f"snapshot indexes fields {tuple(view.fields)!r}, "
            f"configuration wants {tuple(fields)!r}"
        )
    doc_ids = view.manifest.get("doc_ids")
    if not isinstance(doc_ids, list) or len(doc_ids) != view.num_documents:
        raise SnapshotUnavailable("snapshot carries no document identifiers")

    doc_ids = [str(doc_id) for doc_id in doc_ids]
    field_postings: dict[str, dict[str, PostingList]] = {}
    field_lengths: dict[str, dict[str, int]] = {}
    try:
        for field in fields:
            postings: dict[str, PostingList] = {}
            for term, ordinals, frequencies in view.iter_posting_columns(field):
                ids = [doc_ids[ordinal] for ordinal in ordinals.tolist()]
                postings[term] = PostingList(
                    ids, dict(zip(ids, map(int, frequencies.tolist())))
                )
            field_postings[field] = postings
            lengths = view.field_lengths(field)
            if lengths.shape[0] != len(doc_ids):
                raise SnapshotUnavailable("snapshot length column is malformed")
            field_lengths[field] = dict(zip(doc_ids, map(int, lengths.tolist())))
    except IndexError as error:
        raise SnapshotUnavailable("snapshot posting column is malformed") from error

    index = (
        ShardedFieldedIndex(fields, shards) if shards > 1 else FieldedIndex(fields)
    )
    index.adopt_snapshot(doc_ids, field_postings, field_lengths)
    return index


def restore_feature_snapshot(
    graph: "KnowledgeGraph", view: SegmentView
) -> "FeatureIndexSnapshot":
    """Invert one feature-tables snapshot back into pinned snapshot maps.

    The stored holder CSR maps feature ordinals to sorted holder
    ordinals; with the entity-id table alongside, both directions of the
    :class:`FeatureIndexSnapshot` are rebuilt without extracting a single
    feature from the graph.  Entities that hold no features still get
    their (empty) entry — the entity-id table *is* the ordinal universe,
    and dropping empty rows would shift every ordinal after them.

    The decoded tables themselves are installed on the snapshot's memo
    (arrays copied out, because the caller closes the backing memmap),
    so the first recommendation after a cold start does not rebuild what
    was just read — the feature-side sibling of ``install_topology``.
    """
    from ..features.columnar import ColumnarFeatureTables
    from ..features.feature_index import FeatureIndexSnapshot
    from ..features.semantic_feature import Direction, SemanticFeature

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
        features = [
            SemanticFeature(anchor, predicate, Direction(direction))
            for anchor, predicate, direction in keys
        ]
    except (TypeError, ValueError) as error:
        raise SnapshotUnavailable("feature snapshot keys are malformed") from error

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
    if (
        tables.holder_offsets.shape != (len(features) + 1,)
        or tables.dominant_ords.shape != (len(entity_ids),)
        or tables.member_offsets.shape != (len(entity_ids) + 1,)
    ):
        raise SnapshotUnavailable("feature snapshot CSR offsets are malformed")
    holder_offsets, holder_ordinals = tables.holder_offsets, tables.holder_ordinals
    held: dict[int, set[SemanticFeature]] = defaultdict(set)
    feature_entities: dict[SemanticFeature, frozenset[str]] = {}
    try:
        for position, feature in enumerate(features):
            start = int(holder_offsets[position])
            end = int(holder_offsets[position + 1])
            holders = holder_ordinals[start:end].tolist()
            feature_entities[feature] = frozenset(
                entity_ids[ordinal] for ordinal in holders
            )
            for ordinal in holders:
                held[ordinal].add(feature)
    except IndexError as error:
        raise SnapshotUnavailable("feature snapshot CSR is malformed") from error

    entity_features = {
        entity_id: frozenset(held.get(ordinal, ()))
        for ordinal, entity_id in enumerate(entity_ids)
    }
    snapshot = FeatureIndexSnapshot(
        graph,
        entity_features,
        feature_entities,
        epoch=view.epoch,
        triples=len(graph),
    )
    snapshot._columnar = tables
    return snapshot


def restore_graph_topology(graph: "KnowledgeGraph", view: SegmentView) -> "GraphTopology":
    """Rebuild a :class:`~repro.kg.topology.GraphTopology` from one segment.

    Unlike the worker-side zero-copy attach, every array is *copied* out
    of the (CRC-verified) view: the caller closes the backing memmap
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
    search_shards: int = 1,
) -> LoadedSystem:
    """Load a saved system, attaching snapshots instead of rebuilding.

    The graph is mandatory: a missing or corrupt graph file raises
    :class:`SnapshotUnavailable` (callers fall back to whatever built
    the graph originally).  The derived tiers are best-effort — each is
    CRC-verified and cross-checked against the loaded graph's epoch, and
    arrives as ``None`` on any failure so the caller rebuilds it from
    the (sound) graph.
    """
    manifest = _read_system_manifest(directory)
    graph_info = manifest.get("graph")
    if not isinstance(graph_info, dict):
        raise SnapshotUnavailable(f"system manifest under {directory!r} is malformed")

    graph = load_graph(
        os.path.join(directory, str(graph_info.get("file", _GRAPH_FILE))),
        name=str(graph_info.get("name", "kg")),
    )
    expected_epoch = int(graph_info.get("epoch", -1))  # type: ignore[arg-type]
    expected_triples = int(graph_info.get("triples", -1))  # type: ignore[arg-type]
    if graph.epoch != expected_epoch or len(graph) != expected_triples:
        raise SnapshotUnavailable(
            f"graph replayed to epoch {graph.epoch} ({len(graph)} triples), "
            f"manifest recorded epoch {expected_epoch} ({expected_triples})"
        )

    store = DiskSnapshotStore(os.path.join(directory, str(manifest.get("store", _STORE_DIR))))

    def attach_component(key: str):
        """Attach + graph-epoch-check one role; raise on any problem.

        ``store.attach`` counts its own failures; the pre-attach entry
        and graph-epoch checks count theirs here, so each failed
        component load bumps ``store.failures`` exactly once.
        """
        try:
            entry = store.entry(key)
            if int(entry.get("graph_epoch", -1)) != graph.epoch:  # type: ignore[arg-type]
                raise SnapshotUnavailable(
                    f"snapshot {key!r} is from another graph epoch"
                )
        except SnapshotUnavailable:
            store.failures += 1
            raise
        return store.attach(key)

    index = None
    try:
        view = attach_component(SEARCH_INDEX_KEY)
    except SnapshotUnavailable:
        pass
    else:
        try:
            index = restore_fielded_index(view, fields, shards=search_shards)
        except SnapshotUnavailable:
            store.failures += 1
        finally:
            view.close()

    feature_snapshot = None
    try:
        view = attach_component(FEATURE_TABLES_KEY)
    except SnapshotUnavailable:
        pass
    else:
        try:
            feature_snapshot = restore_feature_snapshot(graph, view)
        except SnapshotUnavailable:
            store.failures += 1
        finally:
            view.close()

    topology = None
    try:
        view = attach_component(GRAPH_TOPOLOGY_KEY)
    except SnapshotUnavailable:
        pass
    else:
        try:
            topology = restore_graph_topology(graph, view)
        except SnapshotUnavailable:
            store.failures += 1
        finally:
            view.close()

    return LoadedSystem(
        graph=graph,
        index=index,
        feature_snapshot=feature_snapshot,
        topology=topology,
        store=store,
    )


__all__ = [
    "FEATURE_TABLES_KEY",
    "GRAPH_TOPOLOGY_KEY",
    "SEARCH_INDEX_KEY",
    "LoadedSystem",
    "graph_path",
    "load_graph",
    "load_system",
    "restore_feature_snapshot",
    "restore_fielded_index",
    "restore_graph_topology",
    "save_graph",
    "save_system",
    "system_store",
]

"""Reference builders for the columnar structures — the test oracle.

These are the per-entity / per-feature loop builders that produced
:class:`~repro.kg.topology.GraphTopology` and
:class:`~repro.features.columnar.ColumnarFeatureTables` before the
structures were sorted out of the graph's column log.  They read only the
graph's and the feature snapshot's public dictionaries, never the log, so
they check the sort-based builders (and the log itself) independently.
"""

from __future__ import annotations

import numpy as np

from repro.features.feature_index import FeatureIndexSnapshot
from repro.kg import GraphTopology, KnowledgeGraph

TOPOLOGY_ARRAYS = (
    "out_offsets", "out_targets", "out_preds",
    "in_offsets", "in_sources", "in_preds",
)
TOPOLOGY_STRINGS = ("entity_ids", "predicates")
TABLE_ARRAYS = (
    "holder_offsets", "holder_ordinals", "dominant_ords",
    "type_populations", "member_offsets", "member_type_ords",
)


def _adjacency(entity_ids, ordinal_of, predicate_ord, edges_of):
    """One direction's CSR: rows sorted by ``(neighbour, predicate)``."""
    offsets = np.zeros(len(entity_ids) + 1, dtype=np.int64)
    neighbour_rows: list[int] = []
    predicate_rows: list[int] = []
    for ordinal, entity_id in enumerate(entity_ids):
        row = sorted(
            (ordinal_of[neighbour], predicate_ord[predicate])
            for predicate, neighbour in edges_of(entity_id)
        )
        neighbour_rows.extend(pair[0] for pair in row)
        predicate_rows.extend(pair[1] for pair in row)
        offsets[ordinal + 1] = len(neighbour_rows)
    return (
        offsets,
        np.asarray(neighbour_rows, dtype=np.int64),
        np.asarray(predicate_rows, dtype=np.int64),
    )


def topology_oracle(graph: KnowledgeGraph) -> dict[str, object]:
    """Every array and string table of the graph's topology, by graph walks."""
    entity_ids = sorted(graph.entities())
    ordinal_of = {entity_id: ordinal for ordinal, entity_id in enumerate(entity_ids)}
    predicates = sorted(graph.edge_predicates())
    predicate_ord = {predicate: ordinal for ordinal, predicate in enumerate(predicates)}
    out_offsets, out_targets, out_preds = _adjacency(
        entity_ids, ordinal_of, predicate_ord, graph.outgoing
    )
    in_offsets, in_sources, in_preds = _adjacency(
        entity_ids, ordinal_of, predicate_ord, graph.incoming
    )
    return {
        "epoch": graph.epoch,
        "entity_ids": entity_ids,
        "predicates": predicates,
        "out_offsets": out_offsets,
        "out_targets": out_targets,
        "out_preds": out_preds,
        "in_offsets": in_offsets,
        "in_sources": in_sources,
        "in_preds": in_preds,
    }


def feature_tables_oracle(snapshot: FeatureIndexSnapshot) -> dict[str, object]:
    """Every array and key table of the snapshot's feature tables, by set walks.

    The types are the dictionaries of the snapshot's epoch: the graph's
    first ``snapshot.triples`` triples replayed into a graph of their own.
    """
    entity_features, feature_entities = snapshot.maps()
    entity_ids = sorted(entity_features)
    ordinal_of = {entity_id: ordinal for ordinal, entity_id in enumerate(entity_ids)}
    epoch_graph = KnowledgeGraph("epoch")
    epoch_graph.add_all(snapshot._graph.triples[: snapshot.triples])
    entity_types, type_members = epoch_graph.type_tables()
    type_ids = sorted(type_members)
    type_ord = {type_id: ordinal for ordinal, type_id in enumerate(type_ids)}
    dominant = [epoch_graph.dominant_type(entity_id) for entity_id in entity_ids]
    dominant_ords = np.fromiter(
        (type_ord[type_id] if type_id else -1 for type_id in dominant),
        dtype=np.int64,
        count=len(entity_ids),
    )
    type_populations = np.fromiter(
        (len(type_members[type_id]) for type_id in type_ids),
        dtype=np.int64,
        count=len(type_ids),
    )

    member_offsets = np.zeros(len(entity_ids) + 1, dtype=np.int64)
    member_rows: list[list[int]] = []
    for position, entity_id in enumerate(entity_ids):
        row = sorted(type_ord[type_id] for type_id in entity_types.get(entity_id, ()))
        member_rows.append(row)
        member_offsets[position + 1] = member_offsets[position] + len(row)
    member_type_ords = np.fromiter(
        (ordinal for row in member_rows for ordinal in row),
        dtype=np.int64,
        count=int(member_offsets[-1]),
    )

    features = sorted(feature_entities)
    holder_offsets = np.zeros(len(features) + 1, dtype=np.int64)
    holder_rows: list[list[int]] = []
    for position, feature in enumerate(features):
        row = sorted(ordinal_of[entity_id] for entity_id in feature_entities[feature])
        holder_rows.append(row)
        holder_offsets[position + 1] = holder_offsets[position] + len(row)
    holder_ordinals = np.fromiter(
        (ordinal for row in holder_rows for ordinal in row),
        dtype=np.int64,
        count=int(holder_offsets[-1]),
    )
    return {
        "epoch": snapshot.epoch,
        "entity_ids": entity_ids,
        "type_ids": type_ids,
        "feature_keys": [feature.key for feature in features],
        "holder_offsets": holder_offsets,
        "holder_ordinals": holder_ordinals,
        "dominant_ords": dominant_ords,
        "type_populations": type_populations,
        "member_offsets": member_offsets,
        "member_type_ords": member_type_ords,
    }


def assert_topology_matches(topology: GraphTopology, expected: dict[str, object]) -> None:
    assert topology.epoch == expected["epoch"]
    for name in TOPOLOGY_STRINGS:
        assert getattr(topology, name) == expected[name], name
    assert topology.ordinal_of == {
        entity_id: ordinal for ordinal, entity_id in enumerate(expected["entity_ids"])
    }
    for name in TOPOLOGY_ARRAYS:
        actual, wanted = getattr(topology, name), expected[name]
        assert actual.dtype == wanted.dtype and actual.shape == wanted.shape, name
        assert actual.tobytes() == wanted.tobytes(), name


def assert_tables_match(tables, expected: dict[str, object]) -> None:
    assert tables.epoch == expected["epoch"]
    assert tables.entity_ids == expected["entity_ids"]
    assert tables.type_ids == expected["type_ids"]
    assert tables.ordinal_of == {
        entity_id: ordinal for ordinal, entity_id in enumerate(expected["entity_ids"])
    }
    assert tables.feature_keys() == expected["feature_keys"]
    ordinals = tables.feature_ordinals(expected["feature_keys"])
    assert ordinals.tolist() == list(range(len(expected["feature_keys"])))
    for name in TABLE_ARRAYS:
        actual, wanted = getattr(tables, name), expected[name]
        assert actual.dtype == wanted.dtype and actual.shape == wanted.shape, name
        assert actual.tobytes() == wanted.tobytes(), name

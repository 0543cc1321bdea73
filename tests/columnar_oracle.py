"""Reference builders for the columnar structures — the test oracle.

These are per-entity / per-feature loop builders of the one edge CSR of
:class:`~repro.kg.topology.GraphTopology` and of the type tables of
:class:`~repro.features.columnar.ColumnarFeatureTables`.  They walk only
the graph's public accessors (:func:`~repro.features.extraction.features_of_entity`),
never the column log's epochs, so they check the sort-based and derived
builders independently.  :func:`maps` decodes a whole snapshot through
its point lookups, for comparing two snapshots map for map.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict

import numpy as np

from repro.features.columnar import DIRECTIONS, ColumnarFeatureTables
from repro.features.extraction import features_of_entity
from repro.features.feature_index import FeatureIndexSnapshot
from repro.features.semantic_feature import Direction, SemanticFeature
from repro.kg import GraphTopology, KnowledgeGraph

TOPOLOGY_ARRAYS = ("feature_codes", "holder_offsets", "holder_ordinals", "anchor_features")
TOPOLOGY_STRINGS = ("entity_ids", "predicates")
TABLE_ARRAYS = (
    "holder_offsets", "holder_ordinals", "dominant_ords",
    "type_populations", "member_offsets", "member_type_ords",
)


def maps(
    snapshot: FeatureIndexSnapshot,
) -> tuple[dict[str, frozenset[SemanticFeature]], dict[SemanticFeature, frozenset[str]]]:
    """``(entity → features, feature → holders)`` of every entity and feature."""
    tables = snapshot.tables
    features = [
        SemanticFeature(anchor, predicate, Direction(direction))
        for anchor, predicate, direction in tables.feature_keys()
    ]
    return (
        {entity_id: snapshot.features_of(entity_id) for entity_id in tables.entity_ids},
        {feature: snapshot.holders_of(feature) for feature in features},
    )


def _csr(rows: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=offsets[1:])
    values = np.fromiter((value for row in rows for value in row), np.int64, int(offsets[-1]))
    return offsets, values


def topology_oracle(graph: KnowledgeGraph) -> dict[str, object]:
    """The graph's edge CSR and string tables, by per-entity feature walks."""
    entity_ids = sorted(graph.entities())
    ordinal_of = {entity_id: ordinal for ordinal, entity_id in enumerate(entity_ids)}
    predicates = sorted(graph.edge_predicates())
    predicate_ord = {predicate: ordinal for ordinal, predicate in enumerate(predicates)}
    holders: dict[SemanticFeature, list[int]] = defaultdict(list)
    for entity_id in entity_ids:
        for feature in features_of_entity(graph, entity_id):
            holders[feature].append(ordinal_of[entity_id])
    features = sorted(holders)
    holder_offsets, holder_ordinals = _csr([sorted(holders[feature]) for feature in features])
    anchors = [ordinal_of[feature.anchor] for feature in features]
    return {
        "epoch": graph.epoch,
        "entity_ids": entity_ids,
        "predicates": predicates,
        "feature_keys": [feature.key for feature in features],
        "feature_codes": np.fromiter(
            (
                (ordinal_of[feature.anchor] * len(predicates) + predicate_ord[feature.predicate]) * 2
                + DIRECTIONS.index(feature.direction.value)
                for feature in features
            ),
            np.int64,
            len(features),
        ),
        "holder_offsets": holder_offsets,
        "holder_ordinals": holder_ordinals,
        "anchor_features": np.fromiter(
            (bisect_left(anchors, ordinal) for ordinal in range(len(entity_ids) + 1)),
            np.int64,
            len(entity_ids) + 1,
        ),
    }


def feature_tables_oracle(snapshot: FeatureIndexSnapshot) -> dict[str, object]:
    """Every array and key table of the snapshot's feature tables, by set walks.

    Walks the graph of the snapshot's epoch: the log's first
    ``snapshot.triples`` triples replayed into a graph of their own.
    """
    epoch_graph = KnowledgeGraph("epoch")
    epoch_graph.add_all(snapshot.columns.triples()[: snapshot.triples])
    expected = topology_oracle(epoch_graph)
    entity_ids = expected["entity_ids"]
    entity_types, type_members = epoch_graph.type_tables()
    type_ids = sorted(type_members)
    type_ord = {type_id: ordinal for ordinal, type_id in enumerate(type_ids)}
    dominant = [epoch_graph.dominant_type(entity_id) for entity_id in entity_ids]
    member_offsets, member_type_ords = _csr([
        sorted(type_ord[type_id] for type_id in entity_types.get(entity_id, ()))
        for entity_id in entity_ids
    ])
    return {
        **expected,
        "epoch": snapshot.epoch,
        "type_ids": type_ids,
        "dominant_ords": np.fromiter(
            (type_ord[type_id] if type_id else -1 for type_id in dominant),
            np.int64,
            len(entity_ids),
        ),
        "type_populations": np.fromiter(
            (len(type_members[type_id]) for type_id in type_ids), np.int64, len(type_ids)
        ),
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


def sorted_tables(snapshot: FeatureIndexSnapshot) -> ColumnarFeatureTables:
    """The snapshot's tables sorted out of its epoch of the column log again."""
    return ColumnarFeatureTables.from_topology(
        GraphTopology.from_log(snapshot.columns, snapshot.triples, snapshot.epoch)
    )

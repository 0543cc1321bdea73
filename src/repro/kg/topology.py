"""Columnar graph topology — per-epoch CSR adjacency.

The traversal helpers ``bfs_reachable`` and ``connecting_entities`` run
here as array kernels rather than edge-by-edge Python walks.  This module
gives the graph the same columnar treatment the postings and feature
tables got:

* an **entity ordinal table** assigned in sorted-``entity_id`` order (so
  ordinal comparisons reproduce string comparisons exactly, like the doc
  and feature ordinals do) with **outgoing and incoming CSR adjacency**
  (``out_offsets``/``out_targets`` + a parallel ``out_preds``
  predicate-ordinal column, rows sorted by ``(neighbour, predicate)``);
* **frontier-at-a-time kernels**: level-synchronous
  :meth:`GraphTopology.bfs_reachable_ords` (gather both CSR directions
  for the whole frontier, dedupe, mask the visited) and
  sorted-array :meth:`GraphTopology.connecting_ords` (intersect the two
  one-hop neighbourhoods with ``searchsorted`` and join the deduped left
  predicate sets against the right edge multiset).

An entity's adjacency rows are also its feature rows, which the feature
ranker reads (:meth:`~repro.features.columnar.ColumnarFeatureTables.
feature_rows`).  Type membership is not here: the expander's type filter
reads the pinned feature tables' membership CSR.

Instances are immutable and memoised per :attr:`KnowledgeGraph.epoch`
via :func:`graph_topology` (the graph-side sibling of
``columnar_tables``), which derives each epoch's adjacency from the
memoised previous epoch's; :class:`TraversalCounters` accumulates the shared
traversal telemetry surfaced as :class:`~repro.stats.TraversalStats`.
The array layout round-trips through the segment codec as the
``"graph-topology"`` segment kind (:func:`repro.storage.codec.
encode_graph_topology`), so ``PivotE.save``/``load`` persist it to the
disk tier.
"""

from __future__ import annotations

import numpy as np

from ..stats import TraversalStats
from ..utils.ordinals import OrdinalMap
from .columns import EpochColumns, csr_gather, csr_merge, csr_offsets, sort_rows, sorted_unique
from .graph import KnowledgeGraph


class TraversalCounters:
    """Mutable traversal telemetry shared by every component on one graph.

    One instance lives on the graph (``graph._topology_counters``) so the
    search engine, the recommendation engine and the facade all report
    the same numbers — mirroring how the pruning counters accumulate on
    the scorers.  :func:`traversal_stats` freezes it into the typed
    :class:`~repro.stats.TraversalStats` record.
    """

    __slots__ = (
        "bfs_queries",
        "connect_queries",
        "frontier_entities",
        "edges_touched",
        "cache_hits",
        "rebuilds",
    )

    def __init__(self) -> None:
        self.bfs_queries = 0
        self.connect_queries = 0
        self.frontier_entities = 0
        self.edges_touched = 0
        self.cache_hits = 0
        self.rebuilds = 0


class GraphTopology:
    """Per-epoch columnar snapshot of one knowledge graph's topology.

    Built once per graph epoch (:meth:`from_graph`, memoised by
    :func:`graph_topology`) or reconstructed zero-copy from an attached
    ``"graph-topology"`` segment (:meth:`from_arrays`).  All arrays are
    read-only by convention — attached segments literally are.
    """

    __slots__ = (
        "epoch",
        "num_entities",
        "entity_ids",
        "ordinal_of",
        "predicates",
        "predicate_ord",
        "out_offsets",
        "out_targets",
        "out_preds",
        "in_offsets",
        "in_sources",
        "in_preds",
        "_columns",
    )

    def __init__(
        self,
        epoch: int,
        entity_ids: list[str],
        predicates: list[str],
        out_offsets: np.ndarray,
        out_targets: np.ndarray,
        out_preds: np.ndarray,
        in_offsets: np.ndarray,
        in_sources: np.ndarray,
        in_preds: np.ndarray,
        ordinal_of: OrdinalMap | None = None,
    ) -> None:
        self.epoch = epoch
        self.num_entities = len(entity_ids)
        self.entity_ids = entity_ids
        #: ``entity_id → ordinal``; sort-built topologies share the
        #: epoch's map with the feature tables (read-only).
        self.ordinal_of = OrdinalMap(entity_ids) if ordinal_of is None else ordinal_of
        self.predicates = predicates
        self.predicate_ord = {predicate: ordinal for ordinal, predicate in enumerate(predicates)}
        self.out_offsets = out_offsets
        self.out_targets = out_targets
        self.out_preds = out_preds
        self.in_offsets = in_offsets
        self.in_sources = in_sources
        self.in_preds = in_preds
        #: The log epoch a sort-built topology came from, which a later
        #: epoch's topology derives its adjacency from (``None`` when decoded).
        self._columns: EpochColumns | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_graph(
        cls, graph: KnowledgeGraph, previous: "GraphTopology | None" = None
    ) -> "GraphTopology":
        """Materialise the topology of the graph's current epoch.

        The epoch is pinned under :attr:`KnowledgeGraph.lock`; the arrays
        are then sorted out of that epoch's prefix of the graph's column
        log (:mod:`repro.kg.columns`), which later writes cannot touch.
        Both adjacency directions are the same edge rows ordered by
        ``(row entity, neighbour, predicate)``.  Given ``previous``, the
        topology of an earlier epoch of the same graph, the two adjacency
        CSRs are derived from its rows instead (:meth:`_adjacency`).
        """
        with graph.lock:
            epoch = graph.epoch
            columns = graph.columns.epoch(len(graph))
        topology = cls(
            epoch,
            columns.entity_ids,
            columns.predicates,
            *cls._adjacency(columns, previous),
            ordinal_of=columns.ordinal_of,
        )
        topology._columns = columns
        return topology

    @staticmethod
    def _adjacency(columns: EpochColumns, previous: "GraphTopology | None") -> list[np.ndarray]:
        """``[out_offsets, out_targets, out_preds, in_offsets, in_sources, in_preds]``.

        From ``previous``: each direction's CSR moved through the monotone
        entity and predicate maps (so its rows stay sorted) and merged
        with the edges logged since (:func:`~repro.kg.columns.csr_merge`).
        From scratch otherwise: the epoch's edge rows sorted both ways.
        """
        older = None if previous is None else previous._columns
        num_entities = len(columns.entity_ids)
        sizes = (num_entities, len(columns.predicates))
        subjects, preds, objects = (
            columns.edge_subjects, columns.edge_predicates, columns.edge_objects,
        )
        if older is None or older.triples > columns.triples:
            _, out_targets, out_preds = sort_rows((num_entities, *sizes), subjects, objects, preds)
            _, in_sources, in_preds = sort_rows((num_entities, *sizes), objects, subjects, preds)
            return [
                csr_offsets(subjects, num_entities), out_targets, out_preds,
                csr_offsets(objects, num_entities), in_sources, in_preds,
            ]
        assert previous is not None
        entity_map, predicate_map = columns.ordinal_maps(older)
        first = older.edge_subjects.size
        subjects, preds, objects = subjects[first:], preds[first:], objects[first:]
        arrays: list[np.ndarray] = []
        for offsets, neighbours, neighbour_preds, rows, added in (
            (previous.out_offsets, previous.out_targets, previous.out_preds, subjects, objects),
            (previous.in_offsets, previous.in_sources, previous.in_preds, objects, subjects),
        ):
            counts = np.zeros(num_entities, dtype=np.int64)
            counts[entity_map] = np.diff(offsets)
            offsets, merged = csr_merge(
                counts,
                (entity_map[neighbours], predicate_map[neighbour_preds]),
                sizes,
                rows,
                added,
                preds,
            )
            arrays += [offsets, *merged]
        return arrays

    @classmethod
    def from_arrays(
        cls,
        *,
        epoch: int,
        entity_ids: list[str],
        predicates: list[str],
        out_offsets: np.ndarray,
        out_targets: np.ndarray,
        out_preds: np.ndarray,
        in_offsets: np.ndarray,
        in_sources: np.ndarray,
        in_preds: np.ndarray,
        ordinal_of: OrdinalMap | None = None,
    ) -> "GraphTopology":
        """Rebuild a topology from decoded segment arrays (``ordinal_of``:
        the entity map of a load's one dictionary)."""
        return cls(
            epoch,
            entity_ids,
            predicates,
            out_offsets,
            out_targets,
            out_preds,
            in_offsets,
            in_sources,
            in_preds,
            ordinal_of=ordinal_of,
        )

    # ------------------------------------------------------------------ #
    # Frontier-at-a-time kernels
    # ------------------------------------------------------------------ #
    def bfs_reachable_ords(
        self,
        start_ordinal: int,
        max_hops: int,
        counters: TraversalCounters | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Level-synchronous BFS: ``(reached_ordinals, depths)``.

        Expands the whole frontier per level — both CSR directions
        gathered in one pass each — so depths are minimal hop counts,
        exactly like the scalar queue walk.
        """
        depth = np.full(self.num_entities, -1, dtype=np.int64)
        depth[start_ordinal] = 0
        frontier = np.asarray([start_ordinal], dtype=np.int64)
        if counters is not None:
            counters.frontier_entities += 1
        level = 0
        while frontier.size and level < max_hops:
            neighbours = np.concatenate(
                (
                    csr_gather(self.out_offsets, self.out_targets, frontier),
                    csr_gather(self.in_offsets, self.in_sources, frontier),
                )
            )
            if counters is not None:
                counters.edges_touched += int(neighbours.size)
            neighbours = sorted_unique(neighbours)
            frontier = neighbours[depth[neighbours] < 0]
            depth[frontier] = level + 1
            level += 1
            if counters is not None:
                counters.frontier_entities += int(frontier.size)
        reached = np.nonzero(depth >= 0)[0]
        return reached, depth[reached]

    def connecting_ords(
        self,
        left_ordinal: int,
        right_ordinal: int,
        counters: TraversalCounters | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Length-two connections: ``(anchors, left_preds, right_preds)``.

        The left one-hop neighbourhood is deduped to unique
        ``(anchor, predicate)`` pairs (the scalar walk's per-anchor
        predicate *set*); the right neighbourhood stays a multiset (the
        scalar walk emits one row per right *edge*).  Their sorted-array
        intersect plus a CSR join reproduces the scalar enumeration, and
        because ordinals are assigned in string-sorted order the final
        ``lexsort`` equals the scalar walk's tuple sort.
        """
        left_targets, left_preds = self._one_hop(left_ordinal)
        right_targets, right_preds = self._one_hop(right_ordinal)
        if counters is not None:
            counters.edges_touched += int(left_targets.size + right_targets.size)
        empty = np.zeros(0, dtype=np.int64)
        if not left_targets.size or not right_targets.size:
            return empty, empty, empty

        pairs = np.unique(np.stack((left_targets, left_preds), axis=1), axis=0)
        pair_anchors = pairs[:, 0]
        pair_preds = pairs[:, 1]
        unique_anchors, starts = np.unique(pair_anchors, return_index=True)
        anchor_offsets = np.append(starts, pair_anchors.size).astype(np.int64)

        positions = np.searchsorted(unique_anchors, right_targets)
        safe = np.minimum(positions, unique_anchors.size - 1)
        matched = (
            (unique_anchors[safe] == right_targets)
            & (right_targets != left_ordinal)
            & (right_targets != right_ordinal)
        )
        if not matched.any():
            return empty, empty, empty
        selected = safe[matched]
        selected_right_preds = right_preds[matched]

        lengths = anchor_offsets[selected + 1] - anchor_offsets[selected]
        flat = csr_gather(anchor_offsets, np.arange(pair_anchors.size, dtype=np.int64), selected)
        anchors = pair_anchors[flat]
        out_left = pair_preds[flat]
        out_right = np.repeat(selected_right_preds, lengths)
        order = np.lexsort((out_right, out_left, anchors))
        return anchors[order], out_left[order], out_right[order]

    def _one_hop(self, ordinal: int) -> tuple[np.ndarray, np.ndarray]:
        """Both directions' ``(neighbour, predicate)`` edge rows of one entity."""
        out_lo, out_hi = int(self.out_offsets[ordinal]), int(self.out_offsets[ordinal + 1])
        in_lo, in_hi = int(self.in_offsets[ordinal]), int(self.in_offsets[ordinal + 1])
        return (
            np.concatenate((self.out_targets[out_lo:out_hi], self.in_sources[in_lo:in_hi])),
            np.concatenate((self.out_preds[out_lo:out_hi], self.in_preds[in_lo:in_hi])),
        )


# ---------------------------------------------------------------------- #
# Per-graph memoisation and telemetry
# ---------------------------------------------------------------------- #
def topology_counters(graph: KnowledgeGraph) -> TraversalCounters:
    """The graph's shared traversal counters (created on first use).

    A benign race at first access can create two counter objects; one
    wins the attribute store and all later increments land on it.
    """
    counters = getattr(graph, "_topology_counters", None)
    if counters is None:
        counters = TraversalCounters()
        graph._topology_counters = counters  # type: ignore[attr-defined]
    return counters


def graph_topology(graph: KnowledgeGraph) -> GraphTopology:
    """The graph's memoised per-epoch :class:`GraphTopology`.

    Replaced (under :attr:`KnowledgeGraph.lock`) whenever the graph's
    epoch has moved past the memo — the graph-side mirror of
    ``columnar_tables`` on feature snapshots — by a topology derived
    from the superseded one (:meth:`GraphTopology.from_graph`).
    """
    counters = topology_counters(graph)
    topology = getattr(graph, "_topology", None)
    if topology is not None and topology.epoch == graph.epoch:
        counters.cache_hits += 1
        return topology
    with graph.lock:
        topology = getattr(graph, "_topology", None)
        if topology is not None and topology.epoch == graph.epoch:
            counters.cache_hits += 1
            return topology
        topology = GraphTopology.from_graph(graph, topology)
        graph._topology = topology  # type: ignore[attr-defined]
        counters.rebuilds += 1
    return topology


def memoised_topology(graph: KnowledgeGraph) -> GraphTopology | None:
    """The graph's topology memo as it stands — of any epoch, or ``None``.

    Never builds one: for readers that use a topology when one is at
    hand and have another way otherwise (they check its epoch).
    """
    return getattr(graph, "_topology", None)


def install_topology(graph: KnowledgeGraph, topology: GraphTopology) -> None:
    """Seed the graph's topology memo with a restored snapshot.

    Used by ``PivotE.load`` so the first traversal after a cold start is
    a cache hit instead of an O(edges) rebuild.  Epoch-mismatched
    snapshots are ignored — the memo check would reject them anyway.
    """
    if topology.epoch == graph.epoch:
        graph._topology = topology  # type: ignore[attr-defined]


def traversal_stats(graph: KnowledgeGraph) -> TraversalStats:
    """Freeze the graph's traversal counters into the typed stats record."""
    counters = topology_counters(graph)
    return TraversalStats(
        bfs_queries=counters.bfs_queries,
        connect_queries=counters.connect_queries,
        frontier_entities=counters.frontier_entities,
        edges_touched=counters.edges_touched,
        cache_hits=counters.cache_hits,
        rebuilds=counters.rebuilds,
    )

"""Columnar graph topology — the one per-epoch edge CSR.

A semantic feature is a length-one path anchored at an entity (§2.3), so
the holders of every feature and the adjacency of every entity are the
same edge rows.  :class:`GraphTopology` keeps them once, as the **holder
CSR** the feature tables read:

* an **entity ordinal table** assigned in sorted-``entity_id`` order (so
  ordinal comparisons reproduce string comparisons exactly, like the doc
  ordinals do) and the epoch's sorted edge predicates;
* the sorted **feature codes** ``(anchor · P + predicate) · 2 + direction``
  (direction 0: the anchor is the edge's object; 1: its subject), and
  per code the ascending ordinals of its holders
  (``holder_offsets`` / ``holder_ordinals``).  Every edge ``<s, p, o>``
  is two rows: ``s`` holds ``(o, p, 0)`` and ``o`` holds ``(s, p, 1)``;
* ``anchor_features`` / ``anchor_offsets``: where each entity's anchored
  features, and their holder rows, start.  An entity's anchored rows are
  its neighbours in both directions.

Three readers share the rows:

* :meth:`GraphTopology.feature_rows` — the features an entity holds are
  its anchored rows mirrored: a row ``(p, dir, x)`` anchored at ``e``
  means ``e`` holds ``(x, p, 1 − dir)``;
* :meth:`GraphTopology.bfs_reachable_ords` — level-synchronous BFS, one
  gather of the frontier's anchored rows per level;
* :meth:`GraphTopology.connecting_ords` — the sorted-array intersect of
  two entities' anchored rows, predicates read off the codes.

Instances are immutable and memoised per :attr:`KnowledgeGraph.epoch`
via :func:`graph_topology`, which derives each epoch's CSR from the
memoised previous epoch's; :class:`TraversalCounters` accumulates the
shared traversal telemetry surfaced as :class:`~repro.stats.TraversalStats`.
The CSR is saved as part of the ``feature-tables`` segment, and
``PivotE.load`` installs the restored one in the graph's memo.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..stats import TraversalStats
from ..utils.ordinals import OrdinalMap
from .columns import (
    EdgeColumnLog,
    EpochColumns,
    csr_gather,
    csr_merge,
    isin_sorted,
    sort_rows,
    sorted_unique,
)
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
    """The edge CSR of one epoch of a knowledge graph.

    Sorted out of the graph's column log or derived from an earlier
    epoch's (:meth:`from_log`, memoised by :func:`graph_topology`), or
    restored from a saved segment (``restore_graph_topology``).  All
    arrays are read-only by convention.
    """

    #: Largest triple delta, as a fraction of the epoch's triples, that a
    #: later epoch derives its CSR from an earlier one's over; past it the
    #: full sort is the cheaper pass (the measured crossover: about 2 % of
    #: a 5k-entity graph's triples, 3–4 % at 20k).
    max_delta_fraction: float = 0.02

    __slots__ = (
        "epoch",
        "num_entities",
        "entity_ids",
        "ordinal_of",
        "predicates",
        "feature_codes",
        "holder_offsets",
        "holder_ordinals",
        "anchor_features",
        "anchor_offsets",
        "_columns",
    )

    def __init__(
        self,
        epoch: int,
        entity_ids: list[str],
        predicates: list[str],
        feature_codes: np.ndarray,
        holder_offsets: np.ndarray,
        holder_ordinals: np.ndarray,
        ordinal_of: OrdinalMap | None = None,
        columns: EpochColumns | None = None,
    ) -> None:
        self.epoch = epoch
        self.num_entities = len(entity_ids)
        self.entity_ids = entity_ids
        #: ``entity_id → ordinal``; shared with the epoch's columns (read-only).
        self.ordinal_of = OrdinalMap(entity_ids) if ordinal_of is None else ordinal_of
        self.predicates = predicates
        self.feature_codes = feature_codes
        self.holder_offsets = holder_offsets
        self.holder_ordinals = holder_ordinals
        #: Per entity (and one past the last), its first anchored feature.
        self.anchor_features = np.searchsorted(
            feature_codes, np.arange(self.num_entities + 1, dtype=np.int64) * 2 * len(predicates)
        )
        #: Per entity, where its anchored features' holder rows start.
        self.anchor_offsets = holder_offsets[self.anchor_features]
        #: The log epoch the CSR describes, which a later epoch's derives
        #: its own from (``None``: restored with no log to match).
        self._columns = columns

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_graph(
        cls, graph: KnowledgeGraph, previous: "GraphTopology | None" = None
    ) -> "GraphTopology":
        """The topology of the graph's current epoch (:meth:`from_log`),
        pinned under :attr:`KnowledgeGraph.lock`."""
        with graph.lock:
            return cls.from_log(graph.columns, len(graph), graph.epoch, previous)

    @classmethod
    def from_log(
        cls,
        log: EdgeColumnLog,
        triples: int,
        epoch: int,
        previous: "GraphTopology | None" = None,
    ) -> "GraphTopology":
        """Sort the CSR out of the log prefix of ``triples`` triples.

        The prefix is an epoch the log keeps whatever was written since,
        so a pinned reader can build its own.  Given ``previous``, the
        topology of an earlier epoch of the same log, and a delta within
        :attr:`max_delta_fraction`, the CSR is derived from it instead:
        its codes re-coded through the monotone entity and predicate maps
        — codes order as ``(anchor, predicate, direction)`` triples, so
        they stay sorted even when ``P`` grows — the codes of the edges
        logged since spliced in, and the holder rows merged with theirs
        (:func:`~repro.kg.columns.csr_merge`).
        """
        columns = log.epoch(triples)
        num_entities, num_predicates = len(columns.entity_ids), len(columns.predicates)
        older = None if previous is None else previous._columns
        first = (
            older.edge_subjects.size
            if older is not None and cls.derives(older.triples, triples)
            else 0
        )
        subjects, preds, objects = (
            columns.edge_subjects[first:], columns.edge_predicates[first:],
            columns.edge_objects[first:],
        )
        codes = np.concatenate(
            ((objects * num_predicates + preds) * 2, (subjects * num_predicates + preds) * 2 + 1)
        )
        holders = np.concatenate((subjects, objects))
        if not first:
            codes, holders = sort_rows((2 * num_entities * num_predicates, num_entities), codes, holders)
            starts = np.flatnonzero(np.diff(codes, prepend=-1))
            csr = (codes[starts], np.append(starts, codes.size), holders)
        else:
            assert older is not None and previous is not None
            entity_map, predicate_map = columns.ordinal_maps(older)
            pairs, directions = np.divmod(previous.feature_codes, 2)
            anchors, old_preds = np.divmod(pairs, max(len(older.predicates), 1))
            recoded = (entity_map[anchors] * num_predicates + predicate_map[old_preds]) * 2 + directions
            distinct = sorted_unique(codes)
            fresh = distinct[~isin_sorted(recoded, distinct)]
            inserted = np.searchsorted(recoded, fresh)
            feature_codes = np.insert(recoded, inserted, fresh)
            offsets, (holder_ordinals,) = csr_merge(
                np.insert(np.diff(previous.holder_offsets), inserted, 0),
                (entity_map[previous.holder_ordinals],),
                (num_entities,),
                np.searchsorted(feature_codes, codes),
                holders,
            )
            csr = (feature_codes, offsets, holder_ordinals)
        return cls(
            epoch, columns.entity_ids, columns.predicates, *csr,
            ordinal_of=columns.ordinal_of, columns=columns,
        )

    @classmethod
    def derives(cls, since: int, triples: int) -> bool:
        """Whether the epoch of ``triples`` triples derives its CSR from
        the one of ``since`` triples rather than sorting it."""
        return 0 <= triples - since <= cls.max_delta_fraction * max(triples, 1)

    # ------------------------------------------------------------------ #
    # Readers of the anchored rows
    # ------------------------------------------------------------------ #
    @property
    def num_features(self) -> int:
        return int(self.holder_offsets.size) - 1

    def anchored_range(self, entity_ordinal: int) -> tuple[int, int]:
        """``[low, high)``: the ordinals of the features anchored at one entity.

        Ordinal order is ``(anchor, predicate, direction)`` order, so they
        are contiguous.
        """
        return int(self.anchor_features[entity_ordinal]), int(self.anchor_features[entity_ordinal + 1])

    def _anchored(self, entity_ordinal: int) -> tuple[np.ndarray, np.ndarray]:
        """``(holders, 2 · predicate + direction)`` of the entity's anchored rows."""
        low, high = self.anchored_range(entity_ordinal)
        lengths = np.diff(self.holder_offsets[low : high + 1])
        parts = self.feature_codes[low:high] - entity_ordinal * 2 * len(self.predicates)
        start, end = int(self.anchor_offsets[entity_ordinal]), int(self.anchor_offsets[entity_ordinal + 1])
        return self.holder_ordinals[start:end], np.repeat(parts, lengths)

    def feature_rows(self, entity_ordinals: Sequence[int]) -> list[np.ndarray]:
        """Per entity, the ascending ordinals of the features it holds.

        The entity's anchored rows mirrored: ``e`` anchoring ``(p, dir)``
        held by ``x`` holds ``(x, p, 1 − dir)``, whose code is
        ``x · 2P + (2p + dir) ^ 1``.
        """
        codes, span = self.feature_codes, 2 * len(self.predicates)
        rows = []
        for entity in entity_ordinals:
            holders, parts = self._anchored(entity)
            rows.append(np.searchsorted(codes, np.sort(holders * span + (parts ^ 1))))
        return rows

    def bfs_reachable_ords(
        self,
        start_ordinal: int,
        max_hops: int,
        counters: TraversalCounters | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Level-synchronous BFS: ``(reached_ordinals, depths)``.

        Expands the whole frontier per level — one gather of its anchored
        rows, both edge directions — so depths are minimal hop counts,
        exactly like the scalar queue walk.
        """
        depth = np.full(self.num_entities, -1, dtype=np.int64)
        depth[start_ordinal] = 0
        frontier = np.asarray([start_ordinal], dtype=np.int64)
        if counters is not None:
            counters.frontier_entities += 1
        level = 0
        while frontier.size and level < max_hops:
            neighbours = csr_gather(self.anchor_offsets, self.holder_ordinals, frontier)
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
        holders, parts = self._anchored(ordinal)
        return holders, parts >> 1


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
    epoch has moved past the memo, by a topology derived from the
    superseded one (:meth:`GraphTopology.from_graph`).  A feature index
    refresh takes its epoch's CSR from here, so one write derives one.
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


def install_topology(graph: KnowledgeGraph, topology: GraphTopology) -> None:
    """Seed the graph's topology memo with a restored snapshot.

    Used by ``PivotE.load`` (the restored feature tables' topology) so
    the first traversal after a cold start is a cache hit instead of an
    O(edges) sort.  Epoch-mismatched
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

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

:meth:`GraphTopology.feature_rows` reads the features an entity holds
as its anchored rows mirrored: a row ``(p, dir, x)`` anchored at ``e``
means ``e`` holds ``(x, p, 1 − dir)``.

Instances are immutable and memoised per :attr:`KnowledgeGraph.epoch`
via :func:`graph_topology`, which derives each epoch's CSR from the
memoised previous epoch's by shifting the old codes and holders and
splicing the new rows in (:meth:`GraphTopology._derived`), so a
one-entity write costs copies plus its delta; :class:`TraversalCounters`
counts the memo's hits and rebuilds, surfaced as
:class:`~repro.stats.TraversalStats`.
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
    csr_merge,
    isin_sorted,
    shifted,
    sort_rows,
    sorted_unique,
    spliced,
)
from .graph import KnowledgeGraph


class TraversalCounters:
    """The topology memo's counters, shared by every component on one graph.

    One instance lives on the graph (``graph._topology_counters``) so the
    search engine, the recommendation engine and the facade all report
    the same numbers.  :func:`traversal_stats` freezes it into the typed
    :class:`~repro.stats.TraversalStats` record.
    """

    __slots__ = ("cache_hits", "rebuilds")

    def __init__(self) -> None:
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
    #: later epoch derives its CSR and type tables from an earlier one's
    #: over; past it the full sort is the cheaper pass.  The measured
    #: crossover of a burst of new entities is about 4 % of a 5k-entity
    #: graph's triples and 6–7 % at 20k when their ids move every old
    #: ordinal, 6 % and 8 % when they sort after the old ones.
    max_delta_fraction: float = 0.04

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
        anchor_features: np.ndarray | None = None,
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
        if anchor_features is None:
            anchor_features = np.searchsorted(
                feature_codes, np.arange(self.num_entities + 1, dtype=np.int64) * 2 * len(predicates)
            )
        #: Per entity (and one past the last), its first anchored feature.
        self.anchor_features = anchor_features
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
        :attr:`max_delta_fraction`, the CSR is derived from it instead
        (:meth:`_derived`).
        """
        columns = log.epoch(triples)
        older = None if previous is None else previous._columns
        if older is not None and cls.derives(older.triples, triples):
            assert previous is not None
            return cls._derived(previous, older, columns, epoch)
        num_entities, num_predicates = len(columns.entity_ids), len(columns.predicates)
        codes, holders = _coded(*columns.edge_rows(), num_predicates)
        codes, holders = sort_rows((2 * num_entities * num_predicates, num_entities), codes, holders)
        starts = np.flatnonzero(np.diff(codes, prepend=-1))
        return cls(
            epoch, columns.entity_ids, columns.predicates,
            codes[starts], np.append(starts, codes.size), holders,
            ordinal_of=columns.ordinal_of, columns=columns,
        )

    @classmethod
    def _derived(
        cls,
        previous: "GraphTopology",
        older: EpochColumns,
        columns: EpochColumns,
        epoch: int,
    ) -> "GraphTopology":
        """The CSR of ``columns`` from ``previous``, the one of ``older``: copies plus the delta.

        Entity ordinals only move up, by one per new entity sorting before
        them (cuts at ``inserted - arange``).  While the predicate count
        ``P`` holds, a code moves with its anchor, so the old codes move
        by one slice add of ``2P`` per cut from the cut's first anchored
        feature on, and the holders through the old → new map; when every
        new entity sorts after the old ones nothing moves and both are
        reused as they are.  A write that adds a predicate re-codes every
        code through the old → new maps (codes order as ``(anchor,
        predicate, direction)`` triples, so they stay sorted).  The codes
        of the edges logged since that the CSR lacks are spliced in, with
        empty holder rows, and the new holder entries merged into their
        rows (:func:`~repro.kg.columns.csr_merge`).  Each entity's first
        anchored feature is the old one, spliced for the new entities and
        shifted by the new codes anchored before it.  Nothing of
        ``previous`` is written.
        """
        num_entities, num_predicates = len(columns.entity_ids), len(columns.predicates)
        span = 2 * num_predicates
        codes, holders = _coded(*columns.edge_rows(older.num_edges), num_predicates)
        moved = columns.inserted(older, "entities")
        cuts = moved - np.arange(moved.size, dtype=np.int64)
        old_codes, old_holders = previous.feature_codes, previous.holder_ordinals
        grown = num_predicates != len(previous.predicates)
        if grown or (cuts.size and int(cuts[0]) < previous.num_entities):
            entity_map, predicate_map = columns.ordinal_maps(older)
            old_holders = entity_map[old_holders]
        if not grown:
            old_codes = shifted(
                old_codes, previous.anchor_features[cuts], np.full(cuts.size, span, dtype=np.int64)
            )
        else:
            pairs, directions = np.divmod(old_codes, 2)
            anchors, old_preds = np.divmod(pairs, max(len(previous.predicates), 1))
            old_codes = (entity_map[anchors] * num_predicates + predicate_map[old_preds]) * 2 + directions
        distinct = sorted_unique(codes)
        fresh = distinct[~isin_sorted(old_codes, distinct)]
        at = np.searchsorted(old_codes, fresh)
        feature_codes = spliced(old_codes, at, fresh)
        offsets = spliced(previous.holder_offsets, at, previous.holder_offsets[at])
        offsets, (holder_ordinals,) = csr_merge(
            offsets, (old_holders,), (num_entities,), np.searchsorted(feature_codes, codes), holders
        )
        anchor_features = shifted(
            spliced(previous.anchor_features, cuts, previous.anchor_features[cuts]),
            fresh // max(span, 1) + 1,
            np.ones(fresh.size, dtype=np.int64),
        )
        return cls(
            epoch, columns.entity_ids, columns.predicates, feature_codes, offsets, holder_ordinals,
            ordinal_of=columns.ordinal_of, columns=columns, anchor_features=anchor_features,
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


def _coded(
    subjects: np.ndarray, predicates: np.ndarray, objects: np.ndarray, num_predicates: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(codes, holders)`` of edge rows: two holder rows per edge.

    ``s`` holds ``(o, p, 0)`` and ``o`` holds ``(s, p, 1)``.
    """
    codes = np.concatenate((
        (objects * num_predicates + predicates) * 2,
        (subjects * num_predicates + predicates) * 2 + 1,
    ))
    return codes, np.concatenate((subjects, objects))


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
    the first read after a cold start is a cache hit instead of an
    O(edges) sort.  Epoch-mismatched
    snapshots are ignored — the memo check would reject them anyway.
    """
    if topology.epoch == graph.epoch:
        graph._topology = topology  # type: ignore[attr-defined]


def traversal_stats(graph: KnowledgeGraph) -> TraversalStats:
    """Freeze the graph's traversal counters into the typed stats record."""
    counters = topology_counters(graph)
    return TraversalStats(cache_hits=counters.cache_hits, rebuilds=counters.rebuilds)

"""Columnar graph topology — per-epoch CSR adjacency + interval-encoded types.

PRs 6–8 vectorized both *scoring* hot paths, but expansion still walked
the knowledge graph edge-by-edge in Python: `bfs_reachable` /
`connecting_entities` pop one entity at a time, and
:meth:`~repro.expansion.expander.EntitySetExpander.expand` filters each
candidate with an ``entity_id in members`` set probe.  This module gives
the graph the same columnar treatment the postings and feature tables
got:

* an **entity ordinal table** assigned in sorted-``entity_id`` order (so
  ordinal comparisons reproduce string comparisons exactly, like the doc
  and feature ordinals do) with **outgoing and incoming CSR adjacency**
  (``out_offsets``/``out_targets`` + a parallel ``out_preds``
  predicate-ordinal column, rows sorted by ``(neighbour, predicate)``);
* an **interval encoding of the type universe** in the XPath-accelerator
  style: a containment forest derived from strict member-set inclusion
  (the parent of a type is its *smallest* strict superset) is walked
  depth-first assigning ``pre``/``post`` clocks, so "every type under
  ``T``" is the contiguous ``pre_order`` slice
  ``[pre_position[T], pre_position[T] + subtree_size[T])`` and "every
  entity under ``T``" is a range gather over the per-type sorted
  member-ordinal CSR.  Because a descendant's member set is contained in
  its ancestor's by construction, the subtree union equals the type's own
  member set — which is what keeps the interval filter byte-identical to
  the scalar ``entity_id in members`` probe;
* **frontier-at-a-time kernels**: level-synchronous
  :meth:`GraphTopology.bfs_reachable_ords` (gather both CSR directions
  for the whole frontier, ``np.unique``, mask the visited), sorted-array
  :meth:`GraphTopology.connecting_ords` (intersect the two one-hop
  neighbourhoods with ``searchsorted`` and join the deduped left
  predicate sets against the right edge multiset), and the
  ``searchsorted`` member intersect behind the expander's type
  restriction.

Instances are immutable and memoised per :attr:`KnowledgeGraph.epoch`
via :func:`graph_topology` (the graph-side sibling of
``columnar_tables``), which derives each epoch's adjacency from the
memoised previous epoch's; :class:`TraversalCounters` accumulates the shared
traversal telemetry surfaced as :class:`~repro.stats.TraversalStats`.
The array layout round-trips through the PR 9 segment codec as the
``"graph-topology"`` segment kind (:func:`repro.storage.codec.
encode_graph_topology`), so ``PivotE.save``/``load`` persist it to the
disk tier.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..stats import TraversalStats
from ..utils.ordinals import OrdinalMap
from .columns import EpochColumns, csr_gather, csr_merge, csr_offsets, sort_rows
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
        "interval_filters",
        "interval_hits",
        "cache_hits",
        "rebuilds",
    )

    def __init__(self) -> None:
        self.bfs_queries = 0
        self.connect_queries = 0
        self.frontier_entities = 0
        self.edges_touched = 0
        self.interval_filters = 0
        self.interval_hits = 0
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
        "type_ids",
        "type_ord",
        "type_offsets",
        "type_members",
        "type_parents",
        "type_pre",
        "type_post",
        "pre_order",
        "subtree_sizes",
        "_pre_positions",
        "_under",
        "_columns",
    )

    def __init__(
        self,
        epoch: int,
        entity_ids: list[str],
        predicates: list[str],
        type_ids: list[str],
        out_offsets: np.ndarray,
        out_targets: np.ndarray,
        out_preds: np.ndarray,
        in_offsets: np.ndarray,
        in_sources: np.ndarray,
        in_preds: np.ndarray,
        type_offsets: np.ndarray,
        type_members: np.ndarray,
        type_parents: np.ndarray,
        type_pre: np.ndarray,
        type_post: np.ndarray,
        pre_order: np.ndarray,
        subtree_sizes: np.ndarray,
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
        self.type_ids = type_ids
        self.type_ord = {type_id: ordinal for ordinal, type_id in enumerate(type_ids)}
        self.type_offsets = type_offsets
        self.type_members = type_members
        self.type_parents = type_parents
        self.type_pre = type_pre
        self.type_post = type_post
        self.pre_order = pre_order
        self.subtree_sizes = subtree_sizes
        # Inverse permutation of ``pre_order``: where each type ordinal
        # sits in the pre-order walk — the left edge of its interval.
        pre_positions = np.empty(len(type_ids), dtype=np.int64)
        if len(type_ids):
            pre_positions[pre_order] = np.arange(len(type_ids), dtype=np.int64)
        self._pre_positions = pre_positions
        self._under: dict[int, np.ndarray] = {}
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
        CSRs are derived from its rows instead (:meth:`_adjacency`); the
        type CSR, containment forest and interval encoding are
        recomputed either way (they are O(memberships) and O(types)).
        """
        with graph.lock:
            epoch = graph.epoch
            columns = graph.columns.epoch(len(graph))
        num_entities, num_types = len(columns.entity_ids), len(columns.type_ids)
        out_offsets, out_targets, out_preds, in_offsets, in_sources, in_preds = cls._adjacency(
            columns, previous
        )

        members, types = columns.typed_entities, columns.typed_types
        _, type_members = sort_rows((num_types, num_entities), types, members)
        type_offsets = csr_offsets(types, num_types)
        type_parents = cls._containment_forest(
            np.diff(type_offsets), csr_offsets(members, num_entities), types
        )
        type_pre, type_post, pre_order, subtree_sizes = cls._interval_encode(type_parents)

        topology = cls(
            epoch=epoch,
            entity_ids=columns.entity_ids,
            predicates=columns.predicates,
            type_ids=columns.type_ids,
            out_offsets=out_offsets,
            out_targets=out_targets,
            out_preds=out_preds,
            in_offsets=in_offsets,
            in_sources=in_sources,
            in_preds=in_preds,
            type_offsets=type_offsets,
            type_members=type_members,
            type_parents=type_parents,
            type_pre=type_pre,
            type_post=type_post,
            pre_order=pre_order,
            subtree_sizes=subtree_sizes,
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
        type_ids: list[str],
        out_offsets: np.ndarray,
        out_targets: np.ndarray,
        out_preds: np.ndarray,
        in_offsets: np.ndarray,
        in_sources: np.ndarray,
        in_preds: np.ndarray,
        type_offsets: np.ndarray,
        type_members: np.ndarray,
        type_parents: np.ndarray,
        type_pre: np.ndarray,
        type_post: np.ndarray,
        pre_order: np.ndarray,
        subtree_sizes: np.ndarray,
        ordinal_of: OrdinalMap | None = None,
    ) -> "GraphTopology":
        """Rebuild a topology from decoded segment arrays (``ordinal_of``:
        the entity map of a load's one dictionary)."""
        return cls(
            ordinal_of=ordinal_of,
            epoch=epoch,
            entity_ids=entity_ids,
            predicates=predicates,
            type_ids=type_ids,
            out_offsets=out_offsets,
            out_targets=out_targets,
            out_preds=out_preds,
            in_offsets=in_offsets,
            in_sources=in_sources,
            in_preds=in_preds,
            type_offsets=type_offsets,
            type_members=type_members,
            type_parents=type_parents,
            type_pre=type_pre,
            type_post=type_post,
            pre_order=pre_order,
            subtree_sizes=subtree_sizes,
        )

    @staticmethod
    def _containment_forest(
        type_sizes: np.ndarray, member_offsets: np.ndarray, member_types: np.ndarray
    ) -> np.ndarray:
        """Parent of each type: its smallest strict member-set superset.

        Ties break on type name (= ordinal); types with no strict
        superset (including equal-membership siblings) are forest roots
        (parent ``-1``).  ``member_offsets``/``member_types`` is the
        entity → sorted type ordinals CSR: crossing every entity's row
        with itself and counting equal pairs gives ``|E(a) ∩ E(b)|`` for
        all types that share a member, and ``a`` lies strictly inside
        ``b`` iff that count is ``|E(a)|`` and ``|E(b)|`` is larger.
        """
        num_types = int(type_sizes.size)
        parents = np.full(num_types, -1, dtype=np.int64)
        lengths = np.diff(member_offsets)
        rows = np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)
        pairs, shared = np.unique(
            np.repeat(member_types, lengths[rows]) * num_types
            + csr_gather(member_offsets, member_types, rows),
            return_counts=True,
        )
        inner, outer = pairs // max(num_types, 1), pairs % max(num_types, 1)
        strict = (shared == type_sizes[inner]) & (type_sizes[outer] > type_sizes[inner])
        inner, outer = inner[strict], outer[strict]
        order = np.lexsort((outer, type_sizes[outer], inner))
        inner, smallest = np.unique(inner[order], return_index=True)
        parents[inner] = outer[order][smallest]
        return parents

    @staticmethod
    def _interval_encode(parents: np.ndarray):
        """Pre/post-order clocks over the containment forest.

        A virtual root walks the forest roots in type-name order (the
        ordinals are name-sorted already), assigning each type a
        ``pre``/``post`` clock pair; ``u`` is under ``t`` iff
        ``pre[t] <= pre[u]`` and ``post[u] <= post[t]``.  The pre-order
        walk itself (``pre_order``) plus each subtree's node count turns
        that predicate into a contiguous slice.
        """
        count = int(parents.size)
        children: list[list[int]] = [[] for _ in range(count)]
        roots: list[int] = []
        for ordinal in range(count):
            parent = int(parents[ordinal])
            if parent < 0:
                roots.append(ordinal)
            else:
                children[parent].append(ordinal)
        pre = np.zeros(count, dtype=np.int64)
        post = np.zeros(count, dtype=np.int64)
        pre_order: list[int] = []
        positions = np.zeros(count, dtype=np.int64)
        sizes = np.zeros(count, dtype=np.int64)
        clock = 0
        stack: list[tuple[int, bool]] = [(root, False) for root in reversed(roots)]
        while stack:
            node, exiting = stack.pop()
            if exiting:
                post[node] = clock
                clock += 1
                sizes[node] = len(pre_order) - positions[node]
                continue
            pre[node] = clock
            clock += 1
            positions[node] = len(pre_order)
            pre_order.append(node)
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(children[node]))
        return pre, post, np.asarray(pre_order, dtype=np.int64), sizes

    # ------------------------------------------------------------------ #
    # Ordinal/string mapping
    # ------------------------------------------------------------------ #
    def ordinals_of(self, entity_ids: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized id→ordinal lookup: ``(ordinals, known_mask)``.

        Unknown identifiers get ordinal 0 with ``known_mask`` ``False``.
        """
        ordinals = self.ordinal_of.array(entity_ids, len(entity_ids))
        known = ordinals >= 0
        return np.where(known, ordinals, 0), known

    # ------------------------------------------------------------------ #
    # Interval-encoded type reachability
    # ------------------------------------------------------------------ #
    def types_under(self, type_ordinal: int) -> np.ndarray:
        """Type ordinals in the subtree rooted at ``type_ordinal`` (incl. self)."""
        position = int(self._pre_positions[type_ordinal])
        return self.pre_order[position : position + int(self.subtree_sizes[type_ordinal])]

    def entities_under(self, type_ordinal: int) -> np.ndarray:
        """Sorted member ordinals of the subtree under ``type_ordinal``.

        By the containment construction this equals the type's own member
        row — the interval union is how the range encoding answers the
        query without consulting member sets.  Memoised per type.
        """
        cached = self._under.get(type_ordinal)
        if cached is None:
            rows = csr_gather(self.type_offsets, self.type_members, self.types_under(type_ordinal))
            cached = np.unique(rows)
            self._under[type_ordinal] = cached
        return cached

    def entities_under_id(self, type_id: str) -> np.ndarray:
        """Like :meth:`entities_under`, by type identifier (empty if unknown)."""
        ordinal = self.type_ord.get(type_id)
        if ordinal is None:
            return np.zeros(0, dtype=np.int64)
        return self.entities_under(ordinal)

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
            neighbours = np.unique(neighbours)
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
        interval_filters=counters.interval_filters,
        interval_hits=counters.interval_hits,
        cache_hits=counters.cache_hits,
        rebuilds=counters.rebuilds,
    )

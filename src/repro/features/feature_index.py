"""A precomputed index of semantic features over the whole graph.

For large graphs, recomputing ``E(pi)`` and the features of every entity on
each query is wasteful.  :class:`SemanticFeatureIndex` keeps both
directions of the entity ↔ feature relation precomputed; it is also the
place where global feature statistics (frequencies, type-conditional
counts) used by the ranking model's smoothing live.

The index is *epoch-aware*, mirroring ``FieldedIndex`` on the search side:
it remembers the graph mutation epoch it was built at and transparently
refreshes when the graph has changed, so every accessor always reflects the
current graph.  :attr:`epoch` is the cache key the recommendation layer uses
to invalidate memoised scores and cached recommendations.

An epoch's state is an immutable :class:`FeatureIndexSnapshot` that is
*replaced atomically* on refresh instead of being patched in place: a
refresh derives the successor (under the graph's mutation lock, so it
folds a consistent graph state) and swaps one reference.  Readers — and
the ranking layer's :class:`~repro.ranking.ranking_support.RankingSupport`,
which pins a snapshot for a whole query — therefore never observe a
half-applied refresh while mutations proceed: this is the feature-side
half of the engines' snapshot-isolated serving contract.

A snapshot *is* its epoch's
:class:`~repro.features.columnar.ColumnarFeatureTables`: the graph's
memoised edge CSR of the epoch (:func:`~repro.kg.topology.graph_topology`)
plus its type tables.  A build sorts the CSR out of the graph's column
log, a load decodes it from a saved segment, and a refresh derives it
and the type tables from the previous epoch's and the triples appended
since (the log is append-only) — falling back to the full sort when the
delta outgrows
:attr:`GraphTopology.max_delta_fraction` of the graph.  Point lookups
decode just the row they ask for into the frozensets callers see.
:func:`~repro.features.extraction.features_of_entity`, the per-entity
graph walk, is the oracle every form is checked against
(``tests/test_features_incremental.py``).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import Counter, defaultdict
from collections.abc import Iterable

import numpy as np

from ..index.fielded_index import next_index_uid
from ..kg import GraphTopology, KnowledgeGraph, graph_topology
from ..kg.columns import isin_sorted, sorted_unique
from .columnar import ColumnarFeatureTables
from .semantic_feature import Direction, SemanticFeature

#: Shared empty holder set returned for unknown features, so that misses on
#: the hot candidate-generation path never allocate a throwaway set.
_EMPTY_HOLDERS: frozenset[str] = frozenset()


class FeatureIndexSnapshot:
    """One graph epoch's features: its array tables, decoded per lookup.

    ``tables`` hold every holder row.  A point lookup decodes just the
    row it asks for into the frozenset it returns: an entity's features
    are its anchored rows in the epoch's edge CSR, mirrored
    (:meth:`~repro.kg.topology.GraphTopology.feature_rows`), a feature's
    holders its row of that CSR.  Nothing is memoised but the feature
    objects, so a reader pays for the rows its requests touch.

    Dominant types and the per-(feature, type) smoothing counts come from
    the tables' type tables too, so what a pinned reader derives is
    *fully* this epoch's, never a blend with a concurrent mutation's.
    """

    __slots__ = ("epoch", "triples", "columns", "_columnar", "_features", "_type_counts")

    def __init__(
        self, graph: KnowledgeGraph, tables: ColumnarFeatureTables, epoch: int, triples: int
    ) -> None:
        self.epoch = epoch
        self.triples = triples
        #: The graph's edge-column log; this snapshot's epoch is its prefix
        #: of ``triples`` triples.
        self.columns = graph.columns
        self._columnar = tables
        #: ``feature ordinal → feature`` for every feature met so far.
        self._features: dict[int, SemanticFeature] = {}
        #: Memoised ``(||E(pi) ∩ E(c)||, ||E(c)||)`` pairs for this epoch.
        self._type_counts: dict[tuple[SemanticFeature, str], tuple[int, int]] = {}

    @property
    def tables(self) -> ColumnarFeatureTables:
        """This epoch's array tables."""
        return self._columnar

    def _feature(self, ordinal: int) -> SemanticFeature:
        feature = self._features.get(ordinal)
        if feature is None:
            anchor, predicate, direction = self._columnar.feature_key(ordinal)
            feature = self._features[ordinal] = SemanticFeature(
                anchor, predicate, Direction(direction)
            )
        return feature

    def features_of(self, entity_id: str) -> frozenset[SemanticFeature]:
        """Features held by an entity (empty set for unknown entities)."""
        tables = self._columnar
        ordinal = tables.ordinal_of.get(entity_id)
        if ordinal is None:
            return _EMPTY_HOLDERS  # type: ignore[return-value]
        (row,) = tables.topology.feature_rows([ordinal])
        return frozenset(map(self._feature, row.tolist()))

    def holders_of(self, feature: SemanticFeature) -> frozenset[str]:
        """``E(pi)`` in this epoch (a shared empty set for an unknown feature)."""
        tables = self._columnar
        ordinal = int(tables.feature_ordinals([feature.key])[0])
        if ordinal < 0:
            return _EMPTY_HOLDERS
        return frozenset(map(tables.entity_ids.__getitem__, tables.holders(ordinal).tolist()))

    def holds(self, entity_id: str, feature: SemanticFeature) -> bool:
        """``e |= pi`` in this epoch: a search of the feature's holder row."""
        tables = self._columnar
        entity = tables.ordinal_of.get(entity_id)
        if entity is None:
            return False
        holders = tables.holders(int(tables.feature_ordinals([feature.key])[0]))
        return bool(isin_sorted(holders, np.array([entity]))[0])

    def dominant_type(self, entity_id: str) -> str:
        """``c*(e)`` in this epoch (empty string if untyped or unknown).

        Same selection rule as :meth:`KnowledgeGraph.dominant_type` —
        the least-populated (most specific) type, ties by name — read
        off the tables' dominant-type column, so a query pinned here
        never sees a concurrent mutation's type assignments.
        """
        tables = self._columnar
        ordinal = tables.ordinal_of.get(entity_id)
        dominant = -1 if ordinal is None else int(tables.dominant_ords[ordinal])
        return "" if dominant < 0 else tables.type_ids[dominant]

    def type_conditional_count(self, feature: SemanticFeature, type_id: str) -> tuple[int, int]:
        """``(||E(pi) ∩ E(c)||, ||E(c)||)`` for the type-based smoothing.

        Memoised per snapshot and counted off this epoch's tables (the
        feature's holder row against the membership CSR), so a pinned
        reader's smoothing never blends two epochs.
        """
        key = (feature, type_id)
        cached = self._type_counts.get(key)
        if cached is not None:
            return cached
        tables = self._columnar
        type_ids = tables.type_ids
        position = bisect_left(type_ids, type_id)
        if position == len(type_ids) or type_ids[position] != type_id:
            counts = (0, 0)
        else:
            (row,) = tables.intersections(
                tables.feature_ordinals([feature.key]), np.array([position], dtype=np.int64)
            )
            counts = (int(row[0]), int(tables.type_populations[position]))
        self._type_counts[key] = counts
        return counts


class SemanticFeatureIndex:
    """Bidirectional map between entities and their semantic features."""

    def __init__(self, graph: KnowledgeGraph) -> None:
        self._graph = graph
        #: Process-unique instance id: ``(uid, epoch)`` tags this index's
        #: saved feature-table segments.
        self._uid = next_index_uid()
        self._snapshot_ref: FeatureIndexSnapshot | None = None
        #: Serialises refreshes: concurrent readers that both notice a
        #: stale snapshot build the successor once, not twice.
        self._refresh_lock = threading.Lock()
        self._full_rebuilds = 0
        self._delta_rebuilds = 0
        self._delta_entities = 0

    @classmethod
    def build(cls, graph: KnowledgeGraph) -> "SemanticFeatureIndex":
        """Sort the index of the graph's current epoch out of its column log."""
        index = cls(graph)
        index.rebuild()
        return index

    @classmethod
    def restore(
        cls,
        graph: KnowledgeGraph,
        snapshot: FeatureIndexSnapshot,
    ) -> "SemanticFeatureIndex":
        """Adopt a pre-materialised snapshot instead of rebuilding.

        The durable-storage cold-start path: a snapshot deserialised from
        disk (see :mod:`repro.storage.kgstore`) is installed directly,
        skipping the sort.  The snapshot
        must reflect the graph's current epoch — anything else would
        immediately trigger the refresh this constructor exists to avoid,
        and signals a snapshot/graph mismatch.
        """
        if snapshot.epoch != graph.epoch or snapshot.triples != len(graph):
            raise ValueError(
                f"snapshot reflects epoch {snapshot.epoch} "
                f"({snapshot.triples} triples), graph is at epoch "
                f"{graph.epoch} ({len(graph)} triples)"
            )
        index = cls(graph)
        index._snapshot_ref = snapshot
        return index

    def _make_snapshot(self, previous: FeatureIndexSnapshot | None = None) -> FeatureIndexSnapshot:
        """The snapshot of the graph's current epoch (graph lock held).

        Its tables are the graph's memoised topology of the epoch
        (:func:`~repro.kg.topology.graph_topology`, which derives it from
        the previous epoch's when the delta is small) plus the epoch's
        type tables, derived from ``previous``'s when given.
        """
        graph = self._graph
        tables = ColumnarFeatureTables.from_topology(
            graph_topology(graph), None if previous is None else previous.tables
        )
        return FeatureIndexSnapshot(graph, tables, graph.epoch, len(graph))

    def _full_snapshot(self) -> FeatureIndexSnapshot:
        """Sort the whole index out of the graph's current contents."""
        self._full_rebuilds += 1
        return self._make_snapshot()

    def _delta_snapshot(self, old: FeatureIndexSnapshot) -> FeatureIndexSnapshot:
        """The successor snapshot, its holder CSR derived from the last epoch's.

        The triple log is append-only, so the successor's holder CSR is
        the previous one with the rows of the edges logged since merged in.
        The entities the delta affects — the endpoints of those edges
        and the entities new in this epoch (whose codes in the log's
        first-seen entity table follow the old epoch's) — are counted
        from the new epoch's columns.
        """
        fresh = self._make_snapshot(old)
        columns = fresh.tables.topology._columns
        assert columns is not None
        subjects, _, objects = columns.edge_rows(old.tables.holder_ordinals.size // 2)
        affected = sorted_unique(
            np.concatenate((columns.entity_rank[old.tables.num_entities :], subjects, objects))
        )
        self._delta_rebuilds += 1
        self._delta_entities += int(affected.size)
        return fresh

    def rebuild(self) -> None:
        """Recompute the whole index from the graph's current contents."""
        with self._refresh_lock, self._graph.lock:
            self._snapshot_ref = self._full_snapshot()

    def snapshot(self) -> FeatureIndexSnapshot:
        """The current (refreshed-if-stale) snapshot, safe to pin.

        The returned object never changes after publication; queries that
        must see one consistent epoch end to end (the ranking layer's
        scoring support) hold on to it while mutations advance the index.
        """
        snapshot = self._snapshot_ref
        if snapshot is not None and snapshot.epoch == self._graph.epoch:
            return snapshot
        with self._refresh_lock:
            # Double-check under the refresh lock: a concurrent reader may
            # have refreshed while this one waited.
            with self._graph.lock:
                snapshot = self._snapshot_ref
                if snapshot is not None and snapshot.epoch == self._graph.epoch:
                    return snapshot
                if snapshot is not None and GraphTopology.derives(snapshot.triples, len(self._graph)):
                    fresh = self._delta_snapshot(snapshot)
                else:
                    fresh = self._full_snapshot()
                self._snapshot_ref = fresh
                return fresh

    def rebuild_info(self) -> dict[str, int]:
        """Full-vs-delta refresh counters (``cache_info()`` convention)."""
        return {
            "full_rebuilds": self._full_rebuilds,
            "delta_rebuilds": self._delta_rebuilds,
            "delta_entities": self._delta_entities,
        }

    @property
    def epoch(self) -> int:
        """The graph mutation epoch this index reflects.

        Reading the property refreshes the index if the graph changed, so
        the returned value always matches the data subsequent lookups see.
        Derived caches (memoised probabilities, recommendation results) key
        on this value and are invalidated by any graph mutation.
        """
        return self.snapshot().epoch

    @property
    def uid(self) -> int:
        """Process-unique instance id (see :meth:`FieldedIndex.uid`).

        ``(uid, epoch)`` tags this index's saved feature-table segments.
        """
        return self._uid

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #
    def features_of(self, entity_id: str) -> frozenset[SemanticFeature]:
        """Features held by an entity (empty set for unknown entities)."""
        return self.snapshot().features_of(entity_id)

    def holders_of(self, feature: SemanticFeature) -> frozenset[str]:
        """``E(pi)`` as a ``frozenset`` decoded from the current snapshot's
        holder row; unknown features return a shared empty set (no
        allocation)."""
        return self.snapshot().holders_of(feature)

    def entities_matching(self, feature: SemanticFeature) -> set[str]:
        """``E(pi)`` as an independent copy (safe for callers to mutate)."""
        return set(self.holders_of(feature))

    def matching_count(self, feature: SemanticFeature) -> int:
        """``||E(pi)||`` without copying the entity set."""
        return len(self.holders_of(feature))

    def holds(self, entity_id: str, feature: SemanticFeature) -> bool:
        """``e |= pi`` from the materialised index."""
        return self.snapshot().holds(entity_id, feature)

    def all_features(self) -> list[SemanticFeature]:
        """Every distinct semantic feature in the graph, sorted.

        Read off the tables' feature keys, which are in feature order;
        no holder row is decoded.
        """
        return [
            SemanticFeature(anchor, predicate, Direction(direction))
            for anchor, predicate, direction in self.snapshot().tables.feature_keys()
        ]

    def num_features(self) -> int:
        return self.snapshot().tables.num_features

    # ------------------------------------------------------------------ #
    # Aggregations used by ranking
    # ------------------------------------------------------------------ #
    def features_of_any(self, entity_ids: Iterable[str]) -> dict[SemanticFeature, set[str]]:
        """Features held by any of the entities, with their holders."""
        snapshot = self.snapshot()
        holders: dict[SemanticFeature, set[str]] = defaultdict(set)
        for entity_id in entity_ids:
            for feature in snapshot.features_of(entity_id):
                holders[feature].add(entity_id)
        return dict(holders)

    def candidates_matching_any(
        self,
        features: Iterable[SemanticFeature] | np.ndarray,
        exclude: Iterable[str] | np.ndarray = (),
        limit: int | None = None,
        tables: "ColumnarFeatureTables | None" = None,
    ) -> list[str] | np.ndarray:
        """Entities matching any feature, ordered by how many they match.

        Index-backed equivalent of
        :func:`repro.features.extraction.candidate_entities`: same ordering
        (most shared features first, then identifier), but walking the
        materialised no-copy holder lists instead of per-feature graph
        queries.

        With ``tables`` — the array tables of the snapshot a request
        pinned — ``features`` and ``exclude`` are feature and entity
        ordinals of those tables and so is the result
        (:meth:`ColumnarFeatureTables.matching_any`): the form the
        recommendation path calls, which never makes an identifier.
        """
        if tables is not None:
            return tables.matching_any(features, exclude, limit)
        snapshot = self.snapshot()
        excluded = set(exclude)
        counts: Counter[str] = Counter()
        for feature in features:
            for entity_id in snapshot.holders_of(feature):
                if entity_id not in excluded:
                    counts[entity_id] += 1
        ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        if limit is not None:
            ranked = ranked[:limit]
        return [entity_id for entity_id, _ in ranked]

    def type_conditional_count(self, feature: SemanticFeature, type_id: str) -> tuple[int, int]:
        """``(||E(pi) ∩ E(c)||, ||E(c)||)`` for the type-based smoothing.

        ``E(c)`` is the set of instances of ``type_id``.  Pairs are memoised
        per snapshot (successor snapshots start fresh), so the ranking
        layer's repeated smoothing lookups cost a dictionary hit.
        """
        return self.snapshot().type_conditional_count(feature, type_id)

    def shared_features(self, left: str, right: str) -> frozenset[SemanticFeature]:
        """Features held by both entities — the explanation evidence."""
        snapshot = self.snapshot()
        return snapshot.features_of(left) & snapshot.features_of(right)

    def feature_frequency_histogram(self) -> dict[int, int]:
        """Histogram of ``||E(pi)||`` values, for dataset reporting.

        Counted over the tables' holder-row lengths; no row is decoded.
        """
        sizes, counts = np.unique(
            np.diff(self.snapshot().tables.holder_offsets), return_counts=True
        )
        return dict(zip(sizes.tolist(), counts.tolist()))

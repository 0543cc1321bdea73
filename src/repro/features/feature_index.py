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
:class:`~repro.features.columnar.ColumnarFeatureTables`: a build sorts
them out of the graph's column log, a load decodes them from a saved
segment, and a refresh derives them from the previous snapshot's tables
and the triples appended since (the log is append-only) — falling back
to the full sort when the delta outgrows
:attr:`SemanticFeatureIndex.max_delta_fraction` of the graph.  Point
lookups decode just the row they ask for into the frozensets callers
see.  :func:`~repro.features.extraction.features_of_entity`, the
per-entity graph walk, is the oracle every form is checked against
(``tests/test_features_incremental.py``).
"""

from __future__ import annotations

import logging
import threading
from bisect import bisect_left
from collections import Counter, defaultdict
from collections.abc import Iterable
from time import perf_counter

import numpy as np

from ..index.fielded_index import next_index_uid
from ..kg import KnowledgeGraph, memoised_topology
from ..kg.columns import sorted_unique
from ..utils import gc_paused
from .columnar import ColumnarFeatureTables
from .semantic_feature import Direction, SemanticFeature

_LOG = logging.getLogger("repro")

#: Shared empty holder set returned for unknown features, so that misses on
#: the hot candidate-generation path never allocate a throwaway set.
_EMPTY_HOLDERS: frozenset[str] = frozenset()


class FeatureIndexSnapshot:
    """One graph epoch's features: its array tables, decoded on demand.

    ``tables`` hold every holder row.  The two lookup maps start empty; a
    point lookup that misses decodes just its row into the frozenset it
    returns and memoises it, so a hit costs a dictionary lookup and a
    reader pays for the rows its requests touch, not for all of them.
    An entity's features are its adjacency rows in this epoch's
    :class:`~repro.kg.topology.GraphTopology` when the graph has one at
    hand, and the tables' holder CSR turned around otherwise
    (:meth:`ColumnarFeatureTables.feature_rows`).  :meth:`maps` decodes
    what is left.

    Dominant types and the per-(feature, type) smoothing counts come from
    the tables' type tables too, so what a pinned reader derives is
    *fully* this epoch's, never a blend with a concurrent mutation's.
    """

    __slots__ = (
        "epoch",
        "triples",
        "columns",
        "decoded_rows",
        "_graph",
        "_columnar",
        "_entity_features",
        "_feature_entities",
        "_features",
        "_type_counts",
        "_complete",
    )

    def __init__(
        self, graph: KnowledgeGraph, tables: ColumnarFeatureTables, epoch: int, triples: int
    ) -> None:
        if tables.entity_ids is None or tables.type_ids is None:
            raise ValueError("a snapshot needs tables that carry entity and type ids")
        self.epoch = epoch
        self.triples = triples
        #: The graph's edge-column log; this snapshot's epoch is its prefix
        #: of ``triples`` triples.
        self.columns = graph.columns
        #: Rows decoded so far, either direction (telemetry).
        self.decoded_rows = 0
        self._graph = graph
        self._columnar = tables
        self._entity_features: dict[str, frozenset[SemanticFeature]] = {}
        self._feature_entities: dict[SemanticFeature, frozenset[str]] = {}
        #: ``feature ordinal → feature`` for every feature met so far.
        self._features: dict[int, SemanticFeature] = {}
        #: Memoised ``(||E(pi) ∩ E(c)||, ||E(c)||)`` pairs for this epoch.
        self._type_counts: dict[tuple[SemanticFeature, str], tuple[int, int]] = {}
        #: Set once :meth:`maps` has decoded every row: a miss is then absent.
        self._complete = False

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

    def _decode_features(self, entity_id: str) -> frozenset[SemanticFeature]:
        """``features_of`` for an entity no lookup has asked about yet."""
        tables = self._columnar
        ordinal = tables.ordinal_of.get(entity_id)
        if ordinal is None or self._complete:
            return _EMPTY_HOLDERS  # type: ignore[return-value]
        (row,) = tables.feature_rows([ordinal], memoised_topology(self._graph))
        features = frozenset(map(self._feature, row.tolist()))
        self._entity_features[entity_id] = features
        self.decoded_rows += 1
        return features

    def _decode_holders(self, feature: SemanticFeature) -> frozenset[str]:
        """``holders_of`` for a feature no lookup has asked about yet."""
        if self._complete:
            return _EMPTY_HOLDERS
        ordinal = int(self._columnar.feature_ordinals([feature.key])[0])
        return _EMPTY_HOLDERS if ordinal < 0 else self._decode_row(feature, ordinal)

    def _decode_row(self, feature: SemanticFeature, ordinal: int) -> frozenset[str]:
        tables = self._columnar
        holders = frozenset(map(tables.entity_ids.__getitem__, tables.holders(ordinal).tolist()))
        self._feature_entities[feature] = holders
        self.decoded_rows += 1
        return holders

    def features_of(self, entity_id: str) -> frozenset[SemanticFeature]:
        """Features held by an entity (empty set for unknown entities)."""
        features = self._entity_features.get(entity_id)
        return self._decode_features(entity_id) if features is None else features

    def holders_of(self, feature: SemanticFeature) -> frozenset[str]:
        """``E(pi)`` without copying — the snapshot's holder set, read-only."""
        holders = self._feature_entities.get(feature)
        return self._decode_holders(feature) if holders is None else holders

    def holds(self, entity_id: str, feature: SemanticFeature) -> bool:
        """``e |= pi`` in this epoch."""
        return feature in self.features_of(entity_id)

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

    def maps(
        self,
    ) -> tuple[dict[str, frozenset[SemanticFeature]], dict[SemanticFeature, frozenset[str]]]:
        """``(entity → features, feature → holders)``, whole.

        Decodes every row not asked for yet, for callers that compare
        whole maps (the tests' oracle checks); no request, refresh or
        report calls it.  Allocates only long-lived frozensets, so the cyclic
        collector is paused.
        """
        if not self._complete:
            started = perf_counter()
            before = self.decoded_rows
            tables = self._columnar
            with gc_paused():
                for entity_id in tables.entity_ids:
                    self.features_of(entity_id)
                decoded = self._feature_entities
                for ordinal in range(tables.num_features):
                    feature = self._feature(ordinal)
                    if feature not in decoded:
                        self._decode_row(feature, ordinal)
            self._complete = True
            self._features = {}
            _LOG.info(
                "feature snapshot of epoch %d: remaining %d rows decoded in %.1f ms",
                self.epoch, self.decoded_rows - before, (perf_counter() - started) * 1000.0,
            )
        return self._entity_features, self._feature_entities


class SemanticFeatureIndex:
    """Bidirectional map between entities and their semantic features."""

    #: Largest triple delta, as a fraction of the graph's total triples,
    #: the incremental refresh will apply before falling back to a full
    #: rebuild (mutate-heavy sessions with small deltas stay cheap, bulk
    #: loads take the better-constant full pass).
    max_delta_fraction: float = 0.2

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
        #: Rows that snapshots since replaced had decoded.
        self._retired_rows = 0

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

    def _make_snapshot(self, previous: ColumnarFeatureTables | None = None) -> FeatureIndexSnapshot:
        """The snapshot of the graph's current epoch (graph lock held).

        Its tables are sorted out of the column log, or derived from
        ``previous`` — an earlier epoch's tables — and the rows logged
        since (:meth:`ColumnarFeatureTables.from_log`).
        """
        graph = self._graph
        epoch, triples = graph.epoch, len(graph)
        tables = ColumnarFeatureTables.from_log(graph.columns, triples, epoch, previous)
        return FeatureIndexSnapshot(graph, tables, epoch, triples)

    def _full_snapshot(self) -> FeatureIndexSnapshot:
        """Sort the whole index out of the graph's current contents."""
        self._full_rebuilds += 1
        return self._make_snapshot()

    def _delta_snapshot(self, old: FeatureIndexSnapshot) -> FeatureIndexSnapshot:
        """The successor snapshot, its tables derived from ``old``'s.

        The triple log is append-only, so the successor's holder CSR is
        the old one with the rows of the edges logged since merged in.
        The entities the delta affects — the endpoints of those edges
        and the entities new in this epoch (whose codes in the log's
        first-seen entity table follow the old epoch's) — are counted
        from the new epoch's columns.
        """
        fresh = self._make_snapshot(old.tables)
        columns = fresh.tables._columns
        assert columns is not None
        old_edges = old.tables.holder_ordinals.size // 2  # two holder rows per edge
        affected = sorted_unique(
            np.concatenate((
                columns.entity_rank[old.tables.num_entities :],
                columns.edge_subjects[old_edges:],
                columns.edge_objects[old_edges:],
            ))
        )
        self._delta_rebuilds += 1
        self._delta_entities += int(affected.size)
        return fresh

    def rebuild(self) -> None:
        """Recompute the whole index from the graph's current contents."""
        with self._refresh_lock, self._graph.lock:
            self._install(self._full_snapshot())

    def _install(self, fresh: FeatureIndexSnapshot) -> None:
        old = self._snapshot_ref
        if old is not None:
            self._retired_rows += old.decoded_rows
        self._snapshot_ref = fresh

    def decoded_rows(self) -> int:
        """Holder/feature rows the snapshots of this index have decoded.

        Counts a replaced snapshot's rows up to its replacement; reads
        the current snapshot without refreshing it.
        """
        snapshot = self._snapshot_ref
        return self._retired_rows + (0 if snapshot is None else snapshot.decoded_rows)

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
                if snapshot is None:
                    fresh = self._full_snapshot()
                else:
                    total = len(self._graph)
                    delta = total - snapshot.triples
                    if 0 <= delta <= self.max_delta_fraction * max(total, 1):
                        fresh = self._delta_snapshot(snapshot)
                    else:
                        fresh = self._full_snapshot()
                self._install(fresh)
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
        """``E(pi)`` without copying — the internal holder set, read-only.

        This is the no-copy accessor the ranking layer's accumulator
        traversal walks term-at-a-time.  Since PR 5 the returned set is a
        ``frozenset`` shared with the current snapshot (mutations publish
        a successor snapshot instead of patching it).  Unknown features
        return a shared empty set (no allocation).
        """
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

"""A precomputed index of semantic features over the whole graph.

For large graphs, recomputing ``E(pi)`` and the features of every entity on
each query is wasteful.  :class:`SemanticFeatureIndex` materialises both maps
once; it is also the place where global feature statistics (frequencies,
type-conditional counts) used by the ranking model's smoothing live.

The index is *epoch-aware*, mirroring ``FieldedIndex`` on the search side:
it remembers the graph mutation epoch it was built at and transparently
refreshes when the graph has changed, so every accessor always reflects the
current graph.  :attr:`epoch` is the cache key the recommendation layer uses
to invalidate memoised scores and cached recommendations.

Since PR 5 the materialised maps live in an immutable
:class:`FeatureIndexSnapshot` that is *replaced atomically* on refresh
instead of being patched in place: a refresh derives the successor (from
the old snapshot plus the triple delta, under the graph's mutation lock so
it folds a consistent graph state) and swaps one reference.  Readers — and
the ranking layer's :class:`~repro.ranking.ranking_support.RankingSupport`,
which pins a snapshot for a whole query — therefore never observe a
half-applied refresh while mutations proceed: this is the feature-side
half of the engines' snapshot-isolated serving contract.

Refreshing is *incremental*: the graph's triple log is append-only, so the
snapshot remembers how many triples it reflects and the successor applies
only the delta — recomputing the features of the entities the new triples
touch — falling back to a full rebuild when the delta outgrows
:attr:`SemanticFeatureIndex.max_delta_fraction` of the graph (a large
delta touches most entities anyway, and the full pass has better
constants).  A delta-applied snapshot is *equal* to a freshly built one by
construction, enforced by ``tests/test_features_incremental.py``.
"""

from __future__ import annotations

import logging
import threading
from collections import Counter, defaultdict
from collections.abc import Iterable
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from ..index.fielded_index import next_index_uid
from ..kg import DISAMBIGUATES, KnowledgeGraph, REDIRECT, STRUCTURAL_PREDICATES, Triple
from ..utils import gc_paused
from .extraction import features_of_entity
from .semantic_feature import Direction, SemanticFeature

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .columnar import ColumnarFeatureTables

_LOG = logging.getLogger("repro")

#: Shared empty holder set returned for unknown features, so that misses on
#: the hot candidate-generation path never allocate a throwaway set.
_EMPTY_HOLDERS: frozenset[str] = frozenset()


class FeatureIndexSnapshot:
    """The materialised maps of one graph epoch, immutable once published.

    Holder sets are shared structurally between successive snapshots
    (copy-on-write: a delta refresh only replaces the sets of affected
    features), so pinning a snapshot is O(1) and holding one costs no
    copies.  The graph's type tables are pinned alongside
    (:meth:`KnowledgeGraph.type_tables` — outer copies of immutable
    inner sets), so dominant types and the per-(feature, type) smoothing
    counts a pinned reader derives are *fully* this epoch's values, never
    a blend with a concurrent mutation's.
    """

    __slots__ = (
        "entity_features",
        "feature_entities",
        "entity_types",
        "type_members",
        "epoch",
        "triples",
        "columns",
        "_type_counts",
        "_columnar",
        "_previous",
    )

    def __init__(
        self,
        graph: KnowledgeGraph,
        entity_features: dict[str, frozenset[SemanticFeature]],
        feature_entities: dict[SemanticFeature, frozenset[str]],
        epoch: int,
        triples: int,
    ) -> None:
        self.entity_features = entity_features
        self.feature_entities = feature_entities
        #: Pinned ``entity → types`` / ``type → members`` tables of this
        #: epoch (the constructor runs under the graph's lock).
        self.entity_types, self.type_members = graph.type_tables()
        self.epoch = epoch
        self.triples = triples
        #: The graph's edge-column log; this snapshot's epoch is its prefix
        #: of ``triples`` triples, which the array tables are sorted from.
        self.columns = graph.columns
        #: Memoised ``(||E(pi) ∩ E(c)||, ||E(c)||)`` pairs for this epoch.
        self._type_counts: dict[tuple[SemanticFeature, str], tuple[int, int]] = {}
        #: Lazily built per-epoch array tables
        #: (:func:`repro.features.columnar.columnar_tables`).
        self._columnar = None
        #: An earlier epoch's tables to derive ``_columnar`` from (set by
        #: a delta refresh, dropped once the tables are built).
        self._previous = None

    def maps(
        self,
    ) -> tuple[dict[str, frozenset[SemanticFeature]], dict[SemanticFeature, frozenset[str]]]:
        """``(entity → features, feature → holders)``, whole.

        For callers that iterate, count or copy the maps; point lookups
        go through :meth:`features_of` / :meth:`holders_of`.
        """
        return self.entity_features, self.feature_entities

    def features_of(self, entity_id: str) -> frozenset[SemanticFeature]:
        """Features held by an entity (empty set for unknown entities)."""
        return self.entity_features.get(entity_id, _EMPTY_HOLDERS)  # type: ignore[return-value]

    def holders_of(self, feature: SemanticFeature) -> frozenset[str]:
        """``E(pi)`` without copying — the snapshot's holder set, read-only."""
        return self.feature_entities.get(feature, _EMPTY_HOLDERS)

    def holds(self, entity_id: str, feature: SemanticFeature) -> bool:
        """``e |= pi`` from the materialised snapshot."""
        return feature in self.entity_features.get(entity_id, _EMPTY_HOLDERS)

    def dominant_type(self, entity_id: str) -> str:
        """``c*(e)`` from the pinned type tables (empty string if untyped).

        Same selection rule as :meth:`KnowledgeGraph.dominant_type` —
        the least-populated (most specific) type, ties by name — but
        evaluated against this snapshot's epoch, so a query pinned here
        never sees a concurrent mutation's type assignments.
        """
        entity_types = self.entity_types.get(entity_id)
        if not entity_types:
            return ""
        members = self.type_members
        return min(entity_types, key=lambda t: (len(members.get(t, ())), t))

    def type_conditional_count(self, feature: SemanticFeature, type_id: str) -> tuple[int, int]:
        """``(||E(pi) ∩ E(c)||, ||E(c)||)`` for the type-based smoothing.

        Memoised per snapshot and computed entirely from pinned state
        (this epoch's holder sets against this epoch's type members), so
        a pinned reader's smoothing never blends two epochs.
        """
        key = (feature, type_id)
        cached = self._type_counts.get(key)
        if cached is not None:
            return cached
        type_members = self.type_members.get(type_id)
        if not type_members:
            counts = (0, 0)
        else:
            matching = self.feature_entities.get(feature, _EMPTY_HOLDERS)
            counts = (len(matching & type_members), len(type_members))
        self._type_counts[key] = counts
        return counts


class RestoredFeatureSnapshot(FeatureIndexSnapshot):
    """A snapshot adopted from array tables instead of materialised maps.

    ``tables`` (decoded from a ``feature-tables`` segment, or sorted out
    of the column log) hold every holder row; the two maps start empty
    and a point lookup that misses decodes just its row into the
    frozenset a built snapshot would hold there, and memoises it in the
    same dictionary — so a hit costs what it costs on a built snapshot,
    and a cold start pays for the rows its requests touch, not for all
    of them.  The entity → features direction is the tables' holder rows
    turned around (:meth:`ColumnarFeatureTables.held`), done once, on the
    first such miss.  :meth:`maps` decodes
    what is left; after it the snapshot differs from a built one only in
    how it got there.
    """

    __slots__ = ("decoded_rows", "_features", "_complete")

    def __init__(
        self, graph: KnowledgeGraph, tables: "ColumnarFeatureTables", epoch: int, triples: int
    ) -> None:
        if tables.entity_ids is None:
            raise ValueError("a snapshot can only be restored from tables that carry entity ids")
        super().__init__(graph, {}, {}, epoch, triples)
        self._columnar = tables
        #: Rows decoded so far, either direction (telemetry).
        self.decoded_rows = 0
        #: ``feature ordinal → feature`` for every feature met so far.
        self._features: dict[int, SemanticFeature] = {}
        self._complete = False

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
        (row,) = tables.feature_rows([ordinal])
        features = frozenset(map(self._feature, row.tolist()))
        self.entity_features[entity_id] = features
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
        self.feature_entities[feature] = holders
        self.decoded_rows += 1
        return holders

    def features_of(self, entity_id: str) -> frozenset[SemanticFeature]:
        features = self.entity_features.get(entity_id)
        return self._decode_features(entity_id) if features is None else features

    def holders_of(self, feature: SemanticFeature) -> frozenset[str]:
        holders = self.feature_entities.get(feature)
        return self._decode_holders(feature) if holders is None else holders

    def holds(self, entity_id: str, feature: SemanticFeature) -> bool:
        return feature in self.features_of(entity_id)

    def type_conditional_count(self, feature: SemanticFeature, type_id: str) -> tuple[int, int]:
        self.holders_of(feature)  # the inherited computation reads the map
        return super().type_conditional_count(feature, type_id)

    def maps(
        self,
    ) -> tuple[dict[str, frozenset[SemanticFeature]], dict[SemanticFeature, frozenset[str]]]:
        """Decode every row not asked for yet, then hand out the whole maps.

        The one place a restored snapshot walks all its features: the
        first write after a load (``_delta_snapshot`` copies the maps)
        and the dataset reports pay it, no exploration request does.
        Allocates only long-lived frozensets, so the cyclic collector is
        paused.
        """
        if not self._complete:
            started = perf_counter()
            before = self.decoded_rows
            tables = self._columnar
            with gc_paused():
                for entity_id in tables.entity_ids:
                    self.features_of(entity_id)
                decoded = self.feature_entities
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
        return self.entity_features, self.feature_entities


class SemanticFeatureIndex:
    """Bidirectional map between entities and their semantic features."""

    #: Largest triple delta, as a fraction of the graph's total triples,
    #: the incremental refresh will apply before falling back to a full
    #: rebuild (mutate-heavy sessions with small deltas stay cheap, bulk
    #: loads take the better-constant full pass).
    max_delta_fraction: float = 0.2

    def __init__(self, graph: KnowledgeGraph, max_delta_fraction: float | None = None) -> None:
        self._graph = graph
        if max_delta_fraction is not None:
            if not 0.0 <= max_delta_fraction <= 1.0:
                raise ValueError("max_delta_fraction must lie in [0, 1]")
            self.max_delta_fraction = max_delta_fraction
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
        #: Rows that restored snapshots since replaced had decoded.
        self._retired_rows = 0

    @classmethod
    def build(cls, graph: KnowledgeGraph) -> "SemanticFeatureIndex":
        """Materialise the index for every entity in the graph."""
        index = cls(graph)
        index.rebuild()
        return index

    @classmethod
    def restore(
        cls,
        graph: KnowledgeGraph,
        snapshot: FeatureIndexSnapshot,
        **kwargs: object,
    ) -> "SemanticFeatureIndex":
        """Adopt a pre-materialised snapshot instead of rebuilding.

        The durable-storage cold-start path: a snapshot deserialised from
        disk (see :mod:`repro.storage.kgstore`) is installed directly,
        skipping the per-entity feature extraction pass.  The snapshot
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
        index = cls(graph, **kwargs)  # type: ignore[arg-type]
        index._snapshot_ref = snapshot
        return index

    def _full_snapshot(self) -> FeatureIndexSnapshot:
        """Recompute the whole index from the graph's current contents."""
        entity_features: dict[str, frozenset[SemanticFeature]] = {}
        feature_entities: dict[SemanticFeature, set[str]] = defaultdict(set)
        for entity_id in self._graph.entities():
            features = frozenset(features_of_entity(self._graph, entity_id))
            entity_features[entity_id] = features
            for feature in features:
                feature_entities[feature].add(entity_id)
        self._full_rebuilds += 1
        return FeatureIndexSnapshot(
            self._graph,
            entity_features,
            {feature: frozenset(holders) for feature, holders in feature_entities.items()},
            self._graph.epoch,
            len(self._graph),
        )

    def rebuild(self) -> None:
        """Recompute the whole index from the graph's current contents."""
        with self._refresh_lock, self._graph.lock:
            self._install(self._full_snapshot())

    def _install(self, fresh: FeatureIndexSnapshot) -> None:
        old = self._snapshot_ref
        if old is not None:
            self._retired_rows += getattr(old, "decoded_rows", 0)
            # The successor derives its tables from the newest ones at hand,
            # however its maps were made.
            fresh._previous = old._columnar if old._columnar is not None else old._previous
        self._snapshot_ref = fresh

    def decoded_rows(self) -> int:
        """Holder/feature rows decoded on demand by restored snapshots so far.

        Reads the current snapshot without refreshing it.
        """
        return self._retired_rows + getattr(self._snapshot_ref, "decoded_rows", 0)

    def _delta_snapshot(
        self, old: FeatureIndexSnapshot, new_triples: Iterable[Triple]
    ) -> FeatureIndexSnapshot:
        """The successor snapshot with the appended triples folded in.

        Only object-property edges change an entity's semantic features
        (see :func:`repro.features.extraction.features_of_entity`);
        structural triples merely introduce entities that need an (empty)
        feature entry.  The affected entities' features are recomputed
        from the graph, and the holder sets of the features they gained
        or lost are replaced copy-on-write — one new set per touched
        feature, every untouched set shared with the old snapshot, so
        readers pinned to ``old`` keep exactly what they saw.  The triple
        log is append-only, so there is no remove side to the delta.
        """
        affected: set[str] = set()
        old_features, old_holders = old.maps()
        for triple in new_triples:
            subject, predicate = triple.subject, triple.predicate
            if triple.is_literal:
                if subject not in old_features:
                    affected.add(subject)
                continue
            if predicate not in STRUCTURAL_PREDICATES:
                # A genuine edge: both endpoints gain a feature.
                affected.add(subject)
                affected.add(triple.object)
                continue
            if subject not in old_features:
                affected.add(subject)
            if predicate in (REDIRECT, DISAMBIGUATES) and (
                triple.object not in old_features
            ):
                affected.add(triple.object)
        entity_features = dict(old_features)
        feature_entities = dict(old_holders)
        gained: dict[SemanticFeature, list[str]] = defaultdict(list)
        lost: dict[SemanticFeature, list[str]] = defaultdict(list)
        for entity_id in affected:
            before = entity_features.get(entity_id, _EMPTY_HOLDERS)
            after = frozenset(features_of_entity(self._graph, entity_id))
            if after != before:
                for feature in before - after:  # type: ignore[operator]
                    lost[feature].append(entity_id)
                for feature in after - before:
                    gained[feature].append(entity_id)
            entity_features[entity_id] = after
        # One copy-on-write replacement per touched feature, however many
        # affected entities share it.
        for feature in lost.keys() | gained.keys():
            holders = set(feature_entities.get(feature, _EMPTY_HOLDERS))
            holders.difference_update(lost.get(feature, ()))
            holders.update(gained.get(feature, ()))
            if holders:
                feature_entities[feature] = frozenset(holders)
            else:
                feature_entities.pop(feature, None)
        self._delta_rebuilds += 1
        self._delta_entities += len(affected)
        return FeatureIndexSnapshot(
            self._graph,
            entity_features,
            feature_entities,
            self._graph.epoch,
            len(self._graph),
        )

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
                        fresh = self._delta_snapshot(
                            snapshot, self._graph.triples_since(snapshot.triples)
                        )
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
        """Every distinct semantic feature in the graph."""
        return sorted(self.snapshot().maps()[1])

    def num_features(self) -> int:
        return len(self.snapshot().maps()[1])

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
        """Histogram of ``||E(pi)||`` values, for dataset reporting."""
        histogram: dict[int, int] = defaultdict(int)
        for entities in self.snapshot().maps()[1].values():
            histogram[len(entities)] += 1
        return dict(histogram)

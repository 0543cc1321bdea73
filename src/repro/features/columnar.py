"""Columnar feature tables — the ranker-side sibling of ``index.columnar``.

The entity ranker's type-grouped decomposition (see
:class:`~repro.ranking.ranking_support.RankingSupport`) walks Python sets
and dicts: holder lists per scored feature, dominant types per candidate,
per-(feature, type) smoothing counts.  :class:`ColumnarFeatureTables`
materialises the same per-epoch state as contiguous numpy arrays so the
walk can run as array kernels (:func:`repro.topk.kernels.columnar_rank`)
and — serialised into the shared-memory snapshot
(:func:`repro.exec.shm.publish_feature_tables`) — in worker processes:

* an **entity ordinal table** assigned in sorted-``entity_id`` order, so
  ordinal comparisons reproduce the ``(-score, entity_id)`` tie-break
  exactly as the search side's doc ordinals do;
* a **holder CSR** (``holder_offsets`` / ``holder_ordinals``): for every
  semantic feature of the epoch, the sorted ordinals of ``E(pi)``;
* **type-group tables**: the distinct dominant types of the epoch, each
  entity's dominant-type ordinal (−1 for untyped), full-membership sizes
  ``||E(c)||``, and an entity→type **membership CSR** over the same type
  universe from which the per-(feature, type) intersection counts
  ``||E(pi) ∩ E(c)||`` are derived lazily (a CSR gather + ``bincount``
  per feature, memoised — the array form of the snapshot's
  ``type_conditional_count`` memo).

The intersection counts use *full* type membership, not dominant types:
an entity whose dominant type is ``c*`` still counts toward every type it
belongs to, exactly like the scalar ``len(E(pi) & E(c))``.  Per-type base
probabilities are computed from these counts with the same float64
division and ``max(·, eps)`` floor as ``RankingSupport.base_probability``.

Tables are built once per pinned :class:`FeatureIndexSnapshot` (memoised
on the snapshot itself) or reconstructed zero-copy from an attached
shared-memory segment on the worker side; the per-query kernel inputs are
assembled by :func:`build_ranker_inputs` identically on both sides.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from ..kg.columns import csr_gather, csr_offsets, sort_rows
from ..topk.kernels import RankerKernelInputs
from .semantic_feature import Direction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .feature_index import FeatureIndexSnapshot

#: The feature-key triples are JSON-serialised into the snapshot manifest,
#: so the table keys are plain ``(anchor, predicate, direction)`` string
#: tuples (``SemanticFeature.key``), never feature objects.
FeatureKey = tuple[str, str, str]

#: Direction values in ``SemanticFeature`` sort order (the enum compares as
#: its string value); a direction's position is the low bit of a feature code.
DIRECTIONS = (Direction.OBJECT_OF.value, Direction.SUBJECT_OF.value)
_DIRECTION_CODE = {value: code for code, value in enumerate(DIRECTIONS)}


class ColumnarFeatureTables:
    """Per-epoch array tables of one feature-index snapshot.

    Parent-side instances (built via :meth:`from_snapshot`) additionally
    carry the ``entity_ids`` / ``ordinal_of`` string maps; worker-side
    instances (rebuilt from shared-memory views via
    :meth:`from_arrays`) work purely in ordinal space — candidates
    arrive as ordinal arrays and survivors return as ordinal arrays.

    A feature's ordinal is its rank in ``SemanticFeature`` sort order.
    Sort-built tables address it through ``feature_codes`` — the sorted
    integers ``(anchor_ord · P + predicate_ord) · 2 + direction`` over
    the epoch's ``P`` edge predicates, monotone in that sort order — and
    derive the string triples only when a manifest needs them; tables
    decoded from a segment carry the triples the manifest listed (sorted,
    being in ordinal order) and bisect them.  :meth:`feature_ordinals`,
    :meth:`feature_key` and :meth:`feature_keys` hide which.
    """

    __slots__ = (
        "epoch",
        "num_entities",
        "entity_ids",
        "ordinal_of",
        "feature_codes",
        "predicates",
        "_predicate_ord",
        "_feature_keys",
        "holder_offsets",
        "holder_ordinals",
        "num_types",
        "dominant_ords",
        "type_populations",
        "member_offsets",
        "member_type_ords",
        "_intersections",
        "_query_columns",
    )

    def __init__(
        self,
        epoch: int,
        holder_offsets: np.ndarray,
        holder_ordinals: np.ndarray,
        dominant_ords: np.ndarray,
        type_populations: np.ndarray,
        member_offsets: np.ndarray,
        member_type_ords: np.ndarray,
        entity_ids: list[str] | None = None,
        ordinal_of: dict[str, int] | None = None,
        feature_keys: list[FeatureKey] | None = None,
        feature_codes: np.ndarray | None = None,
        predicates: list[str] | None = None,
    ) -> None:
        self.epoch = epoch
        self.num_entities = int(dominant_ords.size)
        self.entity_ids = entity_ids
        if ordinal_of is None and entity_ids is not None:
            ordinal_of = {entity_id: ordinal for ordinal, entity_id in enumerate(entity_ids)}
        self.ordinal_of = ordinal_of
        self.feature_codes = feature_codes
        self.predicates = predicates
        self._predicate_ord = (
            None
            if predicates is None
            else {predicate: ordinal for ordinal, predicate in enumerate(predicates)}
        )
        self._feature_keys = feature_keys
        self.holder_offsets = holder_offsets
        self.holder_ordinals = holder_ordinals
        self.num_types = int(type_populations.size)
        self.dominant_ords = dominant_ords
        self.type_populations = type_populations
        self.member_offsets = member_offsets
        self.member_type_ords = member_type_ords
        #: Memoised per-feature ``||E(pi) ∩ E(c)||`` columns (one entry per
        #: feature ordinal, length ``num_types`` each) — the array form of
        #: the snapshot's ``type_conditional_count`` memo.
        self._intersections: dict[int, np.ndarray] = {}
        #: Memoised stacked ``(base, possible)`` matrices per scored
        #: feature set (see :func:`build_ranker_inputs`) — the columnar
        #: sibling of ``RankingSupport``'s per-(feature, type)
        #: ``base_and_possible`` memo.  Bounded: cleared when it grows
        #: past a few dozen distinct query signatures.
        self._query_columns: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_snapshot(cls, snapshot: FeatureIndexSnapshot) -> ColumnarFeatureTables:
        """Sort the tables out of the snapshot's epoch of the column log.

        The epoch is the log prefix of ``snapshot.triples`` triples, so a
        snapshot pinned before later writes still builds its own tables.
        Every edge ``<s, p, o>`` is two (feature, holder) rows — ``s``
        holds ``(o, p, object_of)``, ``o`` holds ``(s, p, subject_of)``
        — and sorting them by ``(feature code, holder)`` is the holder
        CSR.  The dominant type of an entity is the minimum of
        ``population · T + type`` over its membership row (least
        populated, ties by name), one ``minimum.reduceat``; the tables'
        type universe is the types that are some entity's dominant one.
        """
        columns = snapshot.columns.epoch(snapshot.triples)
        num_entities = len(columns.entity_ids)
        num_predicates = len(columns.predicates)
        subjects, preds, objects = (
            columns.edge_subjects, columns.edge_predicates, columns.edge_objects,
        )
        codes = np.concatenate(
            ((objects * num_predicates + preds) * 2, (subjects * num_predicates + preds) * 2 + 1)
        )
        codes, holder_ordinals = sort_rows(
            (2 * num_entities * num_predicates, num_entities),
            codes,
            np.concatenate((subjects, objects)),
        )
        feature_codes, starts = np.unique(codes, return_index=True)

        num_all_types = len(columns.type_ids)
        members, types = columns.typed_entities, columns.typed_types
        populations = np.bincount(types, minlength=num_all_types)
        offsets = csr_offsets(members, num_entities)
        typed = np.flatnonzero(np.diff(offsets))
        dominant = np.full(num_entities, -1, dtype=np.int64)
        if typed.size:
            dominant[typed] = (
                np.minimum.reduceat(populations[types] * num_all_types + types, offsets[typed])
                % num_all_types
            )
        universe = np.unique(dominant[typed])
        local = np.full(num_all_types + 1, -1, dtype=np.int64)  # slot −1 (untyped) stays −1
        local[universe] = np.arange(universe.size, dtype=np.int64)
        kept = local[types] >= 0
        return cls(
            epoch=snapshot.epoch,
            holder_offsets=np.append(starts, codes.size),
            holder_ordinals=holder_ordinals,
            dominant_ords=local[dominant],
            type_populations=populations[universe],
            member_offsets=csr_offsets(members[kept], num_entities),
            member_type_ords=local[types[kept]],
            entity_ids=columns.entity_ids,
            ordinal_of=columns.ordinal_of,
            feature_codes=feature_codes,
            predicates=columns.predicates,
        )

    @classmethod
    def from_arrays(
        cls,
        epoch: int,
        feature_keys: list[FeatureKey],
        holder_offsets: np.ndarray,
        holder_ordinals: np.ndarray,
        dominant_ords: np.ndarray,
        type_populations: np.ndarray,
        member_offsets: np.ndarray,
        member_type_ords: np.ndarray,
        entity_ids: list[str] | None = None,
    ) -> ColumnarFeatureTables:
        """Reconstruct the tables from decoded segment arrays.

        Workers pass no ``entity_ids``: no entity id strings travel — the
        kernels select by ordinal, and only the parent maps ordinals back
        to ids for the exact re-scoring epilogue.  A cold-starting parent
        passes the id table its durable segment embeds.  ``feature_keys``
        is kept as given (a manifest's list of lists will do) and must be
        in ordinal, that is sorted, order.
        """
        return cls(
            epoch=epoch,
            holder_offsets=holder_offsets,
            holder_ordinals=holder_ordinals,
            dominant_ords=dominant_ords,
            type_populations=type_populations,
            member_offsets=member_offsets,
            member_type_ords=member_type_ords,
            entity_ids=entity_ids,
            feature_keys=feature_keys,
        )

    # ------------------------------------------------------------------ #
    # Feature addressing
    # ------------------------------------------------------------------ #
    @property
    def num_features(self) -> int:
        return int(self.holder_offsets.size) - 1

    def feature_keys(self) -> list[FeatureKey]:
        """The ``(anchor, predicate, direction)`` triples in ordinal order."""
        if self._feature_keys is not None:
            return [tuple(key) for key in self._feature_keys]
        return self._keys_of(self.feature_codes)

    def feature_key(self, ordinal: int) -> FeatureKey:
        """The key triple of one feature ordinal."""
        if self._feature_keys is not None:
            return tuple(self._feature_keys[ordinal])
        return self._keys_of(self.feature_codes[ordinal : ordinal + 1])[0]

    def _keys_of(self, codes: np.ndarray | None) -> list[FeatureKey]:
        ids, predicates = self.entity_ids, self.predicates
        assert ids is not None and predicates is not None and codes is not None
        pairs, directions = np.divmod(codes, 2)
        anchors, preds = np.divmod(pairs, max(len(predicates), 1))
        return [
            (ids[anchor], predicates[pred], DIRECTIONS[direction])
            for anchor, pred, direction in zip(
                anchors.tolist(), preds.tolist(), directions.tolist()
            )
        ]

    def feature_ordinals(self, keys: Sequence[FeatureKey]) -> np.ndarray:
        """Ordinals of the given key triples (−1 where the epoch lacks one)."""
        codes = self.feature_codes
        if codes is None:
            listed = self._feature_keys
            assert listed is not None

            def position(key: FeatureKey) -> int:
                key = tuple(key)
                found = bisect_left(listed, key, key=tuple)
                return found if found < len(listed) and tuple(listed[found]) == key else -1

            return np.fromiter(map(position, keys), dtype=np.int64, count=len(keys))
        ordinal_of, predicate_ord = self.ordinal_of, self._predicate_ord
        assert ordinal_of is not None and predicate_ord is not None
        num_predicates = len(predicate_ord)

        def code(key: FeatureKey) -> int:
            anchor, predicate, direction = key
            try:
                return (
                    ordinal_of[anchor] * num_predicates + predicate_ord[predicate]
                ) * 2 + _DIRECTION_CODE[direction]
            except KeyError:
                return -1

        wanted = np.fromiter(map(code, keys), dtype=np.int64, count=len(keys))
        if not codes.size:
            return np.full(len(keys), -1, dtype=np.int64)
        positions = np.minimum(np.searchsorted(codes, wanted), codes.size - 1)
        return np.where(codes[positions] == wanted, positions, -1)

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #
    def holders(self, feature_ordinal: int) -> np.ndarray:
        """Sorted holder ordinals of one feature (empty for ``-1``)."""
        if feature_ordinal < 0:
            return self.holder_ordinals[:0]
        start = int(self.holder_offsets[feature_ordinal])
        end = int(self.holder_offsets[feature_ordinal + 1])
        return self.holder_ordinals[start:end]

    def intersections(self, feature_ordinal: int) -> np.ndarray:
        """``||E(pi) ∩ E(c)||`` for every type ordinal ``c`` (memoised).

        Computed over *full* type membership via the membership CSR — a
        holder counts toward every type it belongs to, matching the
        scalar ``len(matching & type_members)`` exactly.
        """
        cached = self._intersections.get(feature_ordinal)
        if cached is not None:
            return cached
        if feature_ordinal < 0 or self.num_types == 0:
            counts = np.zeros(self.num_types, dtype=np.int64)
        else:
            gathered = csr_gather(
                self.member_offsets, self.member_type_ords, self.holders(feature_ordinal)
            )
            counts = np.bincount(gathered, minlength=self.num_types).astype(np.int64)
        self._intersections[feature_ordinal] = counts
        return counts


def build_ranker_inputs(
    tables: ColumnarFeatureTables,
    feature_keys: list[FeatureKey],
    relevance: list[float],
    candidate_ordinals: np.ndarray,
    epsilon: float,
    type_smoothing: bool = True,
) -> RankerKernelInputs:
    """Assemble one query's kernel inputs from the epoch tables.

    Runs identically in the parent and in attached workers: the scored
    features arrive as ``(key triple, relevance)`` pairs, the candidates
    as entity ordinals (any order; sorted here so the survivor selection
    tie-break holds).  Per-type base probabilities repeat the scalar
    arithmetic — float64 ``intersection / population`` with the
    ``max(·, eps)`` floor, ``eps`` everywhere when smoothing is off or
    the type is the untyped slot — and the correction-possible gate (a
    non-zero intersection for typed groups, a non-empty holder list for
    untyped candidates) shapes the suffix bounds exactly as
    ``RankingSupport.base_and_possible`` does.
    """
    candidate_ordinals = np.sort(np.asarray(candidate_ordinals, dtype=np.int64))
    num_candidates = int(candidate_ordinals.size)
    num_columns = len(feature_keys)
    scores = np.asarray(relevance, dtype=np.float64)
    ord_array = tables.feature_ordinals(feature_keys)
    feature_ords = ord_array.tolist()

    # Local type universe: the distinct dominant-type ordinals among the
    # candidates (−1, when present, is the untyped slot and sorts first).
    dominant = tables.dominant_ords[candidate_ordinals]
    local_types = np.unique(dominant)
    type_index = np.searchsorted(local_types, dominant)
    num_local = int(local_types.size)

    typed = local_types >= 0
    typed_idx = np.maximum(local_types, 0)
    known = ord_array >= 0
    safe_ords = np.where(known, ord_array, 0)
    holder_sizes = np.where(
        known,
        tables.holder_offsets[safe_ords + 1] - tables.holder_offsets[safe_ords],
        0,
    )
    # The global ``(base, possible)`` matrices of this feature set — one
    # row per epoch type plus a trailing untyped row — memoised on the
    # tables (candidate-independent, like the scalar walk's
    # per-(feature, type) ``base_and_possible`` memo).  Typed rows repeat
    # the scalar arithmetic: float64 ``||E(pi) ∩ E(c)|| / ||E(c)||`` with
    # the ``max(·, eps)`` floor; correction possible iff the intersection
    # is non-zero.  The untyped row stays at eps, possible iff the holder
    # list is non-empty (the scalar untyped fallback).
    memo_key = (tuple(feature_ords), float(epsilon), bool(type_smoothing))
    memoised = tables._query_columns.get(memo_key)
    if memoised is None:
        num_rows = tables.num_types + 1
        base_all = np.full((num_rows, num_columns), epsilon, dtype=np.float64)
        possible_all = np.zeros((num_rows, num_columns), dtype=bool)
        possible_all[num_rows - 1] = holder_sizes > 0
        if tables.num_types and num_columns:
            inter = np.stack(
                [tables.intersections(ordinal) for ordinal in feature_ords], axis=1
            )
            possible_all[: tables.num_types] = inter > 0
            if type_smoothing:
                populations = tables.type_populations.astype(np.float64)[:, None]
                smoothed = np.divide(
                    inter.astype(np.float64),
                    populations,
                    out=np.zeros((tables.num_types, num_columns), dtype=np.float64),
                    where=populations > 0,
                )
                base_all[: tables.num_types] = np.maximum(smoothed, epsilon)
        if len(tables._query_columns) >= 64:
            tables._query_columns.clear()
        tables._query_columns[memo_key] = memoised = (base_all, possible_all)
    base_all, possible_all = memoised
    rows = np.where(typed, typed_idx, tables.num_types)
    base = base_all[rows]
    possible = possible_all[rows]

    corrections = (1.0 - base) * scores
    bounded = np.where(possible & (scores > 0.0), corrections, 0.0)
    suffix = np.zeros((num_local, num_columns + 1), dtype=np.float64)
    if num_columns:
        suffix[:, :num_columns] = np.cumsum(bounded[:, ::-1], axis=1)[:, ::-1]
    base_scores = base @ scores if num_columns else np.zeros(num_local, dtype=np.float64)

    # One searchsorted over the concatenated holder lists, then plain
    # slices at the (post-match) column boundaries — replaces a
    # per-column searchsorted loop (and avoids ``np.split`` overhead).
    if num_candidates and num_columns and int(holder_sizes.sum()):
        concat = np.concatenate([tables.holders(ordinal) for ordinal in feature_ords])
        positions = np.searchsorted(candidate_ordinals, concat)
        positions = np.minimum(positions, num_candidates - 1)
        matched = candidate_ordinals[positions] == concat
        matched_total = np.concatenate(([0], np.cumsum(matched)))
        ends = np.cumsum(holder_sizes)
        filtered = positions[matched]
        bounds = matched_total[ends].tolist()
        starts = matched_total[ends - holder_sizes].tolist()
        holder_positions = [
            filtered[start:end] for start, end in zip(starts, bounds)
        ]
    else:
        holder_positions = [np.empty(0, dtype=np.int64) for _ in range(num_columns)]

    return RankerKernelInputs(
        ordinals=candidate_ordinals,
        type_index=np.asarray(type_index, dtype=np.int64),
        type_counts=np.bincount(type_index, minlength=num_local).astype(np.int64),
        base_scores=base_scores,
        corrections=corrections,
        suffix_bounds=suffix,
        holder_positions=tuple(holder_positions),
    )


def columnar_tables(snapshot: Any) -> ColumnarFeatureTables | None:
    """The snapshot's tables, built once and memoised on the snapshot.

    Returns ``None`` for index objects without the snapshot memo slot
    (e.g. a bare graph passed where an index was expected), so callers
    can fall back to the scalar walk.
    """
    if not hasattr(snapshot, "_columnar"):
        return None
    tables = snapshot._columnar
    if tables is None:
        # Benign race: two pinned readers may build concurrently; both
        # results are equal and either assignment is fine.
        tables = ColumnarFeatureTables.from_snapshot(snapshot)
        snapshot._columnar = tables
    return tables


__all__ = [
    "ColumnarFeatureTables",
    "FeatureKey",
    "build_ranker_inputs",
    "columnar_tables",
]

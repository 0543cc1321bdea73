"""Columnar feature tables — the ranker-side sibling of ``index.columnar``.

The entity ranker's type-grouped decomposition needs holder lists per
scored feature, dominant types per candidate and per-(feature, type)
smoothing counts.  :class:`ColumnarFeatureTables` holds that per-epoch
state as contiguous numpy arrays, so the walk runs as an array kernel
(:func:`repro.topk.kernels.columnar_rank`):

* an **entity ordinal table** assigned in sorted-``entity_id`` order, so
  ordinal comparisons reproduce the ``(-score, entity_id)`` tie-break
  exactly as the search side's doc ordinals do;
* a **holder CSR** (``holder_offsets`` / ``holder_ordinals``): for every
  semantic feature of the epoch, the sorted ordinals of ``E(pi)`` — the
  epoch's edge CSR, :class:`~repro.kg.topology.GraphTopology`;
* **type-group tables** over every type of the epoch (``type_ids``,
  ascending): each entity's dominant-type ordinal (−1 for untyped),
  full-membership sizes ``||E(c)||``, and an entity→type **membership
  CSR** from which the per-(type, feature) intersection counts
  ``||E(pi) ∩ E(c)||`` are counted per request, for exactly the features
  and types that request scores (two CSR gathers and one ``bincount``:
  :meth:`ColumnarFeatureTables.intersections`).

The intersection counts use *full* type membership, not dominant types:
an entity whose dominant type is ``c*`` still counts toward every type it
belongs to, exactly like the scalar ``len(E(pi) & E(c))``.  Per-type base
probabilities are computed from these counts with the same float64
division and ``max(·, eps)`` floor as
``FeatureProbabilityModel.probability`` applies to a non-holder.

The tables *are* a :class:`FeatureIndexSnapshot`'s contents: the graph's
memoised topology of the snapshot's epoch (sorted out of the column log,
or derived from the previous epoch's when a write refreshes it, or
decoded from a saved feature-table segment on a cold start) plus the
type tables of that epoch (counted over the log's memberships, or
derived from the previous epoch's tables by the same refresh); the
per-query kernel inputs are assembled by
:func:`build_ranker_inputs`.

The tables are also what a recommendation request *runs on*: the seeds'
feature rows (:meth:`~repro.kg.topology.GraphTopology.feature_rows`), the candidate
tally (:meth:`~ColumnarFeatureTables.matching_any`) and the dense
``p(pi|e)`` matrix behind the exact entity scores and the correlation
matrix (:meth:`~ColumnarFeatureTables.probabilities`) are array
operations over entity and feature ordinals; identifiers and
:class:`~repro.features.semantic_feature.SemanticFeature` objects are
made only for what a response returns.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from typing import Any

import numpy as np

from ..kg.columns import (
    EpochColumns,
    csr_gather,
    csr_offsets,
    isin_sorted,
    runs,
    shifted,
    sorted_unique,
    spliced,
    unique_inverse,
)
from ..kg.topology import GraphTopology
from ..topk.kernels import RankerKernelInputs
from .semantic_feature import Direction

#: A feature named by strings: the ``(anchor, predicate, direction)``
#: tuple of ``SemanticFeature.key``, never a feature object.
FeatureKey = tuple[str, str, str]

#: Direction values in ``SemanticFeature`` sort order (the enum compares as
#: its string value); a direction's position is the low bit of a feature code.
DIRECTIONS = (Direction.OBJECT_OF.value, Direction.SUBJECT_OF.value)
_DIRECTION_CODE = {value: code for code, value in enumerate(DIRECTIONS)}


class ColumnarFeatureTables:
    """Per-epoch array tables of one feature-index snapshot.

    The epoch's :class:`~repro.kg.topology.GraphTopology` plus its type
    tables.  The topology's edge CSR *is* the holder CSR: its
    ``entity_ids`` / ``ordinal_of`` map between entity identifiers and
    ordinals, its sorted ``feature_codes`` — ``(anchor_ord · P +
    predicate_ord) · 2 + direction`` over the epoch's ``P`` edge
    predicates (``predicates``), monotone in ``SemanticFeature`` sort
    order — address the features, and a feature's ordinal is its rank
    there.  The tables share those arrays under the same names, and
    ``type_ids`` names the type ordinals; everything else is in ordinal
    space.  The string triples are derived only for the features a
    response names.
    """

    __slots__ = (
        "topology",
        "epoch",
        "num_entities",
        "entity_ids",
        "ordinal_of",
        "feature_codes",
        "predicates",
        "_code_offsets",
        "holder_offsets",
        "holder_ordinals",
        "num_types",
        "type_ids",
        "dominant_ords",
        "type_populations",
        "member_offsets",
        "member_type_ords",
    )

    def __init__(
        self,
        topology: GraphTopology,
        dominant_ords: np.ndarray,
        type_populations: np.ndarray,
        member_offsets: np.ndarray,
        member_type_ords: np.ndarray,
        type_ids: list[str],
    ) -> None:
        self.topology = topology
        self.epoch = topology.epoch
        self.num_entities = topology.num_entities
        self.entity_ids = topology.entity_ids
        self.ordinal_of = topology.ordinal_of
        self.feature_codes = topology.feature_codes
        self.predicates = topology.predicates
        #: ``(predicate, direction) → 2 · predicate ordinal + direction``,
        #: the part of a feature code below its anchor.
        self._code_offsets = {
            (predicate, direction): 2 * ordinal + code
            for ordinal, predicate in enumerate(self.predicates)
            for direction, code in _DIRECTION_CODE.items()
        }
        self.holder_offsets = topology.holder_offsets
        self.holder_ordinals = topology.holder_ordinals
        self.num_types = int(type_populations.size)
        self.type_ids = type_ids
        self.dominant_ords = dominant_ords
        self.type_populations = type_populations
        self.member_offsets = member_offsets
        self.member_type_ords = member_type_ords

    @classmethod
    def from_topology(
        cls, topology: GraphTopology, previous: "ColumnarFeatureTables | None" = None
    ) -> ColumnarFeatureTables:
        """The tables of a topology's epoch: its CSR plus the type tables
        of its log epoch — derived from ``previous``, the tables of an
        earlier epoch, when the topology would derive over the delta
        (:meth:`derived_type_tables`), else :meth:`type_tables`."""
        columns = topology._columns
        assert columns is not None
        older = None if previous is None else previous.topology._columns
        if older is not None and GraphTopology.derives(older.triples, columns.triples):
            assert previous is not None
            types = previous.derived_type_tables(older, columns)
        else:
            types = cls.type_tables(columns)
        return cls(topology, *types, columns.type_ids)

    @staticmethod
    def type_tables(columns: EpochColumns) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(dominant_ords, type_populations, member_offsets, member_type_ords)`` of an epoch.

        Over every type of the epoch, each of which has a member.  The
        dominant type of an entity is the minimum of ``population · T +
        type`` over its membership row (least populated, ties by name),
        one ``minimum.reduceat``.
        """
        num_entities, num_types = len(columns.entity_ids), len(columns.type_ids)
        members, types = columns.typed_entities, columns.typed_types
        populations = np.bincount(types, minlength=num_types)
        offsets = csr_offsets(members, num_entities)
        typed = np.flatnonzero(np.diff(offsets))
        dominant = np.full(num_entities, -1, dtype=np.int64)
        if typed.size:
            dominant[typed] = (
                np.minimum.reduceat(populations[types] * num_types + types, offsets[typed])
                % num_types
            )
        return dominant, populations, offsets, types

    def derived_type_tables(
        self, older: EpochColumns, columns: EpochColumns
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`type_tables` of ``columns`` from these, the tables of ``older``.

        Entity and type ordinals only move up (:meth:`EpochColumns.inserted`),
        and a type's population only grows.  The populations are the old
        ones spliced for the new types plus the memberships logged since;
        the membership CSR is the epoch's sorted type column cut by the old
        offsets, spliced for the new entities and shifted by the new
        memberships.  An entity's dominant type moves with its ordinal
        unless the entity gained a membership or its dominant type gained
        a member: only those are recomputed.  Nothing of these is written.
        """
        num_types = len(columns.type_ids)
        entities, types = columns.memberships(older.typed_entities.size)
        new_entities = columns.inserted(older, "entities")
        entity_cuts = new_entities - np.arange(new_entities.size, dtype=np.int64)
        new_types = columns.inserted(older, "types")
        type_cuts = new_types - np.arange(new_types.size, dtype=np.int64)
        populations = spliced(
            self.type_populations, type_cuts, np.zeros(type_cuts.size, dtype=np.int64)
        ) + np.bincount(types, minlength=num_types)
        touched, counts = runs(np.sort(entities))
        offsets = shifted(
            spliced(self.member_offsets, entity_cuts, self.member_offsets[entity_cuts]),
            touched + 1,
            counts,
        )
        dominant = self.dominant_ords
        if type_cuts.size:
            dominant = np.where(
                dominant >= 0, dominant + np.searchsorted(type_cuts, dominant, side="right"), -1
            )
        dominant = spliced(dominant, entity_cuts, np.full(entity_cuts.size, -1, dtype=np.int64))
        if entities.size:
            grew = np.zeros(num_types + 1, dtype=bool)  # the last slot is the untyped -1
            grew[types] = True
            affected = sorted_unique(np.concatenate((touched, np.flatnonzero(grew[dominant]))))
            dominant = dominant.copy() if dominant is self.dominant_ords else dominant
            dominant[affected] = _dominant(populations, offsets, columns.typed_types, affected)
        return dominant, populations, offsets, columns.typed_types

    # ------------------------------------------------------------------ #
    # Feature addressing
    # ------------------------------------------------------------------ #
    @property
    def num_features(self) -> int:
        return self.topology.num_features

    def feature_keys(self, ordinals: np.ndarray | None = None) -> list[FeatureKey]:
        """The ``(anchor, predicate, direction)`` triples of the given feature
        ordinals, in the order given; of every feature, in ordinal order,
        by default."""
        codes = self.feature_codes
        return self._keys_of(codes if ordinals is None else codes[ordinals])

    def feature_key(self, ordinal: int) -> FeatureKey:
        """The key triple of one feature ordinal."""
        return self._keys_of(self.feature_codes[ordinal : ordinal + 1])[0]

    def _keys_of(self, codes: np.ndarray) -> list[FeatureKey]:
        ids, predicates = self.entity_ids, self.predicates
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
        codes, ordinal_of, offsets = self.feature_codes, self.ordinal_of, self._code_offsets
        # A code is anchor · 2P + offset.  An unknown anchor (-1) or
        # (predicate, direction) pair makes it negative, and no feature
        # has a negative code.
        span = len(offsets)
        unknown = -span * (self.num_entities + 1)
        offset = offsets.get
        wanted = ordinal_of.array((key[0] for key in keys), len(keys)) * span + np.fromiter(
            (offset((key[1], key[2]), unknown) for key in keys), np.int64, len(keys)
        )
        if not codes.size:
            return np.full(len(keys), -1, dtype=np.int64)
        positions = np.minimum(np.searchsorted(codes, wanted), codes.size - 1)
        return np.where(codes[positions] == wanted, positions, -1)

    def entity_ordinals(self, entity_ids: Sequence[str]) -> np.ndarray:
        """Ordinals of the given entity ids (−1 where the epoch lacks one)."""
        return self.ordinal_of.array(entity_ids, len(entity_ids))

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

    def holder_sizes(self, feature_ordinals: np.ndarray) -> np.ndarray:
        """``||E(pi)||`` per feature ordinal (0 for ``-1``)."""
        known = feature_ordinals >= 0
        if not known.any():
            return np.zeros(feature_ordinals.size, dtype=np.int64)
        safe = np.where(known, feature_ordinals, 0)
        return np.where(known, self.holder_offsets[safe + 1] - self.holder_offsets[safe], 0)

    def holder_rows(self, feature_ordinals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The holder rows of the features, concatenated: ``(holders, columns)``.

        ``columns[i]`` is the position in ``feature_ordinals`` of the
        feature ``holders[i]`` holds; ``-1`` ordinals contribute nothing.
        The lookups below take the pair as ``rows`` so that a caller
        making several of them over one feature list gathers it once.
        """
        known = np.flatnonzero(feature_ordinals >= 0)
        rows = feature_ordinals[known]
        holders = csr_gather(self.holder_offsets, self.holder_ordinals, rows)
        sizes = self.holder_offsets[rows + 1] - self.holder_offsets[rows]
        return holders, np.repeat(known, sizes)

    def holder_hits(
        self,
        feature_ordinals: np.ndarray,
        entities: np.ndarray,
        rows: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every held cell of ``entities`` × features: ``(positions, columns)``.

        ``entities`` must be ascending and distinct; ``entities[positions[i]]``
        holds ``feature_ordinals[columns[i]]``.  Cells come in column
        order, positions ascending within a column.
        """
        holders, columns = rows or self.holder_rows(feature_ordinals)
        hit = isin_sorted(entities, holders)
        return np.searchsorted(entities, holders[hit]), columns[hit]

    def matching_any(
        self, feature_ordinals: np.ndarray, exclude: np.ndarray, limit: int | None = None
    ) -> np.ndarray:
        """Entities holding any of the features, most matches first.

        The array form of
        :func:`repro.features.extraction.candidate_entities`: a
        ``bincount`` over the concatenated holder rows; ordinals are in
        identifier order, so a stable sort by match count is the
        ``(-matches, entity_id)`` order.  ``exclude`` lists entity
        ordinals to leave out (the seeds).
        """
        holders, _ = self.holder_rows(feature_ordinals)
        counts = np.bincount(holders, minlength=self.num_entities)
        counts[exclude] = 0
        found = np.flatnonzero(counts)
        ranked = found[np.argsort(-counts[found], kind="stable")]
        return ranked if limit is None else ranked[:limit]

    def of_type(self, entity_ordinals: np.ndarray, type_id: str) -> np.ndarray:
        """Which of the entities are members of ``type_id``: a mask over them.

        Reads the entities' rows of the membership CSR, as
        :meth:`intersections` does; ``entity_ordinals`` may come in any
        order.  A type the epoch lacks has no member.
        """
        type_ids = self.type_ids
        mask = np.zeros(entity_ordinals.size, dtype=bool)
        position = bisect_left(type_ids, type_id)
        if position == len(type_ids) or type_ids[position] != type_id:
            return mask
        offsets = self.member_offsets
        lengths = offsets[entity_ordinals + 1] - offsets[entity_ordinals]
        hits = csr_gather(offsets, self.member_type_ords, entity_ordinals) == position
        mask[np.repeat(np.arange(entity_ordinals.size), lengths)[hits]] = True
        return mask

    def intersections(
        self,
        feature_ordinals: np.ndarray,
        type_ordinals: np.ndarray,
        rows: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """``||E(pi) ∩ E(c)||`` for every (type, feature) pair, types as rows.

        Counted over *full* type membership via the membership CSR — a
        holder counts toward every type it belongs to, matching the
        scalar ``len(matching & type_members)`` exactly.  ``type_ordinals``
        must be distinct; the row of the untyped slot (``-1``) and the
        column of an unknown feature (``-1``) are zero.
        """
        num_rows, num_columns = type_ordinals.size, feature_ordinals.size
        if not self.num_types or not num_rows or not num_columns:
            return np.zeros((num_rows, num_columns), dtype=np.int64)
        holders, columns = rows or self.holder_rows(feature_ordinals)
        types = csr_gather(self.member_offsets, self.member_type_ords, holders)
        memberships = self.member_offsets[holders + 1] - self.member_offsets[holders]
        row_of = np.full(self.num_types, -1, dtype=np.int64)
        typed = np.flatnonzero(type_ordinals >= 0)
        row_of[type_ordinals[typed]] = typed
        type_rows = row_of[types]
        wanted = type_rows >= 0
        cells = type_rows[wanted] * num_columns + np.repeat(columns, memberships)[wanted]
        return np.bincount(cells, minlength=num_rows * num_columns).reshape(num_rows, num_columns)

    def base_probabilities(
        self,
        feature_ordinals: np.ndarray,
        type_ordinals: np.ndarray,
        epsilon: float,
        type_smoothing: bool = True,
        rows: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(max(p(pi|c), eps), ||E(pi) ∩ E(c)||)``, both types × features.

        ``p(pi|e)`` of an entity of dominant type ``c`` that does not hold
        ``pi``, with the scalar arithmetic of
        ``FeatureProbabilityModel.probability``: float64
        ``intersection / population`` floored at ``eps``, and ``eps``
        itself when smoothing is off or the type is the untyped slot.
        The one (features × types) lookup the feature ranker, the kernel
        inputs and :meth:`probabilities` share.
        """
        counts = self.intersections(feature_ordinals, type_ordinals, rows)
        base = np.full(counts.shape, epsilon, dtype=np.float64)
        typed = type_ordinals >= 0
        if type_smoothing and typed.any():
            populations = self.type_populations[type_ordinals[typed]]
            base[typed] = np.maximum(counts[typed] / populations[:, None], epsilon)
        return base, counts

    def probabilities(
        self,
        entity_ordinals: np.ndarray,
        feature_ordinals: np.ndarray,
        epsilon: float,
        type_smoothing: bool = True,
    ) -> np.ndarray:
        """The dense ``p(pi|e)`` matrix, entities × features.

        Each row starts as the base row of the entity's dominant type;
        the cells the entity holds are set to 1.0.  Entities may repeat
        and come in any order; ``-1`` (an entity the epoch lacks) is
        untyped and holds nothing, ``-1`` features are held by nobody —
        the floats ``FeatureProbabilityModel.probability`` returns.
        """
        entities, inverse = unique_inverse(entity_ordinals)
        known = entities >= 0
        dominant = np.full(entities.size, -1, dtype=np.int64)
        dominant[known] = self.dominant_ords[entities[known]]
        types, type_index = unique_inverse(dominant)
        rows = self.holder_rows(feature_ordinals)
        base, _ = self.base_probabilities(feature_ordinals, types, epsilon, type_smoothing, rows)
        matrix = base[type_index]
        matrix[self.holder_hits(feature_ordinals, entities, rows)] = 1.0
        return matrix[inverse]


def _dominant(
    populations: np.ndarray, offsets: np.ndarray, types: np.ndarray, entities: np.ndarray
) -> np.ndarray:
    """The dominant type of each of ``entities``, typed, ascending: the
    minimum of ``population · T + type`` over its row of the membership CSR."""
    num_types = populations.size
    lengths = offsets[entities + 1] - offsets[entities]
    rows = csr_gather(offsets, types, entities)
    starts = np.cumsum(lengths) - lengths
    return np.minimum.reduceat(populations[rows] * num_types + rows, starts) % num_types


def build_ranker_inputs(
    tables: ColumnarFeatureTables,
    feature_ordinals: np.ndarray,
    relevance: Sequence[float],
    candidate_ordinals: np.ndarray,
    epsilon: float,
    type_smoothing: bool = True,
) -> RankerKernelInputs:
    """Assemble one query's kernel inputs from the epoch tables.

    The scored features arrive as feature ordinals of these tables (−1
    for one the epoch lacks) with their relevance, the candidates as
    entity ordinals (any order; sorted here so the survivor selection
    tie-break holds).  Per-type base probabilities come from
    :meth:`ColumnarFeatureTables.base_probabilities`, and the
    correction-possible gate (a non-zero intersection for typed groups,
    a non-empty holder list for untyped candidates) shapes the suffix
    bounds: a type group can only earn a feature's correction if some
    member of the type can hold the feature.
    """
    candidate_ordinals = np.sort(np.asarray(candidate_ordinals, dtype=np.int64))
    feature_ordinals = np.asarray(feature_ordinals, dtype=np.int64)
    num_columns = int(feature_ordinals.size)
    scores = np.asarray(relevance, dtype=np.float64)

    # Local type universe: the distinct dominant-type ordinals among the
    # candidates (−1, when present, is the untyped slot and sorts first).
    local_types, type_index = unique_inverse(tables.dominant_ords[candidate_ordinals])
    num_local = int(local_types.size)
    rows = tables.holder_rows(feature_ordinals)
    base, counts = tables.base_probabilities(
        feature_ordinals, local_types, epsilon, type_smoothing, rows
    )
    possible = np.where(
        (local_types >= 0)[:, None], counts > 0, tables.holder_sizes(feature_ordinals) > 0
    )

    corrections = (1.0 - base) * scores
    bounded = np.where(possible & (scores > 0.0), corrections, 0.0)
    suffix = np.zeros((num_local, num_columns + 1), dtype=np.float64)
    if num_columns:
        suffix[:, :num_columns] = np.cumsum(bounded[:, ::-1], axis=1)[:, ::-1]
    base_scores = base @ scores if num_columns else np.zeros(num_local, dtype=np.float64)

    # Held cells come in column order: slice them at the column boundaries.
    positions, columns = tables.holder_hits(feature_ordinals, candidate_ordinals, rows)
    ends = np.cumsum(np.bincount(columns, minlength=num_columns)).tolist()
    holder_positions = tuple(
        positions[start:end] for start, end in zip([0, *ends], ends)
    )

    return RankerKernelInputs(
        ordinals=candidate_ordinals,
        type_index=np.asarray(type_index, dtype=np.int64),
        type_counts=np.bincount(type_index, minlength=num_local).astype(np.int64),
        base_scores=base_scores,
        corrections=corrections,
        suffix_bounds=suffix,
        holder_positions=holder_positions,
    )


def columnar_tables(snapshot: Any) -> ColumnarFeatureTables | None:
    """The tables of a feature snapshot, which it is made with.

    Returns ``None`` for objects that are not snapshots (e.g. a bare
    graph passed where an index was expected).
    """
    return getattr(snapshot, "_columnar", None)


__all__ = [
    "ColumnarFeatureTables",
    "FeatureKey",
    "build_ranker_inputs",
    "columnar_tables",
]

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
  semantic feature of the epoch, the sorted ordinals of ``E(pi)``;
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

The tables *are* a :class:`FeatureIndexSnapshot`'s contents: sorted out of
the column log when the index is built, derived from the previous
snapshot's tables when a write refreshes it, or decoded from a saved
feature-table segment on a cold start; the per-query kernel inputs are
assembled by :func:`build_ranker_inputs`.

The tables are also what a recommendation request *runs on*: the seeds'
feature rows (:meth:`~ColumnarFeatureTables.feature_rows`), the candidate
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
from typing import TYPE_CHECKING, Any

import numpy as np

from ..kg.columns import (
    EdgeColumnLog,
    EpochColumns,
    csr_gather,
    csr_merge,
    csr_offsets,
    isin_sorted,
    sort_rows,
    sorted_unique,
    unique_inverse,
)
from ..topk.kernels import RankerKernelInputs
from ..utils.ordinals import OrdinalMap
from .semantic_feature import Direction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..kg.topology import GraphTopology
    from .feature_index import FeatureIndexSnapshot

#: A feature named by strings: the ``(anchor, predicate, direction)``
#: tuple of ``SemanticFeature.key``, never a feature object.
FeatureKey = tuple[str, str, str]

#: Direction values in ``SemanticFeature`` sort order (the enum compares as
#: its string value); a direction's position is the low bit of a feature code.
DIRECTIONS = (Direction.OBJECT_OF.value, Direction.SUBJECT_OF.value)
_DIRECTION_CODE = {value: code for code, value in enumerate(DIRECTIONS)}


class ColumnarFeatureTables:
    """Per-epoch array tables of one feature-index snapshot.

    ``entity_ids`` / ``ordinal_of`` map between entity identifiers and
    ordinals (an :class:`~repro.utils.ordinals.OrdinalMap`), and
    ``type_ids`` names the type ordinals; everything else is in ordinal
    space.

    A feature's ordinal is its rank in ``SemanticFeature`` sort order,
    and ``feature_codes`` addresses it: the sorted integers
    ``(anchor_ord · P + predicate_ord) · 2 + direction`` over the epoch's
    ``P`` edge predicates (``predicates``), monotone in that sort order.
    Sort-built, derived and decoded tables all carry them; the string
    triples are derived only for the features a response names.
    """

    __slots__ = (
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
        "_held",
        "_columns",
    )

    def __init__(
        self,
        epoch: int,
        feature_codes: np.ndarray,
        predicates: list[str],
        holder_offsets: np.ndarray,
        holder_ordinals: np.ndarray,
        dominant_ords: np.ndarray,
        type_populations: np.ndarray,
        member_offsets: np.ndarray,
        member_type_ords: np.ndarray,
        entity_ids: list[str] | None = None,
        ordinal_of: OrdinalMap | None = None,
        type_ids: list[str] | None = None,
    ) -> None:
        self.epoch = epoch
        self.num_entities = int(dominant_ords.size)
        self.entity_ids = entity_ids
        if ordinal_of is None and entity_ids is not None:
            ordinal_of = OrdinalMap(entity_ids)
        self.ordinal_of = ordinal_of
        self.feature_codes = feature_codes
        self.predicates = predicates
        #: ``(predicate, direction) → 2 · predicate ordinal + direction``,
        #: the part of a feature code below its anchor.
        self._code_offsets = {
            (predicate, direction): 2 * ordinal + code
            for ordinal, predicate in enumerate(predicates)
            for direction, code in _DIRECTION_CODE.items()
        }
        self.holder_offsets = holder_offsets
        self.holder_ordinals = holder_ordinals
        self.num_types = int(type_populations.size)
        self.type_ids = type_ids
        self.dominant_ords = dominant_ords
        self.type_populations = type_populations
        self.member_offsets = member_offsets
        self.member_type_ords = member_type_ords
        #: ``(offsets, feature ordinals)``: the holder CSR turned around,
        #: built by the first :meth:`held` call.
        self._held: tuple[np.ndarray, np.ndarray] | None = None
        #: The log epoch sort-built tables came from, which a later
        #: epoch's tables derive theirs from (``None`` when decoded).
        self._columns: EpochColumns | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_snapshot(
        cls, snapshot: FeatureIndexSnapshot, previous: ColumnarFeatureTables | None = None
    ) -> ColumnarFeatureTables:
        """Sort the tables of the snapshot's epoch out of its column log
        again (:meth:`from_log`)."""
        return cls.from_log(snapshot.columns, snapshot.triples, snapshot.epoch, previous)

    @classmethod
    def from_log(
        cls,
        log: EdgeColumnLog,
        triples: int,
        epoch: int,
        previous: ColumnarFeatureTables | None = None,
    ) -> ColumnarFeatureTables:
        """Sort the tables out of one epoch of a graph's column log.

        The epoch is the log prefix of ``triples`` triples, so tables of
        an epoch the graph has moved past can still be built.  Every edge
        ``<s, p, o>`` is two (feature, holder) rows — ``s`` holds
        ``(o, p, object_of)``, ``o`` holds ``(s, p, subject_of)`` — and
        sorting them by ``(feature code, holder)`` is the holder
        CSR.  Given ``previous``, the tables of an earlier epoch of the
        same log, the holder CSR is derived from it instead
        (:meth:`_holder_csr`).  The type tables are :meth:`type_tables`.
        """
        columns = log.epoch(triples)
        feature_codes, holder_offsets, holder_ordinals = cls._holder_csr(columns, previous)
        dominant, populations, member_offsets, member_type_ords = cls.type_tables(columns)
        tables = cls(
            epoch=epoch,
            holder_offsets=holder_offsets,
            holder_ordinals=holder_ordinals,
            dominant_ords=dominant,
            type_populations=populations,
            member_offsets=member_offsets,
            member_type_ords=member_type_ords,
            entity_ids=columns.entity_ids,
            ordinal_of=columns.ordinal_of,
            type_ids=columns.type_ids,
            feature_codes=feature_codes,
            predicates=columns.predicates,
        )
        tables._columns = columns
        return tables

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

    @staticmethod
    def _holder_csr(
        columns: EpochColumns, previous: ColumnarFeatureTables | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(feature_codes, holder_offsets, holder_ordinals)`` of the epoch.

        From scratch: every edge's two (feature code, holder) rows,
        sorted.  From ``previous`` (tables of an earlier epoch of this
        log): its feature codes re-coded through the monotone entity and
        predicate maps — codes order as ``(anchor, predicate, direction)``
        triples, so they stay sorted even when ``P`` grows — the codes of
        the edges logged since spliced in, and the holder CSR merged with
        their rows (:func:`~repro.kg.columns.csr_merge`).
        """
        num_entities, num_predicates = len(columns.entity_ids), len(columns.predicates)
        older = None if previous is None else previous._columns
        first = 0 if older is None or older.triples > columns.triples else older.edge_subjects.size
        subjects, preds, objects = (
            columns.edge_subjects[first:], columns.edge_predicates[first:],
            columns.edge_objects[first:],
        )
        codes = np.concatenate(
            ((objects * num_predicates + preds) * 2, (subjects * num_predicates + preds) * 2 + 1)
        )
        holders = np.concatenate((subjects, objects))
        if not first:
            sizes = (2 * num_entities * num_predicates, num_entities)
            codes, holders = sort_rows(sizes, codes, holders)
            starts = np.flatnonzero(np.diff(codes, prepend=-1))
            return codes[starts], np.append(starts, codes.size), holders
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
        return feature_codes, offsets, holder_ordinals

    @classmethod
    def from_arrays(
        cls,
        epoch: int,
        feature_codes: np.ndarray,
        predicates: list[str],
        holder_offsets: np.ndarray,
        holder_ordinals: np.ndarray,
        dominant_ords: np.ndarray,
        type_populations: np.ndarray,
        member_offsets: np.ndarray,
        member_type_ords: np.ndarray,
        entity_ids: list[str] | None = None,
        type_ids: list[str] | None = None,
        ordinal_of: OrdinalMap | None = None,
    ) -> ColumnarFeatureTables:
        """Reconstruct the tables from decoded segment arrays.

        A cold start passes the identifier tables and the entity map of
        its system's one dictionary; ``feature_codes`` must be strictly
        ascending (they are in ordinal order).
        """
        return cls(
            type_ids=type_ids,
            ordinal_of=ordinal_of,
            epoch=epoch,
            feature_codes=feature_codes,
            predicates=predicates,
            holder_offsets=holder_offsets,
            holder_ordinals=holder_ordinals,
            dominant_ords=dominant_ords,
            type_populations=type_populations,
            member_offsets=member_offsets,
            member_type_ords=member_type_ords,
            entity_ids=entity_ids,
        )

    # ------------------------------------------------------------------ #
    # Feature addressing
    # ------------------------------------------------------------------ #
    @property
    def num_features(self) -> int:
        return int(self.holder_offsets.size) - 1

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
        assert ids is not None
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
        assert ordinal_of is not None
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

    def anchored_range(self, entity_ordinal: int) -> tuple[int, int]:
        """``[low, high)``: the ordinals of the features anchored at one entity.

        Ordinal order is ``(anchor, predicate, direction)`` order, so they
        are contiguous.
        """
        span = 2 * len(self.predicates)
        low, high = np.searchsorted(
            self.feature_codes, (entity_ordinal * span, (entity_ordinal + 1) * span)
        ).tolist()
        return low, high

    def entity_ordinals(self, entity_ids: Sequence[str]) -> np.ndarray:
        """Ordinals of the given entity ids (−1 where the epoch lacks one)."""
        assert self.ordinal_of is not None
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

    def held(self) -> tuple[np.ndarray, np.ndarray]:
        """The holder CSR turned around: ``(offsets, feature ordinals)`` by entity.

        One sort of the holder rows by holder, done on the first call.
        Each entity's row is ascending.  Readers that have this epoch's
        :class:`~repro.kg.topology.GraphTopology` get the same rows from
        its adjacency without the sort (:meth:`feature_rows`).
        """
        held = self._held
        if held is None:
            lengths = np.diff(self.holder_offsets)
            holders, ordinals = sort_rows(
                (self.num_entities, self.num_features),
                self.holder_ordinals,
                np.repeat(np.arange(lengths.size, dtype=np.int64), lengths),
            )
            # Benign race: concurrent first callers build equal arrays.
            held = self._held = (csr_offsets(holders, self.num_entities), ordinals)
        return held

    def feature_rows(
        self, entity_ordinals: Sequence[int], topology: GraphTopology | None = None
    ) -> list[np.ndarray]:
        """Per entity, the ascending ordinals of the features it holds.

        An entity's out-edges are its ``object_of`` features and its
        in-edges its ``subject_of`` ones, so a topology of this epoch
        with this predicate table already has each row sorted, as
        ``(neighbour, predicate)`` pairs that map to feature codes.
        Without one (a reader pinned to an older epoch) the rows come
        from :meth:`held`.
        """
        if (
            topology is not None
            and topology.epoch == self.epoch
            and topology.predicates == self.predicates
        ):
            codes, span = self.feature_codes, len(topology.predicates)
            rows = []
            for entity in entity_ordinals:
                low, high = int(topology.out_offsets[entity]), int(topology.out_offsets[entity + 1])
                outgoing = (topology.out_targets[low:high] * span + topology.out_preds[low:high]) * 2
                low, high = int(topology.in_offsets[entity]), int(topology.in_offsets[entity + 1])
                incoming = (topology.in_sources[low:high] * span + topology.in_preds[low:high]) * 2 + 1
                rows.append(np.searchsorted(codes, np.sort(np.concatenate((outgoing, incoming)))))
            return rows
        offsets, ordinals = self.held()
        return [
            ordinals[int(offsets[entity]) : int(offsets[entity + 1])]
            for entity in entity_ordinals
        ]

    def of_type(self, entity_ordinals: np.ndarray, type_id: str) -> np.ndarray:
        """Which of the entities are members of ``type_id``: a mask over them.

        Reads the entities' rows of the membership CSR, as
        :meth:`intersections` does; ``entity_ordinals`` may come in any
        order.  A type the epoch lacks has no member.
        """
        type_ids = self.type_ids
        assert type_ids is not None
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

"""The pinned scoring context and stage counters of a recommendation request.

Every stage of the §2.3 recommender — SF ranking, candidate tally,
filters, entity ranking, correlation matrix — has exactly two forms:

* the **array form** over the pinned snapshot's
  :class:`~repro.features.columnar.ColumnarFeatureTables` (the default
  and the only fast path), and
* the **exhaustive reference**: ``rank_exhaustive`` on both rankers,
  ``EntityRanker.score_entity`` and
  :func:`~repro.ranking.correlation.build_correlation_matrix_exhaustive`,
  which also serves every request the arrays cannot.

:class:`RankingSupport` pins one feature-index snapshot (and so one set
of tables) for a request; :class:`StageCounters` records which form
each stage ran in and why a stage ran the reference.
"""

from __future__ import annotations

import logging
from collections.abc import Iterator, Mapping, Sequence

import numpy as np

from ..features import SemanticFeatureIndex
from ..features.columnar import ColumnarFeatureTables, columnar_tables

_LOG = logging.getLogger("repro")

#: The stages of one recommendation request, in pipeline order.
STAGES = ("sf_rank", "candidates", "filters", "entity_rank", "correlation")


class StageCounters:
    """Which form each stage of the recommendation path ran in.

    ``arrays[stage]`` counts the calls served from the pinned snapshot's
    array tables; ``fallbacks[stage][reason]`` those that ran the
    exhaustive reference instead, by reason: ``explicit-pool`` (the
    caller supplied its own ``candidates=``) and ``unknown-entity`` (a
    seed the pinned tables have no ordinal for).  One instance
    lives on the :class:`~repro.ranking.probability.FeatureProbabilityModel`
    the stages share; each reason is also logged once per epoch.
    """

    def __init__(self) -> None:
        self.arrays = dict.fromkeys(STAGES, 0)
        self.fallbacks: dict[str, dict[str, int]] = {stage: {} for stage in STAGES}
        self._logged_epoch = -1
        self._logged_reasons: set[str] = set()

    def ran(self, stage: str) -> None:
        self.arrays[stage] += 1

    def fell_back(self, stage: str, reason: str, epoch: int) -> None:
        reasons = self.fallbacks[stage]
        reasons[reason] = reasons.get(reason, 0) + 1
        if self._logged_epoch != epoch:
            self._logged_epoch, self._logged_reasons = epoch, set()
        if reason not in self._logged_reasons:
            self._logged_reasons.add(reason)
            _LOG.info(
                "recommendation stage %s runs the exhaustive reference at epoch %d: %s",
                stage, epoch, reason,
            )


class FrozenMapping(Mapping[str, float]):
    """A read-only, picklable mapping for shared score decompositions.

    ``ScoredEntity.contributions`` and ``ScoredFeature.seed_probabilities``
    are shared by the recommendation engine's LRU cache, so they must not
    be mutable in place — but ``types.MappingProxyType`` cannot be pickled
    or deep-copied, which downstream consumers (on-disk caching, copies
    handed to other processes) legitimately rely on.  This wrapper is
    immutable from the outside, compares equal to plain dicts, and
    round-trips through ``pickle`` / ``copy.deepcopy``.
    """

    __slots__ = ("_data",)

    def __init__(self, data: Mapping[str, float]) -> None:
        object.__setattr__(self, "_data", dict(data))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FrozenMapping is read-only")

    def __getitem__(self, key: str) -> float:
        return self._data[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FrozenMapping):
            return self._data == other._data
        return self._data == other

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    __hash__ = None  # type: ignore[assignment]  # mutable-mapping semantics

    def __repr__(self) -> str:
        return f"FrozenMapping({self._data!r})"

    def __reduce__(self):
        return (FrozenMapping, (self._data,))


class RankingSupport:
    """One request's pinned feature-index snapshot and its array tables.

    An instance is only valid for the index epoch it was built at; the
    probability model hands out a fresh instance after any graph mutation
    (see :meth:`repro.ranking.probability.FeatureProbabilityModel.support`).
    """

    def __init__(
        self,
        index: SemanticFeatureIndex,
        type_smoothing: bool = True,
        epsilon: float = 1e-9,
    ) -> None:
        #: The *pinned snapshot* of the feature index: every stage of an
        #: in-flight request reads one immutable epoch state while graph
        #: mutations publish successor snapshots (the probability model
        #: hands out a fresh support after any epoch change, so new
        #: requests see the new state).
        self._index = index.snapshot()
        self._type_smoothing = type_smoothing
        self._epsilon = epsilon
        self._epoch = self._index.epoch

    @property
    def epoch(self) -> int:
        """The feature-index epoch this support object was built for."""
        return self._epoch

    @property
    def epsilon(self) -> float:
        return self._epsilon

    @property
    def type_smoothing(self) -> bool:
        return self._type_smoothing

    def columnar_tables(self) -> ColumnarFeatureTables:
        """The pinned snapshot's per-epoch array tables (built on first use)."""
        return columnar_tables(self._index)

    def ordinal_space(
        self, entity_ids: Sequence[str]
    ) -> tuple[ColumnarFeatureTables | None, np.ndarray | None, str]:
        """``(tables, ordinals of entity_ids, "")``, or ``(None, None, reason)``.

        The pinned tables can serve a request stage only when they know
        every entity the stage starts from; otherwise ``reason`` is
        ``"unknown-entity"`` (a :class:`StageCounters` reason).
        """
        tables = self.columnar_tables()
        ordinals = tables.entity_ordinals(entity_ids)
        if (ordinals < 0).any():
            return None, None, "unknown-entity"
        return tables, ordinals, ""


__all__ = ["STAGES", "FrozenMapping", "RankingSupport", "StageCounters"]

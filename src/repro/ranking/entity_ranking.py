"""The ranking model of entities (§2.3.2).

The relevance of a candidate entity ``e`` to a query ``Q`` combines, over
the query's ranked semantic features ``Phi(Q)``, how likely ``e`` is to hold
each feature and how relevant the feature itself is to the query:

    r(e, Q) = sum_{pi in Phi(Q)} p(pi | e) * r(pi, Q)

The same ``p(pi | e)`` model (with type smoothing) is shared with the
semantic-feature ranker, so an entity of the right type that is missing one
edge still receives partial credit — the "error-tolerant" behaviour the
paper emphasises.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from ..config import PRUNED_MODES, RankingConfig
from ..exceptions import NoSeedEntitiesError
from ..exec import (
    ProcessTask,
    SnapshotSource,
    ThetaSlab,
    merge_shard_maps,
    merge_shard_stats,
    partition_ids,
    publish_feature_tables,
    resolve_executor,
    shard_stats_from,
    snapshot_registry,
)
from ..features import SemanticFeatureIndex
from ..features.columnar import ColumnarFeatureTables, build_ranker_inputs
from ..index import select_top_k
from ..kg import KnowledgeGraph
from ..topk import (
    PruningStats,
    SharedThreshold,
    accumulate_rank,
    columnar_rank,
    select_survivor_ordinals,
)
from ..topk import SELECTION_MARGIN as _SELECTION_MARGIN
from .probability import FeatureProbabilityModel
from .ranking_support import FrozenMapping
from .sf_ranking import ScoredFeature, SemanticFeatureRanker


@dataclass(frozen=True)
class ScoredEntity:
    """A ranked entity with its per-feature score contributions."""

    entity_id: str
    score: float
    contributions: Mapping[str, float]

    def top_contributions(self, k: int = 5) -> list[tuple[str, float]]:
        """The ``k`` features contributing most to the score."""
        ranked = sorted(self.contributions.items(), key=lambda item: (-item[1], item[0]))
        return ranked[:k]

    def as_dict(self) -> dict[str, object]:
        return {
            "entity": self.entity_id,
            "score": self.score,
            "contributions": dict(self.contributions),
        }


class EntityRanker:
    """Ranks candidate entities against a seed-set query (the x-axis)."""

    def __init__(
        self,
        graph: KnowledgeGraph,
        feature_index: SemanticFeatureIndex,
        config: RankingConfig | None = None,
        feature_ranker: SemanticFeatureRanker | None = None,
    ) -> None:
        self._graph = graph
        self._index = feature_index
        self._config = config or RankingConfig()
        self._feature_ranker = feature_ranker or SemanticFeatureRanker(
            graph, feature_index, config=self._config
        )
        self._probability: FeatureProbabilityModel = self._feature_ranker.probability_model
        self._pruning_stats = PruningStats()

    @property
    def feature_ranker(self) -> SemanticFeatureRanker:
        """The semantic-feature ranker this entity ranker builds on."""
        return self._feature_ranker

    def pruning_info(self) -> dict[str, int]:
        """Cumulative pruning counters (``cache_info()`` convention)."""
        return self._pruning_stats.as_dict()

    def _executor(self):
        """The shard executor resolved from the config knobs.

        With ``columnar`` on, a ``"process"`` choice runs the pruned
        shard fan-out in the multiprocess tier over the published
        shared-memory feature tables (see :meth:`_process_columnar_rank`);
        the scalar fan-out stays closure-based on the thread/inline
        tiers.
        """
        return resolve_executor(self._config.executor, self._config.workers)

    # ------------------------------------------------------------------ #
    # Candidate generation
    # ------------------------------------------------------------------ #
    def candidates(
        self, seeds: Sequence[str], scored_features: Sequence[ScoredFeature]
    ) -> list[str]:
        """Candidate entities: anything matching a query feature, minus seeds.

        Walks the feature index's materialised no-copy holder lists (same
        ordering as :func:`repro.features.candidate_entities`, which queries
        the graph per feature).
        """
        features = [scored.feature for scored in scored_features]
        return self._index.candidates_matching_any(
            features,
            exclude=seeds,
            limit=self._config.max_candidates,
        )

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #
    def score_entity(
        self, entity_id: str, scored_features: Sequence[ScoredFeature]
    ) -> ScoredEntity:
        """``r(e, Q) = sum_pi p(pi|e) * r(pi, Q)`` with per-feature detail."""
        contributions: dict[str, float] = {}
        total = 0.0
        for scored in scored_features:
            probability = self._probability.probability(scored.feature, entity_id)
            contribution = probability * scored.score
            if contribution > 0.0:
                contributions[scored.feature.notation()] = contribution
            total += contribution
        # Read-only view: scored entities are shared by the engine's
        # recommendation cache (same protection as the frozen matrix array).
        return ScoredEntity(
            entity_id=entity_id, score=total, contributions=FrozenMapping(contributions)
        )

    def rank(
        self,
        seeds: Sequence[str],
        top_k: int | None = None,
        scored_features: Sequence[ScoredFeature] | None = None,
        candidates: Sequence[str] | np.ndarray | None = None,
        tables: ColumnarFeatureTables | None = None,
    ) -> list[ScoredEntity]:
        """Rank entities similar to the seed set (the fast path).

        The method mirrors the two-stage process of §2.3: semantic features
        are ranked first (or supplied by the caller), then candidate
        entities are scored against those ranked features.

        Scoring uses the type-grouped decomposition of
        :class:`~repro.ranking.ranking_support.RankingSupport`: one base
        score per distinct dominant type plus sparse per-holder
        corrections — ``O(types x features + matched postings)`` instead
        of ``O(candidates x features)`` — with whole dominant-type groups
        skipped under ``pruning="maxscore"``/``"blockmax"`` when their
        bound cannot reach the live θ.  The decomposition only *selects*
        a margin-guarded survivor superset; an exact epilogue re-scores
        the survivors, so the returned entities carry exactly the scores
        and per-feature contributions of the exhaustive path.

        With ``RankingConfig.columnar`` on (the default) the whole call
        stays in ordinal space (:meth:`_rank_arrays`): the candidate
        tally, the kernel (:func:`repro.topk.kernels.columnar_rank`) and
        the epilogue read the pinned snapshot's feature tables, and
        identifiers are looked up for the returned entities only.
        ``tables`` marks ``candidates`` as entity ordinals of those
        tables — how :class:`~repro.expansion.EntitySetExpander` hands
        over its filtered pool.  A caller's own list of candidate ids,
        a seed the tables do not know and ``columnar=False`` run the
        object walk below, counted by reason on the probability model's
        ``stages``.
        """
        if not seeds:
            raise NoSeedEntitiesError("cannot rank entities for an empty seed set")
        for seed in seeds:
            self._graph.require_entity(seed)
        top_k = top_k or self._config.top_entities
        if scored_features is None:
            scored_features = self._feature_ranker.rank(seeds)
        support = self._probability.support()
        stages = self._probability.stages
        reason = ""
        if tables is None:
            if not self._config.columnar:
                reason = "columnar-off"
            elif candidates is not None:
                reason = "explicit-pool"
            else:
                tables, seed_ordinals, reason = support.ordinal_space(seeds)
            if tables is not None:
                stages.ran("candidates")
                candidates = self._index.candidates_matching_any(
                    tables.feature_ordinals([scored.feature.key for scored in scored_features]),
                    exclude=seed_ordinals,
                    limit=self._config.max_candidates,
                    tables=tables,
                )
        if not reason:
            stages.ran("entity_rank")
            return self._rank_arrays(tables, candidates, scored_features, top_k, support)
        stages.fell_back("entity_rank", reason, support.epoch)
        if candidates is None:
            candidates = self.candidates(seeds, scored_features)

        pruned = self._config.pruning in PRUNED_MODES
        blockmax = self._config.pruning == "blockmax"
        if self._config.shards > 1:
            accumulators = self._score_sharded(
                candidates, scored_features, top_k, support, self._config.shards,
                pruned, blockmax, columnar=False,
            )
        elif pruned:
            accumulators = support.score_entities_pruned(
                candidates,
                scored_features,
                top_k,
                self._pruning_stats,
                blockmax=blockmax,
                feature_chunk=self._config.feature_chunk,
            )
        else:
            accumulators = support.score_entities(candidates, scored_features)
        # Accumulator totals can differ from exhaustive scores by float
        # rounding (the decomposition associates the same terms
        # differently), so select with a safety margin, re-score the
        # survivors exactly, and only then truncate: a selection mismatch
        # would now need more than _SELECTION_MARGIN candidates packed
        # within rounding error of the k-th score.  Exact score ties are
        # unaffected — identical (type, held-feature) computations produce
        # identical accumulators, and both orderings fall back to entity_id.
        selected = select_top_k(accumulators, top_k + _SELECTION_MARGIN)
        if pruned:
            self._pruning_stats.rescored += len(selected)
        rescored = [
            self._score_entity_via_support(entity_id, scored_features, support)
            for entity_id, _ in selected
        ]
        rescored.sort(key=lambda item: (-item.score, item.entity_id))
        return rescored[:top_k]

    def _rank_arrays(
        self,
        tables: ColumnarFeatureTables,
        candidates: np.ndarray,
        scored_features: Sequence[ScoredFeature],
        top_k: int,
        support,
    ) -> list[ScoredEntity]:
        """:meth:`rank` over candidate ordinals of the pinned ``tables``.

        The kernel picks the ``top_k + margin`` survivors; the epilogue
        builds their dense ``p(pi|e)`` rows
        (:meth:`ColumnarFeatureTables.probabilities`), multiplies by the
        feature relevance and adds each row up left to right — a
        ``cumsum``, never ``sum``/``@``, whose pairwise or blocked
        association would change the last bit — which is term for term
        what :meth:`score_entity` does.  Ordinals are in identifier
        order, so ``lexsort((ordinal, -score))`` is the exhaustive
        ``(-score, entity_id)`` order.
        """
        config = self._config
        feature_ordinals = tables.feature_ordinals(
            [scored.feature.key for scored in scored_features]
        )
        relevance = [scored.score for scored in scored_features]
        pruned = config.pruning in PRUNED_MODES
        blockmax = config.pruning == "blockmax"
        budget = top_k + _SELECTION_MARGIN
        if config.shards > 1:
            # Shards are routed by identifier, so the fan-out takes ids.
            ids = tables.entity_ids
            accumulators = self._score_sharded(
                [ids[ordinal] for ordinal in candidates.tolist()],
                scored_features, top_k, support, config.shards, pruned, blockmax, columnar=True,
            )
            selected = tables.entity_ordinals(
                [entity_id for entity_id, _ in select_top_k(accumulators, budget)]
            )
        else:
            inputs = build_ranker_inputs(
                tables, feature_ordinals, relevance, candidates,
                config.epsilon, type_smoothing=config.type_smoothing,
            )
            if pruned:
                selected, _ = columnar_rank(
                    inputs, top_k, self._pruning_stats,
                    blockmax=blockmax, feature_chunk=config.feature_chunk,
                )
            else:
                selected = select_survivor_ordinals(
                    inputs.ordinals, accumulate_rank(inputs), top_k
                )
        if pruned:
            self._pruning_stats.rescored += int(selected.size)

        contributions = tables.probabilities(
            selected, feature_ordinals, config.epsilon, config.type_smoothing
        ) * np.asarray(relevance, dtype=np.float64)
        if contributions.shape[1]:
            totals = np.cumsum(contributions, axis=1)[:, -1]
        else:
            totals = np.zeros(selected.size, dtype=np.float64)
        order = np.lexsort((selected, -totals))[:top_k]
        notations = [scored.feature.notation() for scored in scored_features]
        ids = tables.entity_ids
        return [
            ScoredEntity(
                entity_id=ids[ordinal],
                score=score,
                contributions=FrozenMapping(
                    {
                        notation: contribution
                        for notation, contribution in zip(notations, row)
                        if contribution > 0.0
                    }
                ),
            )
            for ordinal, score, row in zip(
                selected[order].tolist(), totals[order].tolist(), contributions[order].tolist()
            )
        ]

    def _score_sharded(
        self,
        candidates: Sequence[str],
        scored_features: Sequence[ScoredFeature],
        top_k: int,
        support,
        num_shards: int,
        pruned: bool,
        blockmax: bool,
        columnar: bool,
    ) -> dict[str, float]:
        """Fan the entity accumulator out over candidate shards and merge.

        The candidate id space is partitioned (via the sharded feature
        index's routing memo when available, CRC otherwise — same
        assignment either way); each shard worker scores its bucket
        through the shared, snapshot-pinned support with a private
        :class:`PruningStats` (merged afterwards, the logical query
        counted once) and, in the pruned modes, the cross-shard θ
        broadcast.  Survivor values are the exact accumulator floats the
        serial walk produces (a candidate's decomposition never depends
        on which other candidates share its map), so merging the disjoint
        maps and re-scoring the margin-guarded selection — the caller's
        existing epilogue — keeps the ranking byte-identical.  With
        ``columnar`` on, pruned shards run the array kernel (in the
        multiprocess tier when the executor is a process pool, closures
        otherwise); each shard keeps only its top-(k+margin) survivors,
        which is still a superset of the global top-(k+margin) because
        the global selection is contained in the union of the per-shard
        ones.
        """
        index = self._index
        if (
            hasattr(index, "partition_entities")
            and getattr(index, "num_shards", None) == num_shards
        ):
            shards = index.partition_entities(candidates)
        else:
            shards = partition_ids(candidates, num_shards)
        if pruned:
            if columnar:
                merged = self._columnar_sharded_pruned(
                    shards, scored_features, top_k, support, blockmax
                )
                if merged is not None:
                    return merged
            shared = SharedThreshold(top_k)

            def worker(shard: Sequence[str]) -> tuple[dict[str, float], PruningStats]:
                local = PruningStats()
                survivors = support.score_entities_pruned(
                    shard,
                    scored_features,
                    top_k,
                    local,
                    blockmax=blockmax,
                    shared=shared.slot(),
                    feature_chunk=self._config.feature_chunk,
                )
                return survivors, local

            results = self._executor().run(
                [lambda shard=shard: worker(shard) for shard in shards if shard]
            )
            merge_shard_stats(self._pruning_stats, [local for _, local in results])
            shard_maps = [survivors for survivors, _ in results]
        elif columnar:

            def accumulate(shard: Sequence[str]) -> dict[str, float]:
                survivors = support.score_entities_columnar(shard, scored_features)
                if survivors is None:
                    survivors = support.score_entities(shard, scored_features)
                return survivors

            shard_maps = self._executor().run(
                [lambda shard=shard: accumulate(shard) for shard in shards if shard]
            )
        else:
            shard_maps = self._executor().run(
                [
                    lambda shard=shard: support.score_entities(shard, scored_features)
                    for shard in shards
                    if shard
                ]
            )
        return merge_shard_maps(shard_maps)

    def _columnar_sharded_pruned(
        self,
        shards: Sequence[Sequence[str]],
        scored_features: Sequence[ScoredFeature],
        top_k: int,
        support,
        blockmax: bool,
    ) -> dict[str, float] | None:
        """The columnar pruned fan-out (``None`` → scalar closures).

        A process executor first tries the multiprocess tier (published
        shared-memory feature tables + picklable shard recipes); the
        thread/inline tiers run the kernel per shard through closures
        over the parent's tables.  A shard whose candidates miss the
        tables recovers through the scalar walk on its own θ slot —
        survivor values are exact accumulators in both arms, so mixed
        shards still merge byte-identically.
        """
        if support.columnar_tables() is None:
            return None
        feature_chunk = self._config.feature_chunk
        executor = self._executor()
        if getattr(executor, "is_process", False):
            merged = self._process_columnar_rank(
                shards, scored_features, top_k, support, blockmax, executor
            )
            if merged is not None:
                return merged
        shared = SharedThreshold(top_k)

        def worker(shard: Sequence[str]) -> tuple[dict[str, float], PruningStats]:
            local = PruningStats()
            slot = shared.slot()
            survivors = support.score_entities_pruned_columnar(
                shard,
                scored_features,
                top_k,
                local,
                blockmax=blockmax,
                shared=slot,
                feature_chunk=feature_chunk,
            )
            if survivors is None:
                survivors = support.score_entities_pruned(
                    shard,
                    scored_features,
                    top_k,
                    local,
                    blockmax=blockmax,
                    shared=slot,
                    feature_chunk=feature_chunk,
                )
            return survivors, local

        results = self._executor().run(
            [lambda shard=shard: worker(shard) for shard in shards if shard]
        )
        merge_shard_stats(self._pruning_stats, [local for _, local in results])
        return merge_shard_maps([survivors for survivors, _ in results])

    def _process_columnar_rank(
        self,
        shards: Sequence[Sequence[str]],
        scored_features: Sequence[ScoredFeature],
        top_k: int,
        support,
        blockmax: bool,
        executor,
    ) -> dict[str, float] | None:
        """Dispatch the ranker shard fan-out to the multiprocess tier.

        One task per shard: the parent runs shard 0 inline through its
        fallback closure (holding a slot on the shared θ slab) and ships
        the rest a picklable plan — the descriptor of the published
        feature-table snapshot plus the query recipe (feature
        ordinals, relevance scores, candidate ordinals, smoothing knobs)
        from which the worker rebuilds the exact kernel inputs against
        its zero-copy tables.  Returns ``None`` when the tables cannot
        be published or a candidate id has no ordinal, so the caller
        falls through to the closure-based fan-out.
        """
        tables = support.columnar_tables()
        if tables is None or tables.ordinal_of is None:
            return None
        uid = getattr(self._index, "uid", None)
        if uid is None:
            return None
        ordinal_of = tables.ordinal_of
        shard_ordinals: list[np.ndarray] = []
        for shard in shards:
            ordinals = np.empty(len(shard), dtype=np.int64)
            for position, entity_id in enumerate(shard):
                ordinal = ordinal_of.get(entity_id)
                if ordinal is None:
                    return None
                ordinals[position] = ordinal
            shard_ordinals.append(np.unique(ordinals))
        snapshot = snapshot_registry().publish(
            SnapshotSource(uid, tables.epoch), tables, builder=publish_feature_tables
        )
        if snapshot is None:
            return None
        feature_ordinals = tables.feature_ordinals(
            [scored.feature.key for scored in scored_features]
        )
        relevance = [scored.score for scored in scored_features]
        feature_chunk = self._config.feature_chunk
        slab = ThetaSlab.create(top_k, len(shard_ordinals))
        try:
            tasks = []
            for shard, ordinals in enumerate(shard_ordinals):
                payload = {
                    "kind": "rank",
                    "snapshot": snapshot.descriptor,
                    "theta": slab.descriptor,
                    "slot": shard,
                    "top_k": top_k,
                    "blockmax": blockmax,
                    "feature_chunk": feature_chunk,
                    "features": feature_ordinals,
                    "relevance": relevance,
                    "candidates": ordinals,
                    "epsilon": support.epsilon,
                    "type_smoothing": self._config.type_smoothing,
                }

                def fallback(shard=shard, ordinals=ordinals):
                    local = PruningStats()
                    inputs = support.kernel_inputs(tables, ordinals, scored_features)
                    picked, values = columnar_rank(
                        inputs,
                        top_k,
                        local,
                        blockmax=blockmax,
                        feature_chunk=feature_chunk,
                        shared=slab.slot(shard),
                    )
                    return picked, values, local

                tasks.append(ProcessTask(payload, fallback))
            results = executor.run_tasks(tasks)
        finally:
            slab.close()
        merge_shard_stats(
            self._pruning_stats, [shard_stats_from(counters) for _, _, counters in results]
        )
        ids = tables.entity_ids
        merged: dict[str, float] = {}
        for ordinals, values, _ in results:
            for ordinal, value in zip(
                np.asarray(ordinals).tolist(), np.asarray(values).tolist()
            ):
                merged[ids[int(ordinal)]] = value
        return merged

    def _score_entity_via_support(
        self, entity_id: str, scored_features: Sequence[ScoredFeature], support
    ) -> ScoredEntity:
        """:meth:`score_entity` through the memoised probability lookups.

        ``RankingSupport.probability`` returns the same floats as the
        model, so the result is identical to :meth:`score_entity` — just
        without re-deriving dominant types and type-conditional counts.
        """
        contributions: dict[str, float] = {}
        total = 0.0
        for scored in scored_features:
            probability = support.probability(scored.feature, entity_id)
            contribution = probability * scored.score
            if contribution > 0.0:
                contributions[scored.feature.notation()] = contribution
            total += contribution
        return ScoredEntity(
            entity_id=entity_id, score=total, contributions=FrozenMapping(contributions)
        )

    def rank_exhaustive(
        self,
        seeds: Sequence[str],
        top_k: int | None = None,
        scored_features: Sequence[ScoredFeature] | None = None,
        candidates: Sequence[str] | None = None,
    ) -> list[ScoredEntity]:
        """The seed scoring path: score every candidate, sort, truncate.

        Kept as the reference implementation the accumulator path is
        verified against (see ``tests/test_ranking_accumulator.py``), the
        same contract the search engine's ``search_exhaustive()`` follows.
        """
        if not seeds:
            raise NoSeedEntitiesError("cannot rank entities for an empty seed set")
        for seed in seeds:
            self._graph.require_entity(seed)
        top_k = top_k or self._config.top_entities
        if scored_features is None:
            scored_features = self._feature_ranker.rank_exhaustive(seeds)
        if candidates is None:
            candidates = self.candidates(seeds, scored_features)
        scored = [self.score_entity(entity_id, scored_features) for entity_id in candidates]
        scored.sort(key=lambda item: (-item.score, item.entity_id))
        return scored[:top_k]

    def rank_with_features(
        self,
        seeds: Sequence[str],
        top_entities: int | None = None,
        top_features: int | None = None,
    ) -> tuple[list[ScoredEntity], list[ScoredFeature]]:
        """Rank both entities and features for a query in one call.

        This is the recommendation-engine entry point the PivotE facade
        uses: the returned pair is exactly the x-axis and y-axis of the
        matrix interface.
        """
        if not seeds:
            raise NoSeedEntitiesError("cannot rank an empty seed set")
        scored_features = self._feature_ranker.rank(seeds, top_k=top_features)
        scored_entities = self.rank(
            seeds, top_k=top_entities, scored_features=scored_features
        )
        return scored_entities, scored_features

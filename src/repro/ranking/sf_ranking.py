"""The ranking model of semantic features (§2.3.1).

The relevance of a semantic feature ``pi`` to a query ``Q`` (a set of seed
entities) is the product of its *discriminability* and its *commonality*:

    r(pi, Q) = d(pi) * c(pi, Q)

* discriminability ``d(pi) = 1 / ||E(pi)||`` — an IDF-style weight that
  damps features shared by many entities;
* commonality ``c(pi, Q) = prod_{e in Q} p(pi | e)`` — how consistently the
  seeds hold (or, via type smoothing, are expected to hold) the feature.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from ..config import RankingConfig
from ..exceptions import NoSeedEntitiesError
from ..features import Direction, SemanticFeature, SemanticFeatureIndex
from ..features.columnar import ColumnarFeatureTables
from ..features.semantic_feature import key_notation
from ..kg import KnowledgeGraph
from ..kg.columns import isin_sorted, sorted_unique, unique_inverse
from .probability import FeatureProbabilityModel
from .ranking_support import FrozenMapping


@dataclass(frozen=True)
class ScoredFeature:
    """A ranked semantic feature with its score decomposition."""

    feature: SemanticFeature
    score: float
    discriminability: float
    commonality: float
    seed_probabilities: Mapping[str, float]

    def as_dict(self) -> dict[str, object]:
        return {
            "feature": self.feature.notation(),
            "score": self.score,
            "discriminability": self.discriminability,
            "commonality": self.commonality,
            "seed_probabilities": dict(self.seed_probabilities),
        }


class SemanticFeatureRanker:
    """Ranks the semantic features of a seed set (the y-axis of the matrix)."""

    def __init__(
        self,
        graph: KnowledgeGraph,
        feature_index: SemanticFeatureIndex,
        config: RankingConfig | None = None,
        probability_model: FeatureProbabilityModel | None = None,
    ) -> None:
        self._graph = graph
        self._index = feature_index
        self._config = config or RankingConfig()
        self._probability = probability_model or FeatureProbabilityModel(
            graph,
            feature_index,
            type_smoothing=self._config.type_smoothing,
            epsilon=self._config.epsilon,
        )

    @property
    def probability_model(self) -> FeatureProbabilityModel:
        """The shared ``p(pi|e)`` model (reused by the entity ranker)."""
        return self._probability

    # ------------------------------------------------------------------ #
    # Score components
    # ------------------------------------------------------------------ #
    def discriminability(self, feature: SemanticFeature) -> float:
        """``d(pi) = 1 / ||E(pi)||`` (0 for features matching nothing)."""
        count = self._index.matching_count(feature)
        if count == 0:
            return 0.0
        return 1.0 / count

    def commonality(self, feature: SemanticFeature, seeds: Sequence[str]) -> float:
        """``c(pi, Q) = prod_{e in Q} p(pi | e)``."""
        product = 1.0
        for seed in seeds:
            product *= self._probability.probability(feature, seed)
        return product

    def score_feature(self, feature: SemanticFeature, seeds: Sequence[str]) -> ScoredFeature:
        """Compute the full score decomposition of one feature."""
        if not seeds:
            raise NoSeedEntitiesError("cannot score a feature against an empty seed set")
        seed_probabilities = {
            seed: self._probability.probability(feature, seed) for seed in seeds
        }
        commonality = 1.0
        for probability in seed_probabilities.values():
            commonality *= probability
        discriminability = self.discriminability(feature)
        score = 1.0
        if self._config.use_discriminability:
            score *= discriminability
        if self._config.use_commonality:
            score *= commonality
        if not self._config.use_discriminability and not self._config.use_commonality:
            score = 0.0
        return ScoredFeature(
            feature=feature,
            score=score,
            discriminability=discriminability,
            commonality=commonality,
            # Read-only view: scored features are shared by the engine's
            # recommendation cache, so one caller's in-place edit must not
            # corrupt later cache hits (same protection as the frozen
            # correlation-matrix array).
            seed_probabilities=FrozenMapping(seed_probabilities),
        )

    # ------------------------------------------------------------------ #
    # Ranking
    # ------------------------------------------------------------------ #
    def candidate_features(self, seeds: Sequence[str]) -> list[SemanticFeature]:
        """The feature pool ``Phi(Q)``: features held by at least one seed.

        Features anchored at a seed itself are excluded — recommending
        ``Forrest_Gump:starring`` back to a query seeded with Forrest Gump
        would be circular.
        """
        if not seeds:
            raise NoSeedEntitiesError("cannot derive features from an empty seed set")
        seed_set = set(seeds)
        holders = self._index.features_of_any(seeds)
        features = [feature for feature in holders if feature.anchor not in seed_set]
        features.sort()
        if len(features) > self._config.max_features:
            # Keep the features shared by the most seeds (ties by notation
            # for determinism) so that truncation is stable and meaningful.
            features.sort(key=lambda f: (-len(holders[f]), f.notation()))
            features = features[: self._config.max_features]
            features.sort()
        return features

    def rank(
        self,
        seeds: Sequence[str],
        top_k: int | None = None,
        candidates: Sequence[SemanticFeature] | None = None,
    ) -> list[ScoredFeature]:
        """Rank semantic features for a seed set (the fast path).

        The pool ``Phi(Q)`` and every score are arrays over the pinned
        snapshot's feature tables (:meth:`_rank_arrays`); feature objects
        are built for the winners only.  An explicit ``candidates`` pool
        and a seed the tables do not know run :meth:`rank_exhaustive`
        instead, counted by reason on ``probability_model.stages``.  The
        array form applies :meth:`score_feature`'s arithmetic float for
        float, so both forms return the same ranking.

        Parameters
        ----------
        seeds:
            The example entities of the query ``Q``.
        top_k:
            Number of features to return (defaults to the config value).
        candidates:
            Optional explicit feature pool; by default ``Phi(Q)`` is used.
        """
        self._validate(seeds)
        support = self._probability.support()
        stages = self._probability.stages
        # score_feature multiplies one probability per *distinct* seed (its
        # per-seed map deduplicates); the array form mirrors that.
        unique_seeds = list(dict.fromkeys(seeds))
        if candidates is not None:
            reason = "explicit-pool"
        else:
            tables, seed_ordinals, reason = support.ordinal_space(unique_seeds)
        if reason:
            stages.fell_back("sf_rank", reason, support.epoch)
            return self.rank_exhaustive(seeds, top_k=top_k, candidates=candidates)
        stages.ran("sf_rank")
        return self._rank_arrays(
            tables, unique_seeds, seed_ordinals, top_k or self._config.top_features
        )

    def _rank_arrays(
        self,
        tables: ColumnarFeatureTables,
        seeds: Sequence[str],
        seed_ordinals: np.ndarray,
        top_k: int,
    ) -> list[ScoredFeature]:
        """:meth:`rank` over feature ordinals of the pinned tables.

        ``seeds`` are distinct, ``seed_ordinals`` their ordinals.  The
        pool is the sorted union of the seeds' feature rows minus the
        features anchored at a seed (ordinal order is
        ``SemanticFeature`` order); ``d``, every ``p(pi|seed)`` and the
        seed-order product ``c`` are one array each, computed with the
        IEEE operations the scalar model applies to one feature at a
        time.  Everything tied with the ``top_k``-th score is kept, so
        the final ``(-score, notation)`` order cuts among the features
        the exhaustive sort would cut among; objects are built for the
        winners.
        """
        config = self._config
        topology = tables.topology
        rows = topology.feature_rows(seed_ordinals.tolist())
        pool = sorted_unique(np.concatenate(rows)) if len(rows) > 1 else rows[0]
        circular = np.zeros(pool.size, dtype=bool)
        for ordinal in seed_ordinals.tolist():
            low, high = topology.anchored_range(ordinal)
            circular |= (pool >= low) & (pool < high)
        pool = pool[~circular]
        held = [isin_sorted(row, pool) for row in rows]
        if pool.size > config.max_features:
            # Keep the features shared by the most seeds, ties by notation.
            holding = np.sum(held, axis=0)
            cut = np.sort(holding)[pool.size - config.max_features]
            kept = holding > cut
            tied = np.flatnonzero(holding == cut)
            notations = list(map(key_notation, tables.feature_keys(pool[tied])))
            order = sorted(range(tied.size), key=notations.__getitem__)
            kept[tied[order[: config.max_features - int(kept.sum())]]] = True
            pool = pool[kept]
            held = [mask[kept] for mask in held]

        sizes = tables.holder_sizes(pool)
        discriminability = 1.0 / sizes
        types, type_rows = unique_inverse(tables.dominant_ords[seed_ordinals])
        # p(pi|seed) is 1.0 where the seed holds pi; the type-based estimate
        # is only looked up for the features some seed lacks (none of them
        # when there is one seed).
        base = np.ones((types.size, pool.size), dtype=np.float64)
        lacked = np.flatnonzero(~np.logical_and.reduce(held))
        if lacked.size:
            base[:, lacked], _ = tables.base_probabilities(
                pool[lacked], types, config.epsilon, config.type_smoothing
            )
        probabilities = [
            np.where(mask, 1.0, base[row]) for mask, row in zip(held, type_rows.tolist())
        ]
        commonality = np.ones(pool.size, dtype=np.float64)
        for probability in probabilities:
            commonality = commonality * probability
        if config.use_discriminability or config.use_commonality:
            score = np.ones(pool.size, dtype=np.float64)
            if config.use_discriminability:
                score = score * discriminability
            if config.use_commonality:
                score = score * commonality
        else:
            score = np.zeros(pool.size, dtype=np.float64)

        # Everything above the top_k-th score is in; the features tied
        # with it compete by notation alone.
        if top_k < pool.size:
            cut_score = np.partition(score, pool.size - top_k)[pool.size - top_k]
            above, tied = np.flatnonzero(score > cut_score), np.flatnonzero(score == cut_score)
        else:
            above, tied = np.arange(pool.size), np.empty(0, dtype=np.int64)
        chosen = np.concatenate((above, tied))
        keys = tables.feature_keys(pool[chosen])
        notations = list(map(key_notation, keys))
        scores = score[chosen].tolist()
        order = sorted(
            range(above.size), key=lambda position: (-scores[position], notations[position])
        )
        order += sorted(range(above.size, chosen.size), key=notations.__getitem__)[
            : top_k - above.size
        ]
        winners = chosen[order]
        seed_columns = [probability[winners].tolist() for probability in probabilities]
        return [
            ScoredFeature(
                feature=SemanticFeature(anchor, predicate, Direction(direction)),
                score=scores[position],
                discriminability=d,
                commonality=c,
                seed_probabilities=FrozenMapping(dict(zip(seeds, row))),
            )
            for position, (anchor, predicate, direction), d, c, row in zip(
                order,
                (keys[position] for position in order),
                discriminability[winners].tolist(),
                commonality[winners].tolist(),
                zip(*seed_columns),
            )
        ]

    def rank_exhaustive(
        self,
        seeds: Sequence[str],
        top_k: int | None = None,
        candidates: Sequence[SemanticFeature] | None = None,
    ) -> list[ScoredFeature]:
        """The seed scoring path: score every pool feature, sort, truncate.

        The reference the array form is verified against and the form
        :meth:`rank` falls back to.  A feature repeated in ``candidates``
        is scored once, at its first occurrence.
        """
        pool = self._validated_pool(seeds, candidates)
        top_k = top_k or self._config.top_features
        scored = [self.score_feature(feature, seeds) for feature in pool]
        scored.sort(key=lambda item: (-item.score, item.feature.notation()))
        return scored[:top_k]

    def _validate(self, seeds: Sequence[str]) -> None:
        if not seeds:
            raise NoSeedEntitiesError("cannot rank features for an empty seed set")
        for seed in seeds:
            self._graph.require_entity(seed)

    def _validated_pool(
        self, seeds: Sequence[str], candidates: Sequence[SemanticFeature] | None
    ) -> list[SemanticFeature]:
        self._validate(seeds)
        if candidates is None:
            return self.candidate_features(seeds)
        return list(dict.fromkeys(candidates))

"""Equivalence of accumulator-based top-k retrieval with exhaustive scoring.

The accumulator hot path (term-at-a-time traversal + bounded-heap top-k,
see ``repro.index.scoring_support``) must produce byte-identical rankings
to the score-all-then-sort reference path for every scorer, on every
dataset, under both smoothing strategies and the ``(-score, doc_id)``
tie-break.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PRUNING_MODES, SearchConfig
from repro.datasets import RandomKGConfig, build_random_kg
from repro.search import SearchEngine, parse_query

QUERIES = (
    "forrest gump",
    "drama",
    "film director",
    "the science of research",
    "names:gump",
    'gump "forrest gump" categories:drama',
    "a",
)

TOP_KS = (1, 5, 20, 10_000)


def _queries_for(graph, limit: int = 12):
    """Multi-term queries derived from the dataset's own labels."""
    queries = list(QUERIES)
    for entity_id in sorted(graph.entities())[:limit]:
        label = graph.label(entity_id)
        if label and label.strip():
            queries.append(label)
    return queries


def _assert_identical(fast_results, slow_results):
    assert len(fast_results) == len(slow_results)
    for fast, slow in zip(fast_results, slow_results):
        assert fast.doc_id == slow.doc_id
        assert fast.score == slow.score  # byte-identical, no tolerance
        assert dict(fast.term_scores) == dict(slow.term_scores)


@pytest.fixture(scope="module", params=["movie", "academic"])
def dataset_engine(request, movie_kg, academic_kg):
    graph = movie_kg if request.param == "movie" else academic_kg
    return graph, SearchEngine.from_graph(graph)


class TestAccumulatorEquivalence:
    def test_mlm_matches_exhaustive(self, dataset_engine):
        graph, engine = dataset_engine
        scorer = engine.mlm_scorer
        for raw in _queries_for(graph):
            try:
                query = parse_query(raw)
            except Exception:
                continue
            for top_k in TOP_KS:
                _assert_identical(
                    scorer.search(query, top_k=top_k),
                    scorer.search_exhaustive(query, top_k=top_k),
                )

    def test_single_field_matches_exhaustive(self, dataset_engine):
        graph, engine = dataset_engine
        scorer = engine.single_field_scorer("names")
        for raw in _queries_for(graph):
            query = parse_query(raw)
            for top_k in TOP_KS:
                _assert_identical(
                    scorer.search(query, top_k=top_k),
                    scorer.search_exhaustive(query, top_k=top_k),
                )

    def test_bm25_matches_exhaustive(self, dataset_engine):
        graph, engine = dataset_engine
        scorer = engine.bm25_names_scorer()
        for raw in _queries_for(graph):
            query = parse_query(raw)
            for top_k in TOP_KS:
                _assert_identical(
                    scorer.search(query, top_k=top_k),
                    scorer.search_exhaustive(query, top_k=top_k),
                )

    def test_bm25f_matches_exhaustive(self, dataset_engine):
        graph, engine = dataset_engine
        scorer = engine.bm25f_scorer()
        for raw in _queries_for(graph):
            query = parse_query(raw)
            for top_k in TOP_KS:
                _assert_identical(
                    scorer.search(query, top_k=top_k),
                    scorer.search_exhaustive(query, top_k=top_k),
                )

    def test_jelinek_mercer_smoothing_matches(self, movie_kg):
        config = SearchConfig(smoothing="jelinek-mercer", jm_lambda=0.3)
        engine = SearchEngine.from_graph(movie_kg, config=config)
        scorer = engine.mlm_scorer
        for raw in _queries_for(movie_kg, limit=6):
            query = parse_query(raw)
            _assert_identical(
                scorer.search(query, top_k=25),
                scorer.search_exhaustive(query, top_k=25),
            )

    def test_field_restrictions_match(self, movie_system):
        scorer = movie_system.search_engine.mlm_scorer
        query = parse_query("names:gump categories:drama forrest")
        _assert_identical(
            scorer.search(query, top_k=15), scorer.search_exhaustive(query, top_k=15)
        )

    def test_tiny_kg_all_scorers(self, tiny_kg):
        engine = SearchEngine.from_graph(tiny_kg)
        scorers = [
            engine.mlm_scorer,
            engine.single_field_scorer("names"),
            engine.bm25_names_scorer(),
            engine.bm25f_scorer(),
        ]
        query = parse_query("film drama actor")
        for scorer in scorers:
            for top_k in (1, 3, 100):
                _assert_identical(
                    scorer.search(query, top_k=top_k),
                    scorer.search_exhaustive(query, top_k=top_k),
                )


def _all_scorers(engine: SearchEngine):
    return [
        ("mlm", engine.mlm_scorer),
        ("single", engine.single_field_scorer("names")),
        ("bm25", engine.bm25_names_scorer()),
        ("bm25f", engine.bm25f_scorer()),
    ]


class TestMaxscorePruningEquivalence:
    """``pruning="maxscore"`` must be byte-identical to exhaustive scoring.

    The default engine configuration enables pruning, so the equivalence
    tests above already exercise it; these tests pin the contract down
    explicitly — pruned vs plain-accumulator vs exhaustive for all four
    scorers — and add the LM smoothing edge cases and the property-based
    random-graph check the threshold-pruning layer demands.
    """

    def test_pruned_equals_plain_accumulator_and_exhaustive(self, movie_kg):
        pruned_engine = SearchEngine.from_graph(movie_kg, config=SearchConfig(pruning="maxscore"))
        plain_engine = SearchEngine.from_graph(movie_kg, config=SearchConfig(pruning="off"))
        for raw in _queries_for(movie_kg, limit=8):
            query = parse_query(raw)
            for (_, pruned), (_, plain) in zip(
                _all_scorers(pruned_engine), _all_scorers(plain_engine)
            ):
                for top_k in (1, 5, 20, 10_000):
                    pruned_results = pruned.search(query, top_k=top_k)
                    _assert_identical(pruned_results, plain.search(query, top_k=top_k))
                    _assert_identical(pruned_results, pruned.search_exhaustive(query, top_k=top_k))

    @pytest.mark.parametrize(
        "smoothing_changes",
        [
            {"smoothing": "dirichlet", "dirichlet_mu": 0.5},
            {"smoothing": "dirichlet", "dirichlet_mu": 5000.0},
            {"smoothing": "jelinek-mercer", "jm_lambda": 0.0},
            {"smoothing": "jelinek-mercer", "jm_lambda": 1.0},
            {"smoothing": "jelinek-mercer", "jm_lambda": 0.5},
        ],
    )
    @pytest.mark.parametrize("mode", PRUNING_MODES)
    def test_lm_smoothing_edge_cases(self, movie_kg, smoothing_changes, mode):
        config = SearchConfig(pruning=mode, **smoothing_changes)
        engine = SearchEngine.from_graph(movie_kg, config=config)
        for scorer in (engine.mlm_scorer, engine.single_field_scorer("names")):
            for raw in _queries_for(movie_kg, limit=5):
                query = parse_query(raw)
                _assert_identical(
                    scorer.search(query, top_k=15),
                    scorer.search_exhaustive(query, top_k=15),
                )

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        kg_seed=st.integers(min_value=0, max_value=10_000),
        num_entities=st.integers(min_value=20, max_value=120),
        top_k=st.integers(min_value=1, max_value=30),
        smoothing=st.sampled_from(["dirichlet", "jelinek-mercer"]),
        pruning=st.sampled_from(PRUNING_MODES),
    )
    def test_random_kg_property(self, kg_seed, num_entities, top_k, smoothing, pruning):
        graph = build_random_kg(RandomKGConfig(num_entities=num_entities, seed=kg_seed))
        config = SearchConfig(pruning=pruning, smoothing=smoothing)
        engine = SearchEngine.from_graph(graph, config=config)
        entities = sorted(graph.entities())
        queries = [
            graph.label(entities[kg_seed % len(entities)]),
            graph.label(entities[0]) + " " + graph.label(entities[-1]),
        ]
        for raw in queries:
            query = parse_query(raw)
            for _, scorer in _all_scorers(engine):
                _assert_identical(
                    scorer.search(query, top_k=top_k),
                    scorer.search_exhaustive(query, top_k=top_k),
                )

    def test_pruning_counters_fire_at_scale(self):
        graph = build_random_kg(RandomKGConfig(num_entities=500, seed=42))
        engine = SearchEngine.from_graph(graph)
        entities = sorted(graph.entities())
        for entity_id in entities[:6]:
            query = parse_query(graph.label(entities[0]) + " " + graph.label(entity_id))
            engine.mlm_scorer.search(query, top_k=5)
        info = engine.pruning_info()
        assert info["queries"] > 0
        assert info["candidates_total"] > 0
        assert info["candidates_pruned"] > 0  # smoothing no longer scores everyone
        assert info["rescored"] > 0
        bm25 = engine.bm25_names_scorer()
        # Many rare terms fill the θ heap before the ubiquitous "entity"
        # token, so its 500-document postings walk is refined instead.
        long_query = parse_query(" ".join(graph.label(e) for e in entities[:8]))
        bm25.search(long_query, top_k=5)
        bm25_info = bm25.pruning_info()
        assert bm25_info["queries"] == 1
        assert bm25_info["terms_skipped"] + bm25_info["candidates_pruned"] > 0

    def test_sharded_theta_priming_prunes(self):
        """The subset-pool θ prime hands every shard a near-final θ."""
        graph = build_random_kg(RandomKGConfig(num_entities=500, seed=42))
        engine = SearchEngine.from_graph(graph, config=SearchConfig(shards=3))
        entities = sorted(graph.entities())
        for entity_id in entities[:6]:
            query = parse_query(graph.label(entities[0]) + " " + graph.label(entity_id))
            _assert_identical(
                engine.mlm_scorer.search(query, top_k=5),
                engine.mlm_scorer.search_exhaustive(query, top_k=5),
            )
        assert engine.pruning_info()["candidates_pruned"] > 0

    def test_pruning_off_disables_counters(self, movie_kg):
        engine = SearchEngine.from_graph(movie_kg, config=SearchConfig(pruning="off"))
        engine.search("forrest gump")
        assert engine.pruning_info()["queries"] == 0

    def test_invalid_pruning_mode_rejected(self):
        with pytest.raises(ValueError):
            SearchConfig(pruning="wand")


class TestEquivalenceAfterIndexMutation:
    def test_scorers_built_before_mutation_stay_equivalent(self, tiny_kg):
        """Both paths must agree even when the index grew under a live scorer.

        BM25 scorers snapshot N and average length at construction; the
        accumulator path must use the same snapshot, not fresh statistics
        (regression test for a divergence found in review).
        """
        engine = SearchEngine.from_graph(tiny_kg)
        scorers = [
            engine.mlm_scorer,
            engine.single_field_scorer("names"),
            engine.bm25_names_scorer(),
            engine.bm25f_scorer(),
        ]
        for number in range(5, 12):
            tiny_kg.add_label(f"ex:F{number}", f"F{number} Drama Film")
            tiny_kg.add_type(f"ex:F{number}", "ex:Film")
            engine.add_entity(f"ex:F{number}")
        for raw in ("film drama", "drama", "f5 film"):
            query = parse_query(raw)
            for scorer in scorers:
                for top_k in (3, 50):
                    _assert_identical(
                        scorer.search(query, top_k=top_k),
                        scorer.search_exhaustive(query, top_k=top_k),
                    )


class TestBoundCacheAcrossScorerSnapshots:
    def test_bm25f_scorers_with_different_snapshots_stay_sound(self, tiny_kg):
        """The memoised bound key must include the scorer's avg-length snapshot.

        Two BM25F scorers built before and after index growth share the
        epoch-current statistics object; a bound memoised by the newer
        scorer (smaller averages) would be unsound for the older one and
        could prune a true top-k document (regression test for a review
        finding).
        """
        engine = SearchEngine.from_graph(tiny_kg)
        old_scorer = engine.bm25f_scorer()
        for number in range(20, 29):
            tiny_kg.add_label(f"ex:S{number}", f"S{number} drama")
            tiny_kg.add_type(f"ex:S{number}", "ex:Film")
            engine.add_entity(f"ex:S{number}")
        new_scorer = engine.bm25f_scorer()
        for raw in ("drama film", "s20 drama", "film s21 drama"):
            query = parse_query(raw)
            # The newer snapshot memoises its bounds first ...
            new_scorer.search(query, top_k=5)
            # ... and the older scorer must still match its own exhaustive path.
            for scorer in (old_scorer, new_scorer):
                for top_k in (2, 5, 50):
                    _assert_identical(
                        scorer.search(query, top_k=top_k),
                        scorer.search_exhaustive(query, top_k=top_k),
                    )


class TestKernelColumnCacheAcrossScorerSnapshots:
    def test_scorers_with_different_snapshots_stay_sound(self, tiny_kg):
        """The memoised kernel columns must be idf-free.

        The column memo key cannot carry the construction-time document
        count: two scorers built before and after index growth share the
        epoch-current view, so the cached columns are the
        weight-independent parts and each scorer multiplies its own idf
        snapshot outside the memo.  A weight-scaled cache entry from the
        older scorer (larger idf per term) would otherwise serve the newer
        one, or vice versa.
        """
        engine = SearchEngine.from_graph(tiny_kg)
        old_scorers = [engine.bm25_names_scorer(), engine.bm25f_scorer()]
        for number in range(40, 49):
            tiny_kg.add_label(f"ex:B{number}", f"B{number} drama film")
            tiny_kg.add_type(f"ex:B{number}", "ex:Film")
            engine.add_entity(f"ex:B{number}")
        new_scorers = [engine.bm25_names_scorer(), engine.bm25f_scorer()]
        for raw in ("drama film", "b40 drama", "film b41 drama b42 b43 b44"):
            query = parse_query(raw)
            # The older snapshot memoises its per-term columns first ...
            for scorer in old_scorers:
                scorer.search(query, top_k=3)
            # ... and both snapshots must still match their own exhaustive
            # paths byte-for-byte.
            for scorer in (*old_scorers, *new_scorers):
                for top_k in (2, 5, 50):
                    _assert_identical(
                        scorer.search(query, top_k=top_k),
                        scorer.search_exhaustive(query, top_k=top_k),
                    )


class TestCachedStatisticsComponents:
    def test_collection_probability_memoised(self, tiny_kg):
        engine = SearchEngine.from_graph(tiny_kg)
        stats = engine.index.statistics()
        first = stats.collection_probability("names", "film")
        assert first > 0.0
        assert stats.collection_probability("names", "film") == first
        assert stats.collection_probability("names", "no-such-term") == 0.0

    def test_idf_memoised_and_matches_bm25(self, tiny_kg):
        from repro.search import idf as bm25_idf

        engine = SearchEngine.from_graph(tiny_kg)
        stats = engine.index.statistics()
        names = stats.field("names")
        expected = bm25_idf(names.document_count, names.document_frequency("film"))
        assert stats.idf("names", "film") == expected
        assert stats.idf("names", "film") == expected  # served from the memo

    def test_statistics_cached_per_epoch(self, tiny_kg):
        engine = SearchEngine.from_graph(tiny_kg)
        index = engine.index
        assert index.statistics() is index.statistics()
        epoch = index.epoch
        tiny_kg.add_label("ex:NEW", "New Entity")
        engine.add_entity("ex:NEW")
        # Mutations publish a copy-on-write successor (snapshot isolation):
        # the captured instance is untouched, the engine's current index
        # carries the advanced epoch and fresh statistics.
        assert index.epoch == epoch
        assert engine.index is not index
        assert engine.index.epoch > epoch
        assert engine.index.statistics().num_documents == engine.index.num_documents
        assert "ex:NEW" not in index


class TestBM25ZeroScoredTail:
    def test_zero_scored_candidates_included(self, tiny_kg):
        """Docs matching only in unscored fields keep their 0.0-score tail rank."""
        engine = SearchEngine.from_graph(tiny_kg)
        scorer = engine.bm25_names_scorer()
        # "drama" appears in category/related fields of films but in the
        # names field only for the genre entity, so the candidate set is
        # larger than the set of names matches.
        query = parse_query("drama")
        fast = scorer.search(query, top_k=50)
        slow = scorer.search_exhaustive(query, top_k=50)
        _assert_identical(fast, slow)
        assert any(result.score == 0.0 for result in fast)

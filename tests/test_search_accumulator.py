"""Equivalence of max-score top-k retrieval with exhaustive scoring.

The max-score kernel (``repro.topk.columnar_dense`` + the exact
re-scoring epilogue) must produce byte-identical rankings to the
score-all-then-sort reference path for both language-model scorers, on
every dataset, under both smoothing strategies and the
``(-score, doc_id)`` tie-break.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SearchConfig
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
    ]


class TestMaxscorePruningEquivalence:
    """The max-score kernel must be byte-identical to exhaustive scoring.

    Every search runs the kernel, so the equivalence tests above already
    exercise it; these tests add the LM smoothing edge cases, the
    property-based random-graph check the threshold-pruning layer
    demands, and the counters that show θ bites.
    """

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
    def test_lm_smoothing_edge_cases(self, movie_kg, smoothing_changes):
        config = SearchConfig(**smoothing_changes)
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
    )
    def test_random_kg_property(self, kg_seed, num_entities, top_k, smoothing):
        graph = build_random_kg(RandomKGConfig(num_entities=num_entities, seed=kg_seed))
        config = SearchConfig(smoothing=smoothing)
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
        info = engine.stats().pruning_view("mlm")
        assert info.queries > 0
        assert info.candidates_total > 0
        assert info.candidates_pruned > 0  # smoothing no longer scores everyone
        assert info.rescored > 0

    def test_two_term_queries_prune(self):
        """A rare label term tightens θ enough to evict the smoothing floor."""
        graph = build_random_kg(RandomKGConfig(num_entities=500, seed=42))
        engine = SearchEngine.from_graph(graph)
        entities = sorted(graph.entities())
        for entity_id in entities[:6]:
            query = parse_query(graph.label(entities[0]) + " " + graph.label(entity_id))
            _assert_identical(
                engine.mlm_scorer.search(query, top_k=5),
                engine.mlm_scorer.search_exhaustive(query, top_k=5),
            )
        assert engine.stats().pruning_view("mlm").candidates_pruned > 0

    def test_there_is_no_pruning_knob(self):
        """Max-score is the only top-k strategy: no config selects another."""
        with pytest.raises(TypeError):
            SearchConfig(pruning="off")  # type: ignore[call-arg]


class TestEquivalenceAfterIndexMutation:
    def test_scorers_built_before_mutation_stay_equivalent(self, tiny_kg):
        """Both paths must agree even when the index grew under a live scorer.

        A scorer keeps answering from the index snapshot it was built
        over, so its kernel and its reference see the same statistics.
        """
        engine = SearchEngine.from_graph(tiny_kg)
        scorers = [
            engine.mlm_scorer,
            engine.single_field_scorer("names"),
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


class TestCachedStatisticsComponents:
    def test_collection_probability_memoised(self, tiny_kg):
        engine = SearchEngine.from_graph(tiny_kg)
        names = engine.index.field_index("names")
        first = names.collection_probability("film")
        assert first > 0.0
        assert names._probabilities["film"] == first
        assert names.collection_probability("film") == first
        assert names.collection_probability("no-such-term") == 0.0

    def test_statistics_cached_per_epoch(self, tiny_kg):
        engine = SearchEngine.from_graph(tiny_kg)
        index = engine.index
        names = index.field_index("names")
        assert names.collection_probability("film") > 0.0
        epoch = index.epoch
        tiny_kg.add_label("ex:NEW", "New Entity")
        engine.add_entity("ex:NEW")
        # Mutations publish a copy-on-write successor (snapshot isolation):
        # the captured instance is untouched, the engine's current index
        # carries the advanced epoch and fresh statistics.
        assert index.epoch == epoch
        assert engine.index is not index
        assert engine.index.epoch > epoch
        assert not engine.index.field_index("names")._probabilities  # a fresh epoch memo
        assert names._probabilities  # the captured epoch keeps its own
        assert "ex:NEW" not in index and "ex:NEW" in engine.index

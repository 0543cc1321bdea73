"""Columnar execution equivalence: byte-identical to the scalar paths.

The contract of the PR 6 columnar layer (``repro.index.columnar`` +
``repro.topk.kernels``): with ``columnar=True`` (the default) every
scorer scores through the structure-of-arrays postings view and the
vectorized traversal kernels, and for every pruning mode, every shard
count and all four search scorers the rankings must be *exactly* the
rankings the scalar paths return — same ids, same floats — and both
must equal the exhaustive reference.  The suites here enforce that on
the synthetic movie graph and, via hypothesis, on random KGs; the view
tests pin the ordinal-table/block-grid invariants the kernels rely on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PRUNING_MODES, SearchConfig
from repro.datasets import RandomKGConfig, build_random_kg, small_movie_kg
from repro.exec import shard_of
from repro.index import BLOCK_SIZE, columnar_view
from repro.search import BM25FieldScorer, BM25FScorer, SearchEngine, parse_query

SHARD_COUNTS = (1, 2, 3, 5)

QUERIES = (
    "forrest gump hanks",
    "drama 1994",
    "comedy director",
    "science fiction space",
    "robert",
)


def _signature(results) -> list[tuple[str, float]]:
    return [(result.doc_id, result.score) for result in results]


def _hit_signature(hits) -> list[tuple[str, float]]:
    return [(hit.entity_id, hit.score) for hit in hits]


@pytest.fixture(scope="module")
def movie_graph():
    return small_movie_kg()


@pytest.fixture(scope="module")
def engines(movie_graph):
    """Lazily built engines per (pruning, shards, columnar), module-shared."""
    cache: dict[tuple[str, int, bool], SearchEngine] = {}

    def get(pruning: str, shards: int, columnar: bool) -> SearchEngine:
        key = (pruning, shards, columnar)
        if key not in cache:
            cache[key] = SearchEngine.from_graph(
                movie_graph,
                SearchConfig(pruning=pruning, shards=shards, columnar=columnar),
            )
        return cache[key]

    return get


class TestColumnarSearchEquivalence:
    """All four scorers, every pruning mode, every shard count, on == off."""

    @pytest.mark.parametrize("pruning", PRUNING_MODES)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_engine_mlm_byte_identical(self, engines, pruning, shards):
        columnar = engines(pruning, shards, True)
        scalar = engines(pruning, shards, False)
        reference = engines("off", 1, False).mlm_scorer
        for query in QUERIES:
            actual = _hit_signature(columnar.search(query))
            assert actual == _hit_signature(scalar.search(query))
            expected = _signature(reference.search_exhaustive(parse_query(query)))
            assert actual[: len(expected)] == expected[: len(actual)]

    @pytest.mark.parametrize("pruning", PRUNING_MODES)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_single_field_byte_identical(self, engines, pruning, shards):
        columnar = engines(pruning, shards, True).single_field_scorer()
        scalar = engines(pruning, shards, False).single_field_scorer()
        for query in QUERIES:
            parsed = parse_query(query)
            expected = _signature(scalar.search(parsed, top_k=15))
            assert _signature(columnar.search(parsed, top_k=15)) == expected
            assert expected == _signature(scalar.search_exhaustive(parsed, top_k=15))

    @pytest.mark.parametrize("pruning", PRUNING_MODES)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_bm25_and_bm25f_byte_identical(self, engines, pruning, shards):
        base = engines("maxscore", 1, True)
        index = base.index
        weights = base.config.field_weights
        for columnar_scorer, scalar_scorer in (
            (
                BM25FieldScorer(index, "names", pruning=pruning, shards=shards, columnar=True),
                BM25FieldScorer(index, "names", pruning=pruning, shards=shards, columnar=False),
            ),
            (
                BM25FScorer(index, weights, pruning=pruning, shards=shards, columnar=True),
                BM25FScorer(index, weights, pruning=pruning, shards=shards, columnar=False),
            ),
        ):
            for query in QUERIES:
                parsed = parse_query(query)
                expected = _signature(scalar_scorer.search(parsed, top_k=15))
                assert _signature(columnar_scorer.search(parsed, top_k=15)) == expected
                assert expected == _signature(
                    scalar_scorer.search_exhaustive(parsed, top_k=15)
                )

    def test_columnar_engines_report_the_knob(self, engines):
        on = engines("maxscore", 1, True)
        off = engines("maxscore", 1, False)
        assert on.stats().columnar is True
        assert off.stats().columnar is False


class TestColumnarViewInvariants:
    """The ordinal-table/block-grid contracts the kernels rely on."""

    def test_ordinals_are_sorted_doc_id_order(self, engines):
        index = engines("maxscore", 1, True).index
        view = columnar_view(index)
        assert view.doc_ids == sorted(index.documents())
        ordinals = view.ordinals_of(view.doc_ids)
        assert ordinals.tolist() == list(range(view.num_documents))
        assert view.ids_of(ordinals) == view.doc_ids

    def test_view_is_memoised_per_epoch(self, engines):
        index = engines("maxscore", 1, True).index
        assert columnar_view(index) is columnar_view(index)

    def test_postings_match_scalar_postings(self, engines):
        index = engines("maxscore", 1, True).index
        view = columnar_view(index)
        support = index.scoring_support()
        term = "forrest"
        columnar = view.postings("names", term)
        frequencies = support.postings_frequencies("names", term)
        assert columnar is not None and frequencies
        assert view.ids_of(columnar.ordinals) == sorted(frequencies)
        assert columnar.frequencies.tolist() == [
            float(frequencies[doc_id]) for doc_id in sorted(frequencies)
        ]
        # Block grid chunks the same sorted posting order as the scalar
        # summaries: last ordinal and max frequency per BLOCK_SIZE chunk.
        count = columnar.ordinals.size
        expected_lasts = [
            columnar.ordinals[min(start + BLOCK_SIZE - 1, count - 1)]
            for start in range(0, count, BLOCK_SIZE)
        ]
        assert columnar.block_last_ordinals.tolist() == expected_lasts
        assert columnar.block_max_frequencies.tolist() == [
            max(columnar.frequencies[start : start + BLOCK_SIZE])
            for start in range(0, count, BLOCK_SIZE)
        ]

    def test_shard_map_matches_crc_routing(self, engines):
        view = columnar_view(engines("maxscore", 1, True).index)
        for num_shards in (2, 3, 5):
            owners = view.shard_map(num_shards)
            assert owners.tolist() == [
                shard_of(doc_id, num_shards) for doc_id in view.doc_ids
            ]

    def test_dense_frequencies_scatter(self, engines):
        view = columnar_view(engines("maxscore", 1, True).index)
        dense = view.dense_frequencies("names", "forrest")
        columnar = view.postings("names", "forrest")
        assert dense.size == view.num_documents
        assert np.count_nonzero(dense) == columnar.ordinals.size
        assert (dense[columnar.ordinals] == columnar.frequencies).all()


    def test_dense_intermediates_are_not_retained(self, movie_graph):
        """Q distinct one-term queries leave Q + O(1) N-length arrays on the view.

        The dense term-frequency columns feed the memoised scorer columns
        and are read exactly once; memoising them as well kept one more
        N-length float64 array per (field, term).
        """
        engine = SearchEngine.from_graph(movie_graph, config=SearchConfig(result_cache_size=0))
        view = columnar_view(engine.index)
        terms = sorted(engine.index.field_index("names").vocabulary())[:12]
        for term in terms:
            engine.search(term)
        retained = sum(
            isinstance(value, np.ndarray) and value.shape == (view.num_documents,)
            for memo in vars(view).values()
            if isinstance(memo, dict)
            for value in memo.values()
        )
        assert len(terms) <= retained <= len(terms) + len(engine.index.fields) + 2


class TestColumnarEquivalenceProperty:
    """Hypothesis: random KGs, random shard counts, every pruning mode."""

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        kg_seed=st.integers(min_value=0, max_value=500),
        num_entities=st.integers(min_value=30, max_value=90),
        shards=st.sampled_from(SHARD_COUNTS),
        pruning=st.sampled_from(PRUNING_MODES),
    )
    def test_search_columnar_equals_scalar(self, kg_seed, num_entities, shards, pruning):
        graph = build_random_kg(RandomKGConfig(num_entities=num_entities, seed=kg_seed))
        columnar = SearchEngine.from_graph(
            graph, SearchConfig(pruning=pruning, shards=shards, columnar=True)
        )
        scalar = SearchEngine.from_graph(
            graph, SearchConfig(pruning=pruning, shards=shards, columnar=False)
        )
        entities = sorted(graph.entities())
        step = max(1, len(entities) // 3)
        for position in range(0, len(entities), step):
            query = graph.label(entities[position])
            assert _hit_signature(columnar.search(query)) == _hit_signature(
                scalar.search(query)
            )

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(
        kg_seed=st.integers(min_value=0, max_value=500),
        num_entities=st.integers(min_value=30, max_value=80),
        pruning=st.sampled_from(PRUNING_MODES),
    )
    def test_bm25_columnar_equals_scalar(self, kg_seed, num_entities, pruning):
        graph = build_random_kg(RandomKGConfig(num_entities=num_entities, seed=kg_seed))
        engine = SearchEngine.from_graph(graph)
        index = engine.index
        on = BM25FieldScorer(index, "names", pruning=pruning, columnar=True)
        off = BM25FieldScorer(index, "names", pruning=pruning, columnar=False)
        entities = sorted(graph.entities())
        step = max(1, len(entities) // 3)
        for position in range(0, len(entities), step):
            parsed = parse_query(graph.label(entities[position]))
            assert _signature(on.search(parsed, top_k=10)) == _signature(
                off.search(parsed, top_k=10)
            )

"""Array execution equivalence: byte-identical to the exhaustive reference.

Every search scorer has exactly two forms: the columnar kernels
(``repro.index.columnar`` + ``repro.topk.kernels``) feeding the exact
re-scoring epilogue, and ``search_exhaustive``.  For both pruning modes,
every shard count and all four search scorers the kernel rankings must be
*exactly* the exhaustive rankings — same ids, same floats, same length.
The suites here enforce that on the synthetic movie graph and, via
hypothesis, on random KGs; the view tests pin the ordinal-table
invariants the kernels rely on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PRUNING_MODES, SearchConfig
from repro.datasets import RandomKGConfig, build_random_kg, small_movie_kg
from repro.exec import shard_of
from repro.index import columnar_view
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
    """Lazily built engines per (pruning, shards, smoothing), module-shared."""
    cache: dict[tuple[str, int, str], SearchEngine] = {}

    def get(pruning: str, shards: int, smoothing: str = "dirichlet") -> SearchEngine:
        key = (pruning, shards, smoothing)
        if key not in cache:
            cache[key] = SearchEngine.from_graph(
                movie_graph,
                SearchConfig(pruning=pruning, shards=shards, smoothing=smoothing),
            )
        return cache[key]

    return get


class TestColumnarSearchEquivalence:
    """All four scorers, both pruning modes, every shard count == exhaustive."""

    @pytest.mark.parametrize("pruning", PRUNING_MODES)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_engine_mlm_byte_identical(self, engines, pruning, shards):
        engine = engines(pruning, shards)
        reference = engines("off", 1).mlm_scorer
        for query in QUERIES:
            expected = _signature(reference.search_exhaustive(parse_query(query)))
            assert _hit_signature(engine.search(query)) == expected
            assert _hit_signature(engine.search(query, top_k=3)) == expected[:3]

    @pytest.mark.parametrize("pruning", PRUNING_MODES)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_single_field_byte_identical(self, engines, pruning, shards):
        scorer = engines(pruning, shards).single_field_scorer()
        for query in QUERIES:
            parsed = parse_query(query)
            assert _signature(scorer.search(parsed, top_k=15)) == _signature(
                scorer.search_exhaustive(parsed, top_k=15)
            )

    @pytest.mark.parametrize("pruning", PRUNING_MODES)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_bm25_and_bm25f_byte_identical(self, engines, pruning, shards):
        base = engines("maxscore", 1)
        index = base.index
        weights = base.config.field_weights
        for scorer in (
            BM25FieldScorer(index, "names", pruning=pruning, shards=shards),
            BM25FScorer(index, weights, pruning=pruning, shards=shards),
        ):
            for query in QUERIES:
                parsed = parse_query(query)
                assert _signature(scorer.search(parsed, top_k=15)) == _signature(
                    scorer.search_exhaustive(parsed, top_k=15)
                )


SCORERS = ("mlm", "single_field", "bm25", "bm25f")


def _scorer(engines, name: str, pruning: str, shards: int, smoothing: str = "dirichlet"):
    """One of the four search scorers under the given execution knobs."""
    engine = engines(pruning, shards, smoothing)
    if name == "mlm":
        return engine.mlm_scorer
    if name == "single_field":
        return engine.single_field_scorer()
    if name == "bm25":
        return BM25FieldScorer(engine.index, "names", pruning=pruning, shards=shards)
    return BM25FScorer(engine.index, engine.config.field_weights, pruning=pruning, shards=shards)


class TestColumnarSearchAcrossK:
    """The θ edge cases end to end: a one-slot heap, a two-slot heap, and
    ``k`` beyond the candidate pool (every candidate survives, nothing is
    pruned), for every scorer, both pruning modes, serial and sharded."""

    @pytest.mark.parametrize("shards", (1, 3))
    @pytest.mark.parametrize("pruning", PRUNING_MODES)
    @pytest.mark.parametrize("scorer_name", SCORERS)
    @pytest.mark.parametrize("top_k", (1, 2, 1000))
    def test_kernels_equal_exhaustive(self, engines, top_k, scorer_name, pruning, shards):
        scorer = _scorer(engines, scorer_name, pruning, shards)
        index = engines(pruning, shards).index
        for query in QUERIES:
            parsed = parse_query(query)
            expected = _signature(scorer.search_exhaustive(parsed, top_k=top_k))
            assert _signature(scorer.search(parsed, top_k=top_k)) == expected
            pool = len(index.candidate_documents(parsed.all_terms()))
            assert len(expected) == min(top_k, pool)


QUERY_SHAPES = {
    "repeated-term": "drama drama drama",
    "unknown-term": "zzyzx",
    "unknown-and-known": "zzyzx forrest",
    "fielded": "names:forrest drama",
    "phrase": '"forrest gump" hanks',
}


class TestColumnarQueryShapes:
    """Query forms the kernels see as unusual term lists — a term scored
    several times, terms no document holds, field restrictions and
    phrases — rank exactly as the reference, serial and sharded."""

    @pytest.mark.parametrize("pruning", PRUNING_MODES)
    @pytest.mark.parametrize("scorer_name", SCORERS)
    @pytest.mark.parametrize("shape", sorted(QUERY_SHAPES))
    def test_kernels_equal_exhaustive(self, engines, shape, scorer_name, pruning):
        parsed = parse_query(QUERY_SHAPES[shape])
        for shards in (1, 3):
            scorer = _scorer(engines, scorer_name, pruning, shards)
            assert _signature(scorer.search(parsed, top_k=15)) == _signature(
                scorer.search_exhaustive(parsed, top_k=15)
            )


class TestJelinekMercerEquivalence:
    """The language-model scorers under Jelinek–Mercer smoothing: other
    term columns, other bounds, the same exact rankings."""

    @pytest.mark.parametrize("pruning", PRUNING_MODES)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("scorer_name", ("mlm", "single_field"))
    def test_kernels_equal_exhaustive(self, engines, scorer_name, shards, pruning):
        scorer = _scorer(engines, scorer_name, pruning, shards, "jelinek-mercer")
        dirichlet = _scorer(engines, scorer_name, pruning, shards)
        for query in QUERIES:
            parsed = parse_query(query)
            expected = _signature(scorer.search_exhaustive(parsed, top_k=15))
            assert _signature(scorer.search(parsed, top_k=15)) == expected
            assert expected != _signature(dirichlet.search_exhaustive(parsed, top_k=15))


class TestColumnarViewInvariants:
    """The ordinal-table contracts the kernels rely on."""

    def test_ordinals_are_sorted_doc_id_order(self, engines):
        index = engines("maxscore", 1).index
        view = columnar_view(index)
        assert view.doc_ids == sorted(index.documents())
        ordinals = view.ordinals_of(view.doc_ids)
        assert ordinals.tolist() == list(range(view.num_documents))
        assert view.ids_of(ordinals) == view.doc_ids

    def test_view_is_memoised_per_epoch(self, engines):
        index = engines("maxscore", 1).index
        assert columnar_view(index) is columnar_view(index)

    def test_postings_match_scalar_postings(self, engines):
        index = engines("maxscore", 1).index
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

    def test_shard_map_matches_crc_routing(self, engines):
        view = columnar_view(engines("maxscore", 1).index)
        for num_shards in (2, 3, 5):
            owners = view.shard_map(num_shards)
            assert owners.tolist() == [
                shard_of(doc_id, num_shards) for doc_id in view.doc_ids
            ]

    def test_dense_intermediates_are_not_retained(self, movie_graph):
        """Distinct searches leave at most ``fields + 2`` N-length arrays on the view.

        The language-model columns are built per query over the
        candidates, so what the view keeps is bounded by the field
        schema (one length column per field, plus slack for a shard map),
        not by the number of distinct terms searched.
        """
        engine = SearchEngine.from_graph(movie_graph, config=SearchConfig(result_cache_size=0))
        view = columnar_view(engine.index)
        terms = sorted(engine.index.field_index("names").vocabulary())

        def retained() -> int:
            return sum(
                isinstance(value, np.ndarray) and value.shape == (view.num_documents,)
                for memo in vars(view).values()
                if isinstance(memo, dict)
                for value in memo.values()
            )

        bound = len(engine.index.fields) + 2
        for count in (3, 12, len(terms)):
            for term in terms[:count]:
                engine.search(term)
            assert retained() <= bound


class TestColumnarEquivalenceProperty:
    """Hypothesis: random KGs, random shard counts, both pruning modes."""

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        kg_seed=st.integers(min_value=0, max_value=500),
        num_entities=st.integers(min_value=30, max_value=90),
        shards=st.sampled_from(SHARD_COUNTS),
        pruning=st.sampled_from(PRUNING_MODES),
    )
    def test_search_equals_exhaustive(self, kg_seed, num_entities, shards, pruning):
        graph = build_random_kg(RandomKGConfig(num_entities=num_entities, seed=kg_seed))
        engine = SearchEngine.from_graph(graph, SearchConfig(pruning=pruning, shards=shards))
        entities = sorted(graph.entities())
        step = max(1, len(entities) // 3)
        for position in range(0, len(entities), step):
            query = graph.label(entities[position])
            assert _hit_signature(engine.search(query)) == _signature(
                engine.mlm_scorer.search_exhaustive(parse_query(query))
            )

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(
        kg_seed=st.integers(min_value=0, max_value=500),
        num_entities=st.integers(min_value=30, max_value=80),
        shards=st.sampled_from(SHARD_COUNTS),
        pruning=st.sampled_from(PRUNING_MODES),
    )
    def test_bm25_equals_exhaustive(self, kg_seed, num_entities, shards, pruning):
        graph = build_random_kg(RandomKGConfig(num_entities=num_entities, seed=kg_seed))
        engine = SearchEngine.from_graph(graph)
        index = engine.index
        for scorer in (
            BM25FieldScorer(index, "names", pruning=pruning, shards=shards),
            BM25FScorer(index, engine.config.field_weights, pruning=pruning, shards=shards),
        ):
            entities = sorted(graph.entities())
            step = max(1, len(entities) // 3)
            for position in range(0, len(entities), step):
                parsed = parse_query(graph.label(entities[position]))
                assert _signature(scorer.search(parsed, top_k=10)) == _signature(
                    scorer.search_exhaustive(parsed, top_k=10)
                )

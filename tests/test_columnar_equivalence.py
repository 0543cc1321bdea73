"""Array execution equivalence: byte-identical to the exhaustive reference.

Every language-model scorer has exactly two forms: the max-score kernel
(``repro.index.columnar`` + ``repro.topk.kernels``) feeding the exact
re-scoring epilogue, and ``search_exhaustive``.  For both smoothings and
both scorers the kernel rankings must be *exactly* the exhaustive
rankings — same ids, same floats, same length.
The suites here enforce that on the synthetic movie graph — built,
loaded from a snapshot and written to (the ``ORIGINS`` of
``serial_matrix``) — and, via hypothesis, on random KGs; the view tests
pin the ordinal-table invariants the kernels rely on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PivotEConfig, SearchConfig
from repro.datasets import RandomKGConfig, build_random_kg, small_movie_kg
from repro.index import columnar_view
from repro.search import SearchEngine, parse_query
from serial_matrix import ORIGINS, origin_system

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
def engines(tmp_path_factory):
    """Lazily built engines per (smoothing, origin), module-shared."""
    cache: dict[tuple[str, str], SearchEngine] = {}

    def get(smoothing: str = "dirichlet", origin: str = "built") -> SearchEngine:
        key = (smoothing, origin)
        if key not in cache:
            config = PivotEConfig(search=SearchConfig(smoothing=smoothing))
            directory = str(tmp_path_factory.mktemp(f"{smoothing}-{origin}"))
            system = origin_system(small_movie_kg(), origin, directory, config)
            cache[key] = system.search_engine
        return cache[key]

    return get


@pytest.mark.parametrize("origin", ORIGINS)
class TestColumnarSearchEquivalence:
    """Both language-model scorers == exhaustive."""

    def test_engine_mlm_byte_identical(self, engines, origin):
        engine = engines(origin=origin)
        reference = engine.mlm_scorer
        for query in QUERIES:
            expected = _signature(reference.search_exhaustive(parse_query(query)))
            assert _hit_signature(engine.search(query)) == expected
            assert _hit_signature(engine.search(query, top_k=3)) == expected[:3]

    def test_single_field_byte_identical(self, engines, origin):
        scorer = engines(origin=origin).single_field_scorer()
        for query in QUERIES:
            parsed = parse_query(query)
            assert _signature(scorer.search(parsed, top_k=15)) == _signature(
                scorer.search_exhaustive(parsed, top_k=15)
            )


SCORERS = ("mlm", "single_field")


def _scorer(engines, name: str, origin: str, smoothing: str = "dirichlet"):
    """One of the two language-model scorers under the given smoothing."""
    engine = engines(smoothing, origin)
    if name == "mlm":
        return engine.mlm_scorer
    return engine.single_field_scorer()


class TestColumnarSearchAcrossK:
    """The θ edge cases end to end: a one-slot heap, a two-slot heap, and
    ``k`` beyond the candidate pool (every candidate survives, nothing is
    pruned), for every scorer."""

    @pytest.mark.parametrize("origin", ORIGINS)
    @pytest.mark.parametrize("scorer_name", SCORERS)
    @pytest.mark.parametrize("top_k", (1, 2, 1000))
    def test_kernels_equal_exhaustive(self, engines, top_k, scorer_name, origin):
        scorer = _scorer(engines, scorer_name, origin)
        index = engines(origin=origin).index
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
    phrases — rank exactly as the reference."""

    @pytest.mark.parametrize("origin", ORIGINS)
    @pytest.mark.parametrize("scorer_name", SCORERS)
    @pytest.mark.parametrize("shape", sorted(QUERY_SHAPES))
    def test_kernels_equal_exhaustive(self, engines, shape, scorer_name, origin):
        parsed = parse_query(QUERY_SHAPES[shape])
        scorer = _scorer(engines, scorer_name, origin)
        assert _signature(scorer.search(parsed, top_k=15)) == _signature(
            scorer.search_exhaustive(parsed, top_k=15)
        )


class TestJelinekMercerEquivalence:
    """The language-model scorers under Jelinek–Mercer smoothing: other
    term columns, other bounds, the same exact rankings."""

    @pytest.mark.parametrize("origin", ORIGINS)
    @pytest.mark.parametrize("scorer_name", SCORERS)
    def test_kernels_equal_exhaustive(self, engines, scorer_name, origin):
        scorer = _scorer(engines, scorer_name, origin, "jelinek-mercer")
        dirichlet = _scorer(engines, scorer_name, origin)
        for query in QUERIES:
            parsed = parse_query(query)
            expected = _signature(scorer.search_exhaustive(parsed, top_k=15))
            assert _signature(scorer.search(parsed, top_k=15)) == expected
            assert expected != _signature(dirichlet.search_exhaustive(parsed, top_k=15))


class TestColumnarViewInvariants:
    """The ordinal-table contracts the kernels rely on."""

    def test_ordinals_are_sorted_doc_id_order(self, engines):
        index = engines().index
        view = columnar_view(index)
        assert view.doc_ids == sorted(set(view.doc_ids))
        ordinals = view.ordinal_of.array(view.doc_ids)
        assert ordinals.tolist() == list(range(view.num_documents))
        assert view.ids_of(ordinals) == view.doc_ids

    def test_view_is_memoised_per_epoch(self, engines):
        index = engines().index
        assert columnar_view(index) is columnar_view(index)

    def test_postings_match_scalar_postings(self, engines):
        index = engines().index
        view = columnar_view(index)
        term = "forrest"
        columnar = view.postings("names", term)
        names = index.field_index("names")
        frequencies = {
            doc_id: names.term_frequency(term, doc_id)
            for doc_id in view.doc_ids
            if names.term_frequency(term, doc_id)
        }
        assert columnar is not None and frequencies
        assert view.ids_of(columnar.ordinals) == sorted(frequencies)
        assert columnar.frequencies.tolist() == [
            float(frequencies[doc_id]) for doc_id in sorted(frequencies)
        ]

    def test_dense_intermediates_are_not_retained(self, movie_graph):
        """Distinct searches leave at most ``fields + 1`` N-length arrays on the epoch.

        The language-model columns are built per query over the
        candidates, so what the epoch's fields keep is bounded by the
        field schema (one length column per field, plus slack), not by
        the number of distinct terms searched.
        """
        engine = SearchEngine.from_graph(movie_graph, config=SearchConfig(result_cache_size=0))
        view = columnar_view(engine.index)
        terms = engine.index.field_index("names").base.terms

        def retained() -> int:
            arrays = []
            for field in view.fields:
                memo = view.field_index(field)
                arrays.append(memo._lengths)
                for postings in memo._columnar.values():
                    arrays.extend((postings.ordinals, postings.frequencies))
            return sum(
                isinstance(value, np.ndarray) and value.shape == (view.num_documents,)
                for value in arrays
            )

        bound = len(engine.index.fields) + 1
        for count in (3, 12, len(terms)):
            for term in terms[:count]:
                engine.search(term)
            assert retained() <= bound


class TestColumnarEquivalenceProperty:
    """Hypothesis: random KGs."""

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        kg_seed=st.integers(min_value=0, max_value=500),
        num_entities=st.integers(min_value=30, max_value=90),
    )
    def test_search_equals_exhaustive(self, kg_seed, num_entities):
        graph = build_random_kg(RandomKGConfig(num_entities=num_entities, seed=kg_seed))
        engine = SearchEngine.from_graph(graph)
        entities = sorted(graph.entities())
        step = max(1, len(entities) // 3)
        for position in range(0, len(entities), step):
            query = graph.label(entities[position])
            assert _hit_signature(engine.search(query)) == _signature(
                engine.mlm_scorer.search_exhaustive(parse_query(query))
            )

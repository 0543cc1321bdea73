"""The language-model search path in ordinal space.

``search`` takes its candidates from posting ordinals, builds each
term's contribution column over just those candidates, and takes the
winners' per-term breakdown from the exact epilogue instead of
``score_document``.  These tests pin each step to the reference it
replaced — ``FieldedIndex.candidate_documents``, ``score_document`` and
the posting-list collection probability — on a built index, an index
loaded from disk and an index after a write, and check that the memory a
search leaves behind does not grow with the number of distinct queries.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro import PivotE
from repro.config import SearchConfig
from repro.datasets import RandomKGConfig, build_random_kg, small_movie_kg
from repro.index import columnar_view
from repro.search import MixtureLanguageModelScorer, SearchEngine, SingleFieldScorer, parse_query
from repro.search.mlm import query_candidates

QUERIES = (
    "forrest gump",
    "gump gump",
    "names:gump hanks",
    '"forrest gump" drama',
    "qqqzzz forrest",
    "drama 1994 comedy",
)


def _written(system: PivotE) -> PivotE:
    """Add one entity through the public write path and index it."""
    graph = system.graph
    entities = sorted(graph.entities())
    graph.add_label("ex:written", "forrest gump written drama")
    graph.add_type("ex:written", graph.dominant_type(entities[3]))
    for target in entities[:4]:
        graph.add("ex:written", sorted(graph.edge_predicates())[0], target)
    system.search_engine.add_entity("ex:written")
    return system


@pytest.fixture(scope="module")
def systems(tmp_path_factory):
    """A built, a loaded and a written-to system over the movie KG."""
    directory = str(tmp_path_factory.mktemp("saved"))
    built = PivotE(small_movie_kg())
    built.save(directory)
    loaded = PivotE.load(directory)
    written = _written(PivotE(small_movie_kg()))
    yield {"built": built, "loaded": loaded, "written": written}
    for system in (built, loaded, written):
        system.close()


@pytest.fixture(params=["built", "loaded", "written"])
def index(request, systems):
    return systems[request.param].search_engine.index


class TestCandidateOrdinals:
    @pytest.mark.parametrize("raw", QUERIES)
    def test_equal_the_candidate_documents(self, index, raw):
        terms = parse_query(raw).all_terms()
        view = columnar_view(index)
        expected = view.ordinals_of(index.candidate_documents(terms))
        assert query_candidates(view, index.fields, terms).tolist() == expected.tolist()

    def test_loaded_index_is_adopted(self, systems):
        assert systems["loaded"].search_engine.index.stored_documents() is not None
        assert systems["written"].search_engine.index.stored_documents() is None

    def test_unknown_terms_have_no_candidates(self, index):
        view = columnar_view(index)
        assert query_candidates(view, index.fields, ["qqqzzz", "zzzqqq"]).size == 0
        scorer = MixtureLanguageModelScorer(index)
        assert scorer.search(parse_query("qqqzzz zzzqqq")) == []


class TestWinnersBreakdown:
    """``search`` returns ``score_document``'s scores and ``term_scores``, bitwise."""

    @pytest.mark.parametrize("smoothing", ["dirichlet", "jelinek-mercer"])
    @pytest.mark.parametrize("pruning", ["off", "maxscore"])
    @pytest.mark.parametrize("kind", ["mlm", "single-field"])
    def test_equals_score_document(self, systems, smoothing, pruning, kind):
        index = systems["built"].search_engine.index
        config = SearchConfig(smoothing=smoothing, pruning=pruning)
        if kind == "mlm":
            scorer = MixtureLanguageModelScorer(index, config)
        else:
            scorer = SingleFieldScorer(index, "names", config)
        for raw in QUERIES:
            query = parse_query(raw)
            results = scorer.search(query, top_k=8)
            assert results
            for result in results:
                reference = scorer.score_document(query, result.doc_id)
                assert result.score == reference.score
                assert result.term_scores == reference.term_scores
                assert list(result.term_scores) == list(reference.term_scores)
            exhaustive = scorer.search_exhaustive(query, top_k=8)
            assert [(r.doc_id, r.score, r.term_scores) for r in results] == [
                (r.doc_id, r.score, r.term_scores) for r in exhaustive
            ]

    def test_restriction_keys(self, systems):
        index = systems["built"].search_engine.index
        result = MixtureLanguageModelScorer(index).search(parse_query("names:gump hanks"))[0]
        assert set(result.term_scores) == {"hanks", "names:gump"}


class TestCollectionProbability:
    def test_statistics_route_equals_posting_sums(self, index):
        for field in index.fields:
            field_index = index.field_index(field)
            for term in sorted(field_index.vocabulary()):
                assert index.collection_probability(field, term) == (
                    field_index.collection_probability(term)
                )
        assert index.collection_probability("names", "qqqzzz") == 0.0


def test_retained_memory_does_not_grow_with_distinct_searches():
    """300 distinct searches retain at most 1 MB more than 30 do.

    A per-term memo of N-length columns would hold 16 KB per distinct
    term at 2000 entities — several MB over this query stream.
    """
    graph = build_random_kg(RandomKGConfig(num_entities=2000, seed=3))
    engine = SearchEngine.from_graph(graph, SearchConfig(result_cache_size=0))
    queries = list(dict.fromkeys(graph.label(entity) for entity in sorted(graph.entities())))
    assert len(queries) >= 300
    tracemalloc.start()
    try:
        for query in queries[:30]:
            engine.search(query)
        gc.collect()
        after_30 = tracemalloc.get_traced_memory()[0]
        for query in queries[30:300]:
            engine.search(query)
        gc.collect()
        after_300 = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after_300 - after_30 <= 1_000_000

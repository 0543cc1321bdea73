"""Tests for repro.search.engine: the SearchEngine facade."""

from __future__ import annotations

import pytest

from index_oracle import assert_same_index
from repro.config import SearchConfig
from repro.datasets import RandomKGConfig, build_random_kg
from repro.exceptions import EmptyQueryError, EntityNotFoundError
from repro.kg import KnowledgeGraph
from repro.search import SearchEngine, build_entity_document, parse_query
from serial_matrix import GRAPH_SHAPES, ORIGINS, WRITTEN, origin_system


def _label_queries(graph: KnowledgeGraph) -> list[str]:
    return [graph.label(entity) for entity in sorted(graph.entities())[::37]]


def _hits(engine: SearchEngine, query: str) -> list[tuple[str, float]]:
    return [(hit.entity_id, hit.score) for hit in engine.search(query, top_k=20)]


@pytest.fixture(scope="module")
def engine(request) -> SearchEngine:
    movie_kg = request.getfixturevalue("movie_kg")
    return SearchEngine.from_graph(movie_kg)


class TestSearchEngine:
    def test_indexes_every_entity(self, engine: SearchEngine, movie_kg: KnowledgeGraph):
        assert engine.num_indexed() == movie_kg.num_entities()

    def test_exact_name_search(self, engine: SearchEngine):
        hits = engine.search("forrest gump")
        assert hits[0].entity_id == "dbr:Forrest_Gump"
        assert hits[0].label == "Forrest Gump"

    def test_partial_name_search(self, engine: SearchEngine):
        hits = engine.search("apollo")
        assert hits[0].entity_id == "dbr:Apollo_13_(film)"

    def test_person_search(self, engine: SearchEngine):
        hits = engine.search("tom hanks")
        assert hits[0].entity_id == "dbr:Tom_Hanks"

    def test_alias_field_searchable(self, engine: SearchEngine):
        # "Gumpian" occurs in Forrest Gump's similar-entity-names field (the
        # alias entity itself matches on its name and may rank first).
        hits = engine.search("gumpian")
        assert "dbr:Forrest_Gump" in [hit.entity_id for hit in hits[:3]]

    def test_category_search(self, engine: SearchEngine):
        hits = engine.search("american films 1994")
        assert "dbr:Forrest_Gump" in [hit.entity_id for hit in hits[:5]]

    def test_top_k_respected(self, engine: SearchEngine):
        assert len(engine.search("film", top_k=3)) <= 3

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_search_refuses_a_non_positive_top_k(self, engine: SearchEngine, top_k):
        with pytest.raises(ValueError, match="top_k"):
            engine.search("forrest gump hanks drama", top_k=top_k)

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_search_many_refuses_a_non_positive_top_k(self, engine: SearchEngine, top_k):
        with pytest.raises(ValueError, match="top_k"):
            engine.search_many(["forrest gump", "drama"], top_k=top_k)

    def test_none_top_k_is_the_configured_default(self, engine: SearchEngine):
        hits = engine.search("forrest gump hanks drama", top_k=None)
        assert hits == engine.search("forrest gump hanks drama", top_k=engine.config.top_k)
        assert engine.search_many(["forrest gump hanks drama"]) == [hits]

    @pytest.mark.parametrize("top_k", [0, 1, 5])
    def test_scorers_agree_with_the_reference_at_small_k(self, engine: SearchEngine, top_k):
        query = parse_query("forrest gump hanks drama")
        for scorer in (
            engine.mlm_scorer,
            engine.single_field_scorer("names"),
        ):
            fast = [(result.doc_id, result.score) for result in scorer.search(query, top_k=top_k)]
            assert len(fast) == min(top_k, len(engine.index.candidate_documents(query.all_terms())))
            assert fast == [
                (result.doc_id, result.score)
                for result in scorer.search_exhaustive(query, top_k=top_k)
            ]

    def test_empty_query_raises(self, engine: SearchEngine):
        with pytest.raises(EmptyQueryError):
            engine.search("")

    def test_no_match_returns_empty_list(self, engine: SearchEngine):
        assert engine.search("qqqqqqzzzz") == []

    def test_scores_descending(self, engine: SearchEngine):
        hits = engine.search("drama")
        scores = [hit.score for hit in hits]
        assert scores == sorted(scores, reverse=True)

    def test_explain_breaks_down_terms(self, engine: SearchEngine):
        scored = engine.explain("forrest gump", "dbr:Forrest_Gump")
        assert set(scored.term_scores) == {"forrest", "gump"}

    @pytest.mark.parametrize("entity_id", ["dbr:No_Such_Entity", ""])
    def test_explain_refuses_unindexed_ids(self, engine: SearchEngine, entity_id: str):
        with pytest.raises(EntityNotFoundError):
            engine.explain("forrest gump", entity_id)

    def test_document_accessor(self, engine: SearchEngine):
        document = engine.document("dbr:Forrest_Gump")
        assert document.entity_id == "dbr:Forrest_Gump"

    def test_hit_as_dict(self, engine: SearchEngine):
        hit = engine.search("forrest gump")[0]
        payload = hit.as_dict()
        assert payload["entity"] == "dbr:Forrest_Gump"

    def test_baseline_scorers_constructible(self, engine: SearchEngine):
        assert engine.bm25f_scorer() is not None
        assert engine.single_field_scorer("names") is not None


class TestIncrementalIndexing:
    def test_add_entity_after_graph_change(self, tiny_kg: KnowledgeGraph):
        engine = SearchEngine.from_graph(tiny_kg)
        tiny_kg.add_label("ex:F9", "Brand New Film")
        tiny_kg.add_type("ex:F9", "ex:Film")
        engine.add_entity("ex:F9")
        hits = engine.search("brand new film")
        assert hits[0].entity_id == "ex:F9"

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "read-before"])
    def test_reindexing_an_unchanged_entity_changes_nothing(self, warm):
        graph = build_random_kg(RandomKGConfig(num_entities=300, seed=31))
        engine, unwritten = SearchEngine.from_graph(graph), SearchEngine.from_graph(graph)
        queries = _label_queries(graph)
        before = [_hits(engine if warm else unwritten, query) for query in queries]
        entity = max(graph.entities(), key=lambda e: (len(graph.outgoing(e)), e))
        lengths = {field: engine.index.document_length(field, entity) for field in engine.index.fields}
        engine.add_entity(entity)
        assert engine.num_indexed() == graph.num_entities()
        assert {
            field: engine.index.document_length(field, entity) for field in engine.index.fields
        } == lengths
        assert_same_index(engine.index, unwritten.index)
        assert [_hits(engine, query) for query in queries] == before

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "read-before"])
    def test_reindexing_after_a_new_label_equals_a_fresh_build(self, warm):
        graph = build_random_kg(RandomKGConfig(num_entities=300, seed=37))
        engine = SearchEngine.from_graph(graph)
        entity = sorted(graph.entities())[7]
        queries = [*_label_queries(graph), "renamed entity", graph.label(entity)]
        if warm:
            [_hits(engine, query) for query in queries]
        graph.add_label(entity, "renamed entity")
        engine.add_entity(entity)
        fresh = SearchEngine.from_graph(graph)
        assert_same_index(engine.index, fresh.index)
        assert [_hits(engine, query) for query in queries] == [
            _hits(fresh, query) for query in queries
        ]

    def test_custom_config_used(self, tiny_kg: KnowledgeGraph):
        config = SearchConfig(top_k=2)
        engine = SearchEngine.from_graph(tiny_kg, config=config)
        assert engine.config.top_k == 2
        assert len(engine.search("film")) <= 2


@pytest.mark.parametrize("origin", ORIGINS)
def test_a_document_is_built_on_demand_alike_on_every_origin(origin, tmp_path):
    """``document`` reads the graph: the engine keeps no document memo, so a
    built, a loaded and a written engine give the same answer."""
    graph = build_random_kg(GRAPH_SHAPES["default"])
    with origin_system(graph, origin, str(tmp_path)) as system:
        engine = system.search_engine
        entities = sorted(graph.entities())[::17] + ([WRITTEN] if origin == "written" else [])
        for entity in entities:
            assert engine.document(entity) == build_entity_document(graph, entity), entity
        assert not hasattr(engine, "_documents")

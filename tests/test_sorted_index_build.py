"""The sort-built search index == the dict model, bitwise.

``SearchEngine.build`` analyses every distinct string once per analyzer
(``token_rows``) and sorts each field's token rows into the posting CSR
a load adopts (``PostingColumns.from_tokens``).  The reference it must
equal is the dict model of ``tests/index_oracle.py``, written document by
document.  Compared per field: terms, offsets, ordinals, frequencies and
lengths (dtype and bytes), and the per-term counts;
over random graphs, hand-made labels that stress the analyzers (accents,
combining marks, camelCase, underscores, characters outside the BMP),
entities with empty fields, and an index over a subset of the fields.
After writes (a new id and a replaced one) searches equal the exhaustive
scorer and a fresh reference build.
"""

from __future__ import annotations

import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from index_oracle import ReferenceIndex, assert_index_equals, sorted_build
from repro.config import DEFAULT_FIELDS, SearchConfig
from repro.datasets import RandomKGConfig, build_random_kg, small_movie_kg
from repro.index import FieldedIndex
from repro.index.columnar import columnar_view
from repro.kg import KnowledgeGraph
from repro.search import (
    FIELD_ANALYZERS,
    FieldedEntityDocument,
    MixtureLanguageModelScorer,
    SearchEngine,
    analyze_document,
    build_all_documents,
    build_entity_document,
    parse_query,
    token_rows,
)
from repro.text import Analyzer, NAME_ANALYZER, TEXT_ANALYZER
from repro.text.normalize import strip_accents

#: Labels the analyzers treat very differently; the last ones analyse to nothing.
AWKWARD_LABELS = [
    "Amélie Poulain", "Amélie", "Ｆｕｌｌ Ｗｉｄｔｈ", "PandaSearch", "iPhoneX",
    "Tom_Hanks_(actor)", "the of and", "Ω𝄞 music 𝄞", "ǅemal Bijedić", "naïve café's",
    "films", "classes", "bodies", "ß straße", "ﬁ ligature", "", "  ", "!!!", "𝄞",
]


def reference_index(
    graph: KnowledgeGraph, fields=DEFAULT_FIELDS, documents=None
) -> ReferenceIndex:
    """The dict model written document by document."""
    reference = ReferenceIndex(fields)
    documents = build_all_documents(graph) if documents is None else documents
    for entity_id in sorted(documents):
        reference.write(entity_id, analyze_document(documents[entity_id], fields))
    return reference


def assert_matches_reference(index: FieldedIndex, reference: ReferenceIndex) -> None:
    """A build is all base: nothing written since, its CSRs the model's."""
    assert index.fields == reference.fields and index.epoch == len(reference.doc_ids)
    for field in index.fields:
        assert index.field_index(field).documents.num_written == 0
    assert_index_equals(index, reference)


def labelled_graph(labels: list[str], empty: int = 2) -> KnowledgeGraph:
    """Entities named by ``labels`` (one as an attribute and one as a category
    too), linked in a ring, plus ``empty`` entities with no text beyond their id."""
    graph = KnowledgeGraph("labels")
    names = [f"ex:e{number}" for number in range(len(labels))]
    for number, (entity, label) in enumerate(zip(names, labels)):
        graph.add_label(entity, label)
        graph.add_attribute(entity, "ex:note", labels[(number + 1) % len(labels)])
        graph.add_category(entity, f"exc:{labels[(number + 2) % len(labels)] or 'none'}")
        graph.add(entity, "ex:next", names[(number + 1) % len(names)])
        if number % 3 == 0:
            graph.add_alias(entity, f"ex:alias_{number}")
    for number in range(empty):
        graph.add_type(f"ex:bare{number}", "ex:Bare")
    return graph


class TestSortedBuildEqualsReference:
    @pytest.mark.parametrize("seed", [1, 7])
    def test_random_graphs(self, seed):
        graph = build_random_kg(RandomKGConfig(num_entities=300, seed=seed))
        assert_matches_reference(SearchEngine.from_graph(graph).index, reference_index(graph))

    def test_movie_graph(self):
        graph = small_movie_kg()
        assert_matches_reference(SearchEngine.from_graph(graph).index, reference_index(graph))

    def test_awkward_labels_and_empty_fields(self):
        graph = labelled_graph(AWKWARD_LABELS)
        index = SearchEngine.from_graph(graph).index
        assert_matches_reference(index, reference_index(graph))
        lengths = index.field_index("similar_entity_names").base.lengths
        assert (lengths == 0).any()  # documents with an empty field are still documents

    @pytest.mark.parametrize(
        "fields", [("names",), ("categories", "names"), ("related_entity_names", "attributes")]
    )
    def test_a_subset_of_the_fields(self, fields):
        graph = labelled_graph(AWKWARD_LABELS)
        config = SearchConfig(fields=fields)
        assert_matches_reference(
            SearchEngine.from_graph(graph, config).index, reference_index(graph, fields)
        )

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(st.text(max_size=12), min_size=1, max_size=8))
    def test_arbitrary_text(self, labels):
        graph = labelled_graph(labels, empty=1)
        assert_matches_reference(SearchEngine.from_graph(graph).index, reference_index(graph))

    def test_an_empty_graph(self):
        graph = KnowledgeGraph("empty")
        assert_matches_reference(SearchEngine.from_graph(graph).index, reference_index(graph))


class TestWritesAfterASortedBuild:
    def test_new_and_replaced_ids_search_like_a_fresh_reference(self):
        graph = labelled_graph(AWKWARD_LABELS)
        engine = SearchEngine.from_graph(graph, SearchConfig(result_cache_size=0))
        # A write re-indexes the written entity only (its neighbours keep
        # their documents), so the reference indexes the same documents.
        documents = build_all_documents(graph)
        queries = ["amelie", "panda search", "tom hanks", "music", "written entity", "cafe"]
        writes = [
            ("ex:written", 'written "entity" 𝄞 Amélie'),  # a new id
            ("ex:e3", "replaced PandaSearch label"),  # an indexed id: replaced
            ("ex:written", "written again"),  # the written id replaced in turn
        ]
        for entity, label in writes:
            graph.add_label(entity, label)
            graph.add(entity, "ex:next", "ex:e1")
            engine.add_entity(entity)
            documents[entity] = build_entity_document(graph, entity)
            reference = MixtureLanguageModelScorer(
                sorted_build(
                    engine.index.fields,
                    {
                        doc_id: analyze_document(document, engine.index.fields)
                        for doc_id, document in documents.items()
                    },
                ),
                engine.config,
            )
            scorer = engine.mlm_scorer
            for raw in queries:
                query = parse_query(raw)
                got = [(hit.entity_id, hit.score) for hit in engine.search(query, top_k=8)]
                assert got == [
                    (result.doc_id, result.score)
                    for result in scorer.search_exhaustive(query, top_k=8)
                ]
                assert got == [
                    (result.doc_id, result.score) for result in reference.search(query, top_k=8)
                ]
        # Two ids written since the build, read through the delta, not merged.
        assert engine.index.field_index("names").documents.num_written == 2


class TestAnalysis:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.text(max_size=30))
    def test_strip_accents_fast_path_is_nfkd(self, text):
        decomposed = unicodedata.normalize("NFKD", text)
        assert strip_accents(text) == "".join(
            ch for ch in decomposed if not unicodedata.combining(ch)
        )

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.lists(st.one_of(st.text(max_size=20), st.sampled_from(AWKWARD_LABELS)),
                             max_size=4), min_size=1, max_size=6))
    def test_memoised_rows_are_the_analyzer_per_string(self, texts):
        documents = [
            FieldedEntityDocument(
                f"ex:d{number}", {name: tuple(strings) for name in DEFAULT_FIELDS}
            )
            for number, strings in enumerate(texts)
        ]
        vocabulary, rows = token_rows(documents, DEFAULT_FIELDS)
        assert vocabulary == sorted(set(vocabulary))
        for name in DEFAULT_FIELDS:
            codes, ordinals = rows[name]
            analyzer = FIELD_ANALYZERS[name]
            expected = [
                (term, ordinal)
                for ordinal, strings in enumerate(texts)
                for text in strings
                for term in analyzer.analyze(text)
            ]
            assert [vocabulary[code] for code in codes.tolist()] == [t for t, _ in expected]
            assert ordinals.tolist() == [ordinal for _, ordinal in expected]

    def test_each_distinct_string_is_analysed_once_per_analyzer(self, monkeypatch):
        graph = build_random_kg(RandomKGConfig(num_entities=2000, seed=1))
        calls: list[tuple[Analyzer, str]] = []
        analyze = Analyzer.analyze
        monkeypatch.setattr(
            Analyzer, "analyze", lambda self, text: calls.append((self, text)) or analyze(self, text)
        )
        SearchEngine.from_graph(graph)
        monkeypatch.undo()
        assert calls and len(calls) == len(set(calls))
        assert {analyzer for analyzer, _ in calls} == {NAME_ANALYZER, TEXT_ANALYZER}


def test_the_first_search_after_a_build_reads_the_rows():
    """A built index answers like a loaded one: per-term counts and columns
    off the base CSR, in ordinal space, with no map over every document."""
    graph = build_random_kg(RandomKGConfig(num_entities=500, seed=3))
    engine = SearchEngine.from_graph(graph)
    index = engine.index
    assert engine.search(graph.label(sorted(graph.entities())[7]))
    base = index.field_index("names").base
    assert columnar_view(index).doc_ids is base.documents.doc_ids
    assert base._counts  # the named terms' counts, reduced off their rows
    assert base.documents._ordinal_of is None

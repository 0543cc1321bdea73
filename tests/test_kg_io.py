"""Tests for repro.kg.io: the N-Triples reader and writer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import build_geography_kg, build_random_kg, small_academic_kg, small_movie_kg
from repro.engine import PivotE
from repro.exceptions import GraphIOError
from repro.kg import KnowledgeGraph, Literal, Triple, load_ntriples, save_ntriples
from repro.kg.io import parse_ntriples_line, triple_to_ntriples
from serial_matrix import GRAPH_SHAPES, largest_type_members

XSD_DOUBLE = "http://www.w3.org/2001/XMLSchema#double"


@pytest.fixture
def sample_graph(tiny_kg: KnowledgeGraph) -> KnowledgeGraph:
    return tiny_kg


class TestNTriplesParsing:
    def test_parse_entity_edge(self):
        triple = parse_ntriples_line("dbr:F dbo:starring dbr:A .")
        assert triple is not None
        assert triple.subject == "dbr:F"
        assert triple.object == "dbr:A"

    def test_parse_full_iris(self):
        triple = parse_ntriples_line(
            "<http://x.org/F> <http://x.org/p> <http://x.org/A> ."
        )
        assert triple is not None
        assert triple.subject == "http://x.org/F"

    def test_parse_literal(self):
        triple = parse_ntriples_line('dbr:F dbo:runtime "142 minutes" .')
        assert triple is not None
        assert triple.is_literal
        assert triple.object_value == "142 minutes"

    def test_parse_literal_with_language(self):
        triple = parse_ntriples_line('dbr:F rdfs:label "Forrest Gump"@en .')
        assert triple is not None
        assert triple.object.language == "en"

    def test_parse_escaped_quote(self):
        triple = parse_ntriples_line('dbr:F dbo:quote "life is like a \\"box\\"" .')
        assert triple is not None
        assert triple.object_value == 'life is like a "box"'

    def test_blank_and_comment_lines(self):
        assert parse_ntriples_line("") is None
        assert parse_ntriples_line("   ") is None
        assert parse_ntriples_line("# a comment") is None

    def test_malformed_line_raises(self):
        with pytest.raises(GraphIOError):
            parse_ntriples_line("this is not a triple")

    def test_serialize_roundtrip_entity(self):
        triple = Triple("dbr:F", "dbo:starring", "dbr:A")
        assert parse_ntriples_line(triple_to_ntriples(triple)) == triple

    def test_serialize_roundtrip_literal(self):
        triple = Triple("dbr:F", "dbo:runtime", Literal("142 minutes"))
        assert parse_ntriples_line(triple_to_ntriples(triple)) == triple


class TestDBpediaLines:
    """Statements shaped like the lines of a DBpedia dump."""

    def test_typed_literal_with_an_iri_datatype_is_a_literal(self):
        triple = parse_ntriples_line(
            "<http://dbpedia.org/resource/Forrest_Gump> <http://dbpedia.org/ontology/runtime> "
            f'"142.0"^^<{XSD_DOUBLE}> .'
        )
        assert triple == Triple(
            "http://dbpedia.org/resource/Forrest_Gump",
            "http://dbpedia.org/ontology/runtime",
            Literal("142.0", datatype=XSD_DOUBLE),
        )

    def test_typed_literal_with_a_curie_datatype(self):
        triple = parse_ntriples_line('dbr:Forrest_Gump dbo:releaseYear "1994"^^xsd:gYear .')
        assert triple.object == Literal("1994", datatype="xsd:gYear")

    def test_echar_escapes_are_decoded(self):
        triple = parse_ntriples_line(
            'dbr:Forrest_Gump dbo:abstract "Run,\\tForrest!\\nRun!\\r\\b\\f\\\'\\"\\\\"@en .'
        )
        assert triple.object == Literal("Run,\tForrest!\nRun!\r\b\f'\"\\", language="en")

    def test_uchar_escapes_are_decoded(self):
        triple = parse_ntriples_line(
            'dbr:Amelie rdfs:label "Am\\u00E9lie \\U0001F3AC"@fr .'
        )
        assert triple.object == Literal("Amélie \U0001F3AC", language="fr")

    def test_region_subtags_are_language_tags(self):
        triple = parse_ntriples_line('dbr:Roma rdfs:label "Roma"@es-419 .')
        assert triple.object == Literal("Roma", language="es-419")

    def test_an_unknown_escape_is_an_error(self):
        with pytest.raises(GraphIOError, match="escape"):
            parse_ntriples_line('dbr:F dbo:quote "a \\q b" .')

    def test_a_literal_holding_a_newline_is_written_on_one_line(self, tmp_path):
        graph = KnowledgeGraph("abstracts")
        graph.add("dbr:Forrest_Gump", "dbo:abstract", Literal("line one\nline two", language="en"))
        graph.add("dbr:Forrest_Gump", "dbo:runtime", Literal("142.0", datatype=XSD_DOUBLE))
        path = tmp_path / "abstracts.nt"
        save_ntriples(graph, path)
        assert len(path.read_text(encoding="utf-8").splitlines()) == 2
        assert list(load_ntriples(path).triples) == list(graph.triples)


class TestFileRoundtrips:
    def test_ntriples_roundtrip(self, sample_graph, tmp_path):
        path = tmp_path / "graph.nt"
        save_ntriples(sample_graph, path)
        assert list(load_ntriples(path).triples) == list(sample_graph.triples)

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(GraphIOError):
            load_ntriples(tmp_path / "missing.nt")

    def test_ntriples_name_from_stem(self, sample_graph, tmp_path):
        path = tmp_path / "mygraph.nt"
        save_ntriples(sample_graph, path)
        assert load_ntriples(path).name == "mygraph"


identifiers = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)
lexical_forms = st.text(
    alphabet=st.one_of(
        st.sampled_from(['"', "\\", "\n", "\r", "\t", "'", " ", "\x00", "\x85", "\u2028", "é", "漢", "\U0001F600"]),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=20,
)
literals = st.one_of(
    st.builds(Literal, lexical_forms),
    st.builds(Literal, lexical_forms, language=st.sampled_from(["en", "de-CH", "es-419"])),
    st.builds(Literal, lexical_forms, datatype=st.sampled_from(["integer", "xsd:gYear", XSD_DOUBLE])),
)


@given(st.lists(st.tuples(identifiers, identifiers, st.one_of(identifiers, literals)), max_size=15))
@settings(max_examples=60, deadline=None)
def test_property_save_then_load_gives_exactly_the_triples(tmp_path_factory, rows):
    graph = KnowledgeGraph("drawn")
    for subject, predicate, obj in rows:
        graph.add(f"ex:{subject}", f"ex:{predicate}", obj if isinstance(obj, Literal) else f"ex:{obj}")
    path = tmp_path_factory.mktemp("nt") / "drawn.nt"
    save_ntriples(graph, path)
    assert list(load_ntriples(path).triples) == list(graph.triples)


CURATED = {"movies-small": small_movie_kg, "academic-small": small_academic_kg, "geography": build_geography_kg}


@pytest.mark.parametrize("shape", sorted(GRAPH_SHAPES))
def test_a_random_graph_reads_back_as_exactly_its_triples(tmp_path, shape):
    graph = build_random_kg(GRAPH_SHAPES[shape])
    path = tmp_path / f"{shape}.nt"
    save_ntriples(graph, path)
    assert list(load_ntriples(path).triples) == list(graph.triples)


@pytest.mark.parametrize("dataset", sorted(CURATED))
def test_a_curated_graph_read_back_serves_like_the_original(tmp_path, dataset):
    graph = CURATED[dataset]()
    path = tmp_path / f"{dataset}.nt"
    save_ntriples(graph, path)
    reread = load_ntriples(path)
    assert list(reread.triples) == list(graph.triples)
    seeds = largest_type_members(graph, 2)
    with PivotE(graph) as original, PivotE(reread) as served:
        query = graph.label(seeds[0])
        assert served.search(query, top_k=5) == original.search(query, top_k=5)
        expected, got = original.recommend(seeds), served.recommend(seeds)
        assert [(e.entity_id, e.score) for e in got.entities] == [(e.entity_id, e.score) for e in expected.entities]
        assert [(f.feature.key, f.score) for f in got.features] == [(f.feature.key, f.score) for f in expected.features]

"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from index_oracle import sorted_build
from repro.eval import (
    average_precision,
    ndcg_at_k,
    precision_at_k,
    recall_at_k,
)
from repro.features import Direction, SemanticFeature, SemanticFeatureIndex
from repro.index import FieldedIndex
from repro.kg import KnowledgeGraph, Literal, Triple
from repro.kg.io import parse_ntriples_line, triple_to_ntriples
from repro.ranking import FeatureProbabilityModel, SemanticFeatureRanker
from repro.search import dirichlet_probability, jelinek_mercer_probability
from repro.text import normalize_text, tokenize

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
identifiers = st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True).map(lambda s: f"ex:{s}")
predicates = st.sampled_from(["ex:p1", "ex:p2", "ex:p3"])
edge_triples = st.tuples(identifiers, predicates, identifiers).filter(lambda t: t[0] != t[2])


@st.composite
def small_graphs(draw) -> KnowledgeGraph:
    """Random small KGs with typed entities and edges."""
    kg = KnowledgeGraph("prop")
    edges = draw(st.lists(edge_triples, min_size=1, max_size=30))
    types = ["ex:TypeA", "ex:TypeB", "ex:TypeC"]
    for subject, predicate, obj in edges:
        kg.add(subject, predicate, obj)
    for index, entity in enumerate(sorted(kg.entities())):
        kg.add_type(entity, types[index % len(types)])
    return kg


# --------------------------------------------------------------------------- #
# KG invariants
# --------------------------------------------------------------------------- #
@given(small_graphs())
@settings(max_examples=30, deadline=None)
def test_outgoing_incoming_are_mirror_images(kg: KnowledgeGraph):
    """Every outgoing edge of s appears as an incoming edge of o and vice versa."""
    for entity in kg.entities():
        for predicate, target in kg.outgoing(entity):
            assert (predicate, entity) in kg.incoming(target)
        for predicate, source in kg.incoming(entity):
            assert (predicate, entity) in kg.outgoing(source)


@given(small_graphs())
@settings(max_examples=30, deadline=None)
def test_edge_count_consistency(kg: KnowledgeGraph):
    """num_edges equals the sum over predicates of their frequencies."""
    assert kg.num_edges() == sum(
        kg.predicate_frequency(predicate) for predicate in kg.edge_predicates()
    )


@given(small_graphs())
@settings(max_examples=30, deadline=None)
def test_duplicate_insertion_is_idempotent(kg: KnowledgeGraph):
    before = len(kg)
    for triple in list(kg.triples):
        assert kg.add_triple(triple) is False
    assert len(kg) == before


@given(edge_triples)
def test_ntriples_roundtrip_for_edges(edge):
    subject, predicate, obj = edge
    triple = Triple(subject, predicate, obj)
    assert parse_ntriples_line(triple_to_ntriples(triple)) == triple


@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters='"\\\n\r'), max_size=30).filter(str.strip))
def test_ntriples_roundtrip_for_literals(value):
    triple = Triple("ex:s", "ex:p", Literal(value))
    parsed = parse_ntriples_line(triple_to_ntriples(triple))
    assert parsed is not None and parsed.object_value == value


# --------------------------------------------------------------------------- #
# Semantic feature invariants
# --------------------------------------------------------------------------- #
@given(small_graphs())
@settings(max_examples=25, deadline=None)
def test_feature_extension_matches_holders(kg: KnowledgeGraph):
    """E(pi) from the index is exactly the set of entities whose feature set contains pi."""
    index = SemanticFeatureIndex.build(kg)
    for feature in index.all_features():
        matching = index.entities_matching(feature)
        holders = {entity for entity in kg.entities() if feature in index.features_of(entity)}
        assert matching == holders


@given(small_graphs())
@settings(max_examples=25, deadline=None)
def test_probability_bounds_property(kg: KnowledgeGraph):
    """p(pi | e) always lies in (0, 1] and equals 1 exactly for holders."""
    index = SemanticFeatureIndex.build(kg)
    model = FeatureProbabilityModel(kg, index)
    features = index.all_features()[:10]
    entities = sorted(kg.entities())[:10]
    for feature in features:
        for entity in entities:
            probability = model.probability(feature, entity)
            assert 0.0 < probability <= 1.0
            if index.holds(entity, feature):
                assert probability == 1.0


@given(small_graphs())
@settings(max_examples=20, deadline=None)
def test_sf_scores_non_negative_and_sorted(kg: KnowledgeGraph):
    index = SemanticFeatureIndex.build(kg)
    ranker = SemanticFeatureRanker(kg, index)
    seeds = sorted(kg.entities())[:2]
    scored = ranker.rank(seeds, top_k=20)
    scores = [item.score for item in scored]
    assert all(score >= 0.0 for score in scores)
    assert scores == sorted(scores, reverse=True)


@given(st.text(max_size=50))
def test_semantic_feature_parse_never_crashes_on_valid_notation(text):
    feature = SemanticFeature(anchor="ex:a", predicate="ex:p", direction=Direction.SUBJECT_OF)
    assert SemanticFeature.parse(feature.notation()) == feature


# --------------------------------------------------------------------------- #
# Text and index invariants
# --------------------------------------------------------------------------- #
@given(st.text(max_size=80))
def test_tokenize_output_is_normalized(text):
    for token in tokenize(text):
        assert token == token.lower()
        assert " " not in token
        assert token  # non-empty


@given(st.text(max_size=80))
def test_normalize_text_idempotent(text):
    once = normalize_text(text)
    assert normalize_text(once) == once


@given(st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=30))
def test_inverted_index_frequencies_sum_to_length(terms):
    base = sorted_build(["names"], {"d": {"names": terms}}).field_index("names")
    written = FieldedIndex(["names"]).with_added_document("d", {"names": terms})
    for index in (base, written.field_index("names")):
        assert index.document_length("d") == len(terms)
        assert sum(index.term_frequency(t, "d") for t in set(terms)) == len(terms)


# --------------------------------------------------------------------------- #
# Language model invariants
# --------------------------------------------------------------------------- #
@given(
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=500),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.1, max_value=5000),
)
def test_dirichlet_probability_bounds(tf, doc_len, collection_p, mu):
    tf = min(tf, doc_len)
    value = dirichlet_probability(tf, doc_len, collection_p, mu)
    assert 0.0 <= value <= 1.0 + 1e-9


@given(
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=1, max_value=500),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_jm_probability_bounds(tf, doc_len, collection_p, lam):
    tf = min(tf, doc_len)
    value = jelinek_mercer_probability(tf, doc_len, collection_p, lam)
    assert 0.0 <= value <= 1.0 + 1e-9


# --------------------------------------------------------------------------- #
# Metric invariants
# --------------------------------------------------------------------------- #
ranked_lists = st.lists(st.sampled_from([f"e{i}" for i in range(12)]), unique=True, max_size=12)
relevant_sets = st.sets(st.sampled_from([f"e{i}" for i in range(12)]), min_size=1, max_size=6)


@given(ranked_lists, relevant_sets, st.integers(min_value=1, max_value=15))
def test_metric_bounds(ranked, relevant, k):
    assert 0.0 <= precision_at_k(ranked, relevant, k) <= 1.0
    assert 0.0 <= recall_at_k(ranked, relevant, k) <= 1.0
    assert 0.0 <= average_precision(ranked, relevant) <= 1.0
    assert 0.0 <= ndcg_at_k(ranked, relevant, k) <= 1.0 + 1e-9


@given(relevant_sets)
def test_perfect_ranking_has_perfect_metrics(relevant):
    ranked = sorted(relevant)
    assert average_precision(ranked, relevant) == 1.0
    assert math.isclose(ndcg_at_k(ranked, relevant, len(ranked)), 1.0)
    assert recall_at_k(ranked, relevant, len(ranked)) == 1.0

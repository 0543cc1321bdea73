"""The one serial search path across graph shapes and configurations.

Every language-model scorer answers through the max-score kernel and
the exact epilogue; ``search_exhaustive`` scores every candidate and
sorts by ``(-score, doc_id)``.  ``test_columnar_equivalence`` holds the
two forms equal on the movie graph under the default weights.  The
suites here widen the inputs the kernel's bounds depend on:

* random graphs of different shapes (type counts, degrees, hubs,
  attribute-heavy documents, a graph smaller than ``top_k``);
* every retrieval field, not just ``names``, for the single-field scorer;
* field-weight profiles with zero and skewed weights, and field subsets;
* a grid of smoothing parameters (and the BM25F baseline's reference
  ranking with ``k1``/``b`` at their edges);
* documents that tie exactly, so ``top_k`` cuts through a run of equal
  scores;
* an index grown by ``add_entity``, ``explain`` against the hits, and a
  whole exploration session on a saved and reloaded system.

The suites run on a system built in RAM, one loaded from a snapshot (the
stored posting rows) and, where the suite itself does not write, one
written to after its first search (a view derived from the previous
epoch's) — the ``ORIGINS`` of ``serial_matrix``.

Every comparison is exact: same ids, same floats, same per-term scores.
"""

from __future__ import annotations

import pytest

from index_oracle import assert_same_index
from repro.config import (
    DEFAULT_FIELD_WEIGHTS,
    DEFAULT_FIELDS,
    PivotEConfig,
    SearchConfig,
)
from repro.datasets import RandomKGConfig, build_random_kg, small_movie_kg
from repro.engine import PivotE
from repro.kg import GraphBuilder
from repro.search import (
    BM25FScorer,
    BM25Params,
    SearchEngine,
    build_entity_document,
    idf,
    parse_query,
)
from serial_matrix import GRAPH_SHAPES, ORIGINS, origin_system

SCORERS = ("mlm", "single_field")


def _assert_identical(fast_results, slow_results):
    assert len(fast_results) == len(slow_results)
    for fast, slow in zip(fast_results, slow_results):
        assert fast.doc_id == slow.doc_id
        assert fast.score == slow.score  # byte-identical, no tolerance
        assert dict(fast.term_scores) == dict(slow.term_scores)


def _hit_signature(hits) -> list[tuple[str, float]]:
    return [(hit.entity_id, hit.score) for hit in hits]


def _queries(graph) -> list[str]:
    """Labels, a label pair, the first value of each of the first entity's
    fields, the term every name shares, and a term no document holds."""
    entities = sorted(graph.entities())
    step = max(1, len(entities) // 4)
    labels = [graph.label(entities[index]) for index in range(0, len(entities), step)]
    first = build_entity_document(graph, entities[0])
    extras = [" ".join(values[:1]) for values in first.fields.values() if values]
    return [
        *labels[:3],
        f"{labels[0]} {labels[-1]}",
        *extras,
        "entity",
        "zzyzx entity",
    ]


def _scorer(engine: SearchEngine, name: str):
    if name == "mlm":
        return engine.mlm_scorer
    return engine.single_field_scorer()


def _origin_engine(graph, origin: str, directory, config: SearchConfig | None = None):
    """The search engine of a system over ``graph`` from ``origin``."""
    system_config = PivotEConfig(search=config or SearchConfig())
    return origin_system(graph, origin, str(directory), system_config).search_engine


@pytest.fixture(scope="module")
def shape_engines(tmp_path_factory):
    """``(graph, engine)`` per (graph shape, origin), built on first use."""
    cache: dict[tuple[str, str], tuple[object, SearchEngine]] = {}

    def get(shape: str, origin: str) -> tuple[object, SearchEngine]:
        key = (shape, origin)
        if key not in cache:
            graph = build_random_kg(GRAPH_SHAPES[shape])
            directory = tmp_path_factory.mktemp(f"{shape}-{origin}")
            cache[key] = graph, _origin_engine(graph, origin, directory)
        return cache[key]

    return get


class TestRandomGraphShapes:
    """Kernels == exhaustive on graphs of different shapes, at a one-slot
    heap, a mid-sized heap, and a ``k`` beyond every candidate pool."""

    @pytest.mark.parametrize("origin", ORIGINS)
    @pytest.mark.parametrize("scorer_name", SCORERS)
    @pytest.mark.parametrize("shape", sorted(GRAPH_SHAPES))
    def test_kernels_equal_exhaustive(self, shape_engines, shape, scorer_name, origin):
        graph, engine = shape_engines(shape, origin)
        scorer = _scorer(engine, scorer_name)
        for raw in _queries(graph):
            query = parse_query(raw)
            pool = len(engine.index.candidate_documents(query.all_terms()))
            for top_k in (1, 7, 1000):
                expected = scorer.search_exhaustive(query, top_k=top_k)
                _assert_identical(scorer.search(query, top_k=top_k), expected)
                assert len(expected) == min(top_k, pool)


def _field_queries(graph, field: str, count: int = 4) -> list[str]:
    """Queries made of terms the given field actually holds."""
    queries = []
    for entity_id in sorted(graph.entities()):
        values = build_entity_document(graph, entity_id).fields.get(field, ())
        if values:
            queries.append(" ".join(str(values[0]).split()[:2]))
        if len(queries) == count:
            break
    assert queries, f"no document holds text in {field}"
    return queries + [f"{queries[0]} {queries[-1]}"]


class TestEveryField:
    """The single-field scorer over each of the five retrieval fields."""

    @pytest.mark.parametrize("origin", ORIGINS)
    @pytest.mark.parametrize("smoothing", ("dirichlet", "jelinek-mercer"))
    @pytest.mark.parametrize("field", DEFAULT_FIELDS)
    def test_language_model_kernels_equal_exhaustive(self, tmp_path, field, smoothing, origin):
        graph = small_movie_kg()
        engine = _origin_engine(graph, origin, tmp_path, SearchConfig(smoothing=smoothing))
        scorer = engine.single_field_scorer(field)
        for raw in _field_queries(graph, field):
            query = parse_query(raw)
            for top_k in (1, 10):
                _assert_identical(
                    scorer.search(query, top_k=top_k),
                    scorer.search_exhaustive(query, top_k=top_k),
                )


def _weights(**overrides: float) -> dict[str, float]:
    weights = dict(DEFAULT_FIELD_WEIGHTS)
    weights.update(overrides)
    return weights


WEIGHT_PROFILES = {
    "names-only": {
        "field_weights": _weights(
            names=1.0,
            attributes=0.0,
            categories=0.0,
            similar_entity_names=0.0,
            related_entity_names=0.0,
        )
    },
    "no-names": {"field_weights": _weights(names=0.0)},
    "uniform": {"field_weights": {field: 0.2 for field in DEFAULT_FIELDS}},
    "context-heavy": {"field_weights": _weights(names=0.001, related_entity_names=0.9)},
    "unnormalised": {"field_weights": {field: 3.0 for field in DEFAULT_FIELDS}},
    "names-field": {"fields": ("names",), "field_weights": {"names": 1.0}},
    "two-fields": {
        "fields": ("names", "categories"),
        "field_weights": {"names": 0.7, "categories": 0.3},
    },
}


class TestFieldWeightProfiles:
    """Zero, skewed and unnormalised weights, and indexes over a subset of
    the fields: the MaxScore bounds are weighted sums, so a zero weight or
    a dominant field moves every bound."""

    @pytest.mark.parametrize("origin", ORIGINS)
    @pytest.mark.parametrize("profile", sorted(WEIGHT_PROFILES))
    def test_kernels_equal_exhaustive(self, tmp_path, profile, origin):
        config = SearchConfig(**WEIGHT_PROFILES[profile])
        engine = _origin_engine(small_movie_kg(), origin, tmp_path, config)
        assert engine.index.fields == tuple(config.fields)
        scorer = engine.mlm_scorer
        for raw in ("forrest gump hanks", "drama 1994", "comedy director", "robert"):
            query = parse_query(raw)
            for top_k in (1, 5, 1000):
                _assert_identical(
                    scorer.search(query, top_k=top_k),
                    scorer.search_exhaustive(query, top_k=top_k),
                )


BM25_PARAMS = {
    "k1-zero": BM25Params(k1=0.0, b=0.75),
    "b-zero": BM25Params(k1=1.2, b=0.0),
    "b-one": BM25Params(k1=1.2, b=1.0),
    "k1-large": BM25Params(k1=3.0, b=0.5),
    "k1-small": BM25Params(k1=0.3, b=0.25),
}


class TestBM25FParameters:
    """The BM25F baseline's reference ranking with ``k1``/``b`` at their
    edges: sorted by ``(-score, doc_id)``, cut at ``top_k``, each score
    the one :meth:`~repro.search.BM25FScorer.score_document` gives.  At
    ``k1 = 0`` saturation is total, so every held term contributes its
    IDF, up to the per-document rounding of ``w / w``."""

    @pytest.mark.parametrize("origin", ORIGINS)
    @pytest.mark.parametrize("params", sorted(BM25_PARAMS))
    def test_reference_ranking(self, shape_engines, params, origin):
        graph, engine = shape_engines("default", origin)
        index = engine.index
        scorer = BM25FScorer(index, engine.config.field_weights, BM25_PARAMS[params])
        for raw in _queries(graph):
            query = parse_query(raw)
            pool = len(index.candidate_documents(query.all_terms()))
            for top_k in (1, 7, 1000):
                ranked = scorer.search_exhaustive(query, top_k=top_k)
                assert len(ranked) == min(top_k, pool)
                assert ranked == sorted(ranked, key=lambda r: (-r.score, r.doc_id))
                for result in ranked:
                    _assert_identical([result], [scorer.score_document(query, result.doc_id)])
            if params != "k1-zero":
                continue
            for result in scorer.search_exhaustive(query, top_k=1000):
                for term, contribution in result.term_scores.items():
                    if contribution:
                        df = len(index.candidate_documents([term]))  # any field holds it
                        assert contribution == pytest.approx(idf(index.num_documents, df))


SMOOTHING_GRID = {
    "mu-1": {"dirichlet_mu": 1.0},
    "mu-10": {"dirichlet_mu": 10.0},
    "mu-1000": {"dirichlet_mu": 1000.0},
    "mu-100000": {"dirichlet_mu": 100_000.0},
    "jm-0.01": {"smoothing": "jelinek-mercer", "jm_lambda": 0.01},
    "jm-0.3": {"smoothing": "jelinek-mercer", "jm_lambda": 0.3},
    "jm-0.7": {"smoothing": "jelinek-mercer", "jm_lambda": 0.7},
    "jm-0.99": {"smoothing": "jelinek-mercer", "jm_lambda": 0.99},
}


class TestSmoothingGrid:
    """The language-model scorers over a grid of smoothing parameters on a
    random graph, where most query terms are rare."""

    @pytest.mark.parametrize("origin", ORIGINS)
    @pytest.mark.parametrize("scorer_name", SCORERS)
    @pytest.mark.parametrize("setting", sorted(SMOOTHING_GRID))
    def test_kernels_equal_exhaustive(self, tmp_path, setting, scorer_name, origin):
        graph = build_random_kg(GRAPH_SHAPES["default"])
        config = SearchConfig(**SMOOTHING_GRID[setting])
        engine = _origin_engine(graph, origin, tmp_path, config)
        scorer = _scorer(engine, scorer_name)
        for raw in _queries(graph):
            query = parse_query(raw)
            for top_k in (1, 7, 1000):
                _assert_identical(
                    scorer.search(query, top_k=top_k),
                    scorer.search_exhaustive(query, top_k=top_k),
                )


def _tie_graph():
    """Six identical films, three identical people and two loners: most
    queries score whole runs of documents exactly equal."""
    builder = GraphBuilder("ties")
    for number in range(6):
        builder.entity(
            f"ex:Twin{number}",
            label="twin film",
            types=["ex:Film"],
            categories=["exc:Twins"],
            attributes={"ex:year": "1999"},
        )
    for number in range(3):
        builder.entity(f"ex:Person{number}", label="twin actor", types=["ex:Actor"])
    builder.entity("ex:Loner", label="film loner", types=["ex:Film"])
    builder.entity("ex:Other", label="other actor", types=["ex:Actor"])
    return builder.build()


TIE_QUERIES = ("twin", "twin film", "film", "actor twin", "1999 twin", "loner twin")


@pytest.fixture(scope="module")
def tie_engines(tmp_path_factory):
    return {
        origin: _origin_engine(_tie_graph(), origin, tmp_path_factory.mktemp(f"ties-{origin}"))
        for origin in ORIGINS
    }


class TestExactTies:
    """``top_k`` cutting through a run of equal scores: the kernels keep
    exactly the ``(-score, doc_id)`` winners the reference keeps."""

    @pytest.mark.parametrize("origin", ORIGINS)
    @pytest.mark.parametrize("scorer_name", SCORERS)
    @pytest.mark.parametrize("top_k", range(1, 9))
    def test_kernels_equal_exhaustive(self, tie_engines, top_k, scorer_name, origin):
        scorer = _scorer(tie_engines[origin], scorer_name)
        for raw in TIE_QUERIES:
            query = parse_query(raw)
            expected = scorer.search_exhaustive(query, top_k=top_k)
            _assert_identical(scorer.search(query, top_k=top_k), expected)

    @pytest.mark.parametrize("origin", ORIGINS)
    @pytest.mark.parametrize("scorer_name", SCORERS)
    def test_the_graph_ties(self, tie_engines, scorer_name, origin):
        """Guard for the suite above: six twins tie on "twin film"."""
        scorer = _scorer(tie_engines[origin], scorer_name)
        ranked = scorer.search_exhaustive(parse_query("twin film"), top_k=1000)
        twins = [result for result in ranked if result.doc_id.startswith("ex:Twin")]
        assert len(twins) == 6
        assert len({result.score for result in twins}) == 1
        assert [result.doc_id for result in twins] == [f"ex:Twin{n}" for n in range(6)]


class TestSearchAfterAddEntity:
    """An index grown one entity at a time by ``add_entity``: the kernels
    still equal the reference, the engine ranks as a fresh build, and the
    columnar view each write derived from its predecessor's equals a view
    built from scratch, array for array — whether the first view came from
    a build or from a snapshot's stored rows."""

    QUERIES = ("added", "added entity 2", "entity 3", "entity 1 added 0", "renamed")

    @pytest.mark.parametrize("origin", ("built", "loaded"))
    @pytest.mark.parametrize("scorer_name", SCORERS)
    def test_kernels_equal_exhaustive_and_fresh_build(self, tmp_path, scorer_name, origin):
        built = build_random_kg(RandomKGConfig(num_entities=60, seed=29))
        system = origin_system(built, origin, str(tmp_path))
        graph, engine = system.graph, system.search_engine
        written = [f"ex:Added{number}" for number in range(4)] + ["ex:Added1"]
        for number, entity in enumerate(written):
            # Searching first builds this epoch's view, so the write derives the next.
            for raw in self.QUERIES:
                _scorer(engine, scorer_name).search(parse_query(raw), top_k=5)
            if number < 4:
                graph.add_label(entity, f"added entity {number}")
                graph.add_type(entity, "ex:Added")
            else:  # re-index an entity already indexed
                graph.add_label(entity, "renamed")
            engine.add_entity(entity)
        fresh = SearchEngine.from_graph(graph)
        scorer = _scorer(engine, scorer_name)
        reference = _scorer(fresh, scorer_name)
        for raw in self.QUERIES:
            query = parse_query(raw)
            for top_k in (1, 5, 1000):
                grown = scorer.search(query, top_k=top_k)
                _assert_identical(grown, scorer.search_exhaustive(query, top_k=top_k))
                fresh_results = reference.search(query, top_k=top_k)
                assert [(r.doc_id, r.score) for r in grown] == [
                    (r.doc_id, r.score) for r in fresh_results
                ]
        assert_same_index(engine.index, fresh.index)


class TestExplainAgreesWithHits:
    """Every hit's score is the score ``explain`` gives that entity."""

    @pytest.mark.parametrize("origin", ORIGINS)
    @pytest.mark.parametrize("shape", sorted(GRAPH_SHAPES))
    def test_hit_scores_equal_explain(self, shape_engines, shape, origin):
        graph, engine = shape_engines(shape, origin)
        for raw in _queries(graph):
            for hit in engine.search(raw, top_k=10):
                explained = engine.explain(raw, hit.entity_id)
                assert explained.doc_id == hit.entity_id
                assert explained.score == hit.score


def _session_signature(system: PivotE, query: str) -> list:
    """Keywords → two selections → pivot: every hit list and recommendation."""
    session = system.start_session()
    responses = [system.submit_keywords(session, query)]
    for hit in responses[0].hits[:2]:
        responses.append(system.select_entity(session, hit.entity_id))
    recommendation = responses[-1].recommendation
    responses.append(system.pivot(session, recommendation.entities[-1].entity_id))
    signature = []
    for response in responses:
        signature.append(_hit_signature(response.hits))
        if response.recommendation is not None:
            signature.append(
                [(e.entity_id, e.score) for e in response.recommendation.entities]
            )
            signature.append(
                [(f.feature.notation(), f.score) for f in response.recommendation.features]
            )
            signature.append(response.recommendation.correlations.values.tolist())
    return signature


class TestSessionsOnReloadedSystems:
    """A whole session on a system loaded from ``save`` repeats the
    session on the system that saved it."""

    @pytest.mark.parametrize("shape", ("default", "hub-skewed", "many-types"))
    def test_session_byte_identical(self, tmp_path, shape):
        graph = build_random_kg(GRAPH_SHAPES[shape])
        query = graph.label(sorted(graph.entities())[0])
        with PivotE(graph) as system:
            expected = _session_signature(system, query)
            system.save(str(tmp_path))
        with PivotE.load(str(tmp_path)) as loaded:
            assert loaded.stats().storage.failures == 0
            assert _session_signature(loaded, query) == expected

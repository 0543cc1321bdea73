"""The one serial search path across graph shapes and configurations.

Every search scorer answers through the columnar kernels and the exact
epilogue; ``search_exhaustive`` scores every candidate and sorts by
``(-score, doc_id)``.  ``test_columnar_equivalence`` holds the two forms
equal on the movie graph under the default weights.  The suites here
widen the inputs the kernels' bounds depend on:

* random graphs of different shapes (type counts, degrees, hubs,
  attribute-heavy documents, a graph smaller than ``top_k``);
* every retrieval field, not just ``names``, for the single-field and
  BM25 scorers;
* field-weight profiles with zero and skewed weights, and field subsets;
* BM25 ``k1``/``b`` at their edges and a grid of smoothing parameters;
* documents that tie exactly, so ``top_k`` cuts through a run of equal
  scores;
* an index grown by ``add_entity``, ``explain`` against the hits, and a
  whole exploration session on a saved and reloaded system.

Every comparison is exact: same ids, same floats, same per-term scores.
"""

from __future__ import annotations

import pytest

from repro.config import (
    DEFAULT_FIELD_WEIGHTS,
    DEFAULT_FIELDS,
    PRUNING_MODES,
    PivotEConfig,
    RankingConfig,
    SearchConfig,
)
from repro.datasets import RandomKGConfig, build_random_kg, small_movie_kg
from repro.engine import PivotE
from repro.kg import GraphBuilder
from repro.search import (
    BM25FieldScorer,
    BM25FScorer,
    BM25Params,
    SearchEngine,
    build_entity_document,
    parse_query,
)

SCORERS = ("mlm", "single_field", "bm25", "bm25f")

GRAPH_SHAPES = {
    "default": RandomKGConfig(num_entities=160, seed=3),
    "two-types": RandomKGConfig(num_entities=160, num_types=2, seed=5),
    "many-types": RandomKGConfig(num_entities=200, num_types=30, seed=9),
    "dense-edges": RandomKGConfig(num_entities=120, avg_out_degree=12.0, seed=11),
    "sparse-edges": RandomKGConfig(num_entities=160, avg_out_degree=1.0, seed=13),
    "hub-skewed": RandomKGConfig(num_entities=160, target_skew=1.2, seed=17),
    "attribute-heavy": RandomKGConfig(num_entities=120, attributes_per_entity=8, seed=19),
    "tiny": RandomKGConfig(num_entities=12, num_types=3, seed=23),
}


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
    if name == "single_field":
        return engine.single_field_scorer()
    if name == "bm25":
        return engine.bm25_names_scorer()
    return engine.bm25f_scorer()


@pytest.fixture(scope="module")
def shape_engines():
    """``(graph, engine)`` per (graph shape, pruning mode), built on first use."""
    graphs: dict[str, object] = {}
    cache: dict[tuple[str, str], tuple[object, SearchEngine]] = {}

    def get(shape: str, pruning: str) -> tuple[object, SearchEngine]:
        if shape not in graphs:
            graphs[shape] = build_random_kg(GRAPH_SHAPES[shape])
        key = (shape, pruning)
        if key not in cache:
            graph = graphs[shape]
            cache[key] = graph, SearchEngine.from_graph(graph, SearchConfig(pruning=pruning))
        return cache[key]

    return get


class TestRandomGraphShapes:
    """Kernels == exhaustive on graphs of different shapes, at a one-slot
    heap, a mid-sized heap, and a ``k`` beyond every candidate pool."""

    @pytest.mark.parametrize("pruning", PRUNING_MODES)
    @pytest.mark.parametrize("scorer_name", SCORERS)
    @pytest.mark.parametrize("shape", sorted(GRAPH_SHAPES))
    def test_kernels_equal_exhaustive(self, shape_engines, shape, scorer_name, pruning):
        graph, engine = shape_engines(shape, pruning)
        scorer = _scorer(engine, scorer_name)
        for raw in _queries(graph):
            query = parse_query(raw)
            pool = len(engine.index.candidate_documents(query.all_terms()))
            for top_k in (1, 7, 1000):
                expected = scorer.search_exhaustive(query, top_k=top_k)
                _assert_identical(scorer.search(query, top_k=top_k), expected)
                assert len(expected) == min(top_k, pool)


@pytest.fixture(scope="module")
def movie_graph():
    return small_movie_kg()


def _field_queries(engine: SearchEngine, field: str, count: int = 4) -> list[str]:
    """Queries made of terms the given field actually holds."""
    queries = []
    for entity_id in sorted(engine.index.documents()):
        values = engine.document(entity_id).fields.get(field, ())
        if values:
            queries.append(" ".join(str(values[0]).split()[:2]))
        if len(queries) == count:
            break
    assert queries, f"no document holds text in {field}"
    return queries + [f"{queries[0]} {queries[-1]}"]


class TestEveryField:
    """The single-field scorers over each of the five retrieval fields."""

    @pytest.mark.parametrize("pruning", PRUNING_MODES)
    @pytest.mark.parametrize("smoothing", ("dirichlet", "jelinek-mercer"))
    @pytest.mark.parametrize("field", DEFAULT_FIELDS)
    def test_language_model_kernels_equal_exhaustive(
        self, movie_graph, field, smoothing, pruning
    ):
        engine = SearchEngine.from_graph(
            movie_graph, SearchConfig(pruning=pruning, smoothing=smoothing)
        )
        scorer = engine.single_field_scorer(field)
        for raw in _field_queries(engine, field):
            query = parse_query(raw)
            for top_k in (1, 10):
                _assert_identical(
                    scorer.search(query, top_k=top_k),
                    scorer.search_exhaustive(query, top_k=top_k),
                )

    @pytest.mark.parametrize("pruning", PRUNING_MODES)
    @pytest.mark.parametrize("field", DEFAULT_FIELDS)
    def test_bm25_kernels_equal_exhaustive(self, movie_graph, field, pruning):
        engine = SearchEngine.from_graph(movie_graph)
        scorer = BM25FieldScorer(engine.index, field, pruning=pruning)
        for raw in _field_queries(engine, field):
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

    @pytest.mark.parametrize("pruning", PRUNING_MODES)
    @pytest.mark.parametrize("scorer_name", ("mlm", "bm25f"))
    @pytest.mark.parametrize("profile", sorted(WEIGHT_PROFILES))
    def test_kernels_equal_exhaustive(self, movie_graph, profile, scorer_name, pruning):
        config = SearchConfig(pruning=pruning, **WEIGHT_PROFILES[profile])
        engine = SearchEngine.from_graph(movie_graph, config)
        assert engine.index.fields == tuple(config.fields)
        scorer = _scorer(engine, scorer_name)
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


class TestBM25Parameters:
    """``k1 = 0`` gives every holder of a term its IDF up to per-document
    rounding, a run of near-ties longer than the selection margin; ``b``
    at 0 and 1 switches length normalisation off and fully on."""

    @pytest.mark.parametrize("pruning", PRUNING_MODES)
    @pytest.mark.parametrize("scorer_name", ("bm25", "bm25f"))
    @pytest.mark.parametrize("params", sorted(BM25_PARAMS))
    def test_kernels_equal_exhaustive(self, shape_engines, params, scorer_name, pruning):
        graph, engine = shape_engines("default", "maxscore")
        if scorer_name == "bm25":
            scorer = BM25FieldScorer(
                engine.index, "names", BM25_PARAMS[params], pruning=pruning
            )
        else:
            scorer = BM25FScorer(
                engine.index,
                engine.config.field_weights,
                BM25_PARAMS[params],
                pruning=pruning,
            )
        for raw in _queries(graph):
            query = parse_query(raw)
            for top_k in (1, 7, 1000):
                _assert_identical(
                    scorer.search(query, top_k=top_k),
                    scorer.search_exhaustive(query, top_k=top_k),
                )


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

    @pytest.mark.parametrize("pruning", PRUNING_MODES)
    @pytest.mark.parametrize("scorer_name", ("mlm", "single_field"))
    @pytest.mark.parametrize("setting", sorted(SMOOTHING_GRID))
    def test_kernels_equal_exhaustive(self, setting, scorer_name, pruning):
        graph = build_random_kg(GRAPH_SHAPES["default"])
        engine = SearchEngine.from_graph(
            graph, SearchConfig(pruning=pruning, **SMOOTHING_GRID[setting])
        )
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
def tie_engines():
    graph = _tie_graph()
    return {
        pruning: SearchEngine.from_graph(graph, SearchConfig(pruning=pruning))
        for pruning in PRUNING_MODES
    }


class TestExactTies:
    """``top_k`` cutting through a run of equal scores: the kernels keep
    exactly the ``(-score, doc_id)`` winners the reference keeps."""

    @pytest.mark.parametrize("pruning", PRUNING_MODES)
    @pytest.mark.parametrize("scorer_name", SCORERS)
    @pytest.mark.parametrize("top_k", range(1, 9))
    def test_kernels_equal_exhaustive(self, tie_engines, top_k, scorer_name, pruning):
        scorer = _scorer(tie_engines[pruning], scorer_name)
        for raw in TIE_QUERIES:
            query = parse_query(raw)
            expected = scorer.search_exhaustive(query, top_k=top_k)
            _assert_identical(scorer.search(query, top_k=top_k), expected)

    @pytest.mark.parametrize("scorer_name", SCORERS)
    def test_the_graph_ties(self, tie_engines, scorer_name):
        """Guard for the suite above: six twins tie on "twin film"."""
        scorer = _scorer(tie_engines["off"], scorer_name)
        ranked = scorer.search_exhaustive(parse_query("twin film"), top_k=1000)
        twins = [result for result in ranked if result.doc_id.startswith("ex:Twin")]
        assert len(twins) == 6
        assert len({result.score for result in twins}) == 1
        assert [result.doc_id for result in twins] == [f"ex:Twin{n}" for n in range(6)]


class TestSearchAfterAddEntity:
    """An index grown one entity at a time by ``add_entity``: the kernels
    still equal the reference, and the engine ranks as a fresh build."""

    @pytest.mark.parametrize("pruning", PRUNING_MODES)
    @pytest.mark.parametrize("scorer_name", SCORERS)
    def test_kernels_equal_exhaustive_and_fresh_build(self, scorer_name, pruning):
        graph = build_random_kg(RandomKGConfig(num_entities=60, seed=29))
        engine = SearchEngine.from_graph(graph, SearchConfig(pruning=pruning))
        for number in range(4):
            entity = f"ex:Added{number}"
            graph.add_label(entity, f"added entity {number}")
            graph.add_type(entity, "ex:Added")
            engine.add_entity(entity)
        fresh = SearchEngine.from_graph(graph, SearchConfig(pruning=pruning))
        scorer = _scorer(engine, scorer_name)
        reference = _scorer(fresh, scorer_name)
        for raw in ("added", "added entity 2", "entity 3", "entity 1 added 0"):
            query = parse_query(raw)
            for top_k in (1, 5, 1000):
                grown = scorer.search(query, top_k=top_k)
                _assert_identical(grown, scorer.search_exhaustive(query, top_k=top_k))
                fresh_results = reference.search(query, top_k=top_k)
                assert [(r.doc_id, r.score) for r in grown] == [
                    (r.doc_id, r.score) for r in fresh_results
                ]


class TestExplainAgreesWithHits:
    """Every hit's score is the score ``explain`` gives that entity."""

    @pytest.mark.parametrize("pruning", PRUNING_MODES)
    @pytest.mark.parametrize("shape", sorted(GRAPH_SHAPES))
    def test_hit_scores_equal_explain(self, shape_engines, shape, pruning):
        graph, engine = shape_engines(shape, pruning)
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
    session on the system that saved it, and on either pruning mode."""

    @pytest.mark.parametrize("pruning", PRUNING_MODES)
    @pytest.mark.parametrize("shape", ("default", "hub-skewed", "many-types"))
    def test_session_byte_identical(self, tmp_path, shape, pruning):
        graph = build_random_kg(GRAPH_SHAPES[shape])
        query = graph.label(sorted(graph.entities())[0])
        config = PivotEConfig(
            search=SearchConfig(pruning=pruning), ranking=RankingConfig(pruning=pruning)
        )
        other = "off" if pruning == "maxscore" else "maxscore"
        other_config = PivotEConfig(
            search=SearchConfig(pruning=other), ranking=RankingConfig(pruning=other)
        )
        with PivotE(graph, config=config) as system:
            expected = _session_signature(system, query)
            system.save(str(tmp_path))
        with PivotE.load(str(tmp_path), config=config) as loaded:
            assert loaded.stats().storage.failures == 0
            assert _session_signature(loaded, query) == expected
        with PivotE(graph, config=other_config) as system:
            assert _session_signature(system, query) == expected

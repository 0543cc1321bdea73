"""The one serial recommendation path across graph shapes, knobs and origins.

Both §2.3 rankers answer through the array kernels — the entity ranker
through the max-score kernel and the exact epilogue — and each has one
other form, ``rank_exhaustive``.  The correlation matrix is one numpy
assembly next to the cell-by-cell reference.  ``test_ranking_accumulator``
holds the forms equal on rankers built straight from a graph; the suites
here run them inside a system, on the random graph shapes of the search
matrix, under every scoring knob, and on systems built, loaded from a
snapshot (the stored feature tables) and written to after their first
recommendation (tables derived from the previous epoch's) — the
``ORIGINS`` of ``serial_matrix``.  The written entity joins the largest
type, so on the random graphs it is the first seed.  The expander's type
filter is held to its id form on the same systems.

Every comparison is exact: same entities, same features, same floats.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import PivotEConfig, RankingConfig
from repro.datasets import build_random_kg
from repro.engine import PivotE
from repro.ranking import build_correlation_matrix, build_correlation_matrix_exhaustive
from serial_matrix import GRAPH_SHAPES, ORIGINS, largest_type_members, origin_system


def _feature_signature(scored) -> list:
    return [(item.feature, item.score, dict(item.seed_probabilities)) for item in scored]


def _entity_signature(scored) -> list:
    return [(item.entity_id, item.score, dict(item.contributions)) for item in scored]


def _assert_rankers_equal_exhaustive(system: PivotE, seeds: list[str], top_k: int) -> None:
    """Feature ranking, entity ranking and matrix: array form == reference."""
    expander = system.recommendation_engine.expander
    feature_ranker, entity_ranker = expander.feature_ranker, expander.entity_ranker

    features = feature_ranker.rank(seeds, top_k=top_k)
    reference_features = feature_ranker.rank_exhaustive(seeds, top_k=top_k)
    assert _feature_signature(features) == _feature_signature(reference_features)

    entities = entity_ranker.rank(seeds, top_k=top_k, scored_features=features)
    reference_entities = entity_ranker.rank_exhaustive(
        seeds, top_k=top_k, scored_features=reference_features
    )
    assert _entity_signature(entities) == _entity_signature(reference_entities)

    model = feature_ranker.probability_model
    matrix = build_correlation_matrix(model, entities, features)
    reference = build_correlation_matrix_exhaustive(model, reference_entities, reference_features)
    assert matrix.entities == reference.entities
    assert matrix.features == reference.features
    assert np.array_equal(matrix.values, reference.values)


@pytest.fixture(scope="module")
def shape_systems(tmp_path_factory):
    """``(graph, system)`` per (graph shape, origin), built on first use."""
    cache: dict[tuple[str, str], tuple[object, PivotE]] = {}

    def get(shape: str, origin: str) -> tuple[object, PivotE]:
        key = (shape, origin)
        if key not in cache:
            graph = build_random_kg(GRAPH_SHAPES[shape])
            directory = str(tmp_path_factory.mktemp(f"{shape}-{origin}"))
            cache[key] = graph, origin_system(graph, origin, directory)
        return cache[key]

    yield get
    for _, system in cache.values():
        system.close()


class TestRandomGraphShapes:
    """Rankers == reference on graphs of different shapes, for one seed and
    for several, at a one-slot cut, a mid-sized one and a ``k`` past every
    candidate pool."""

    @pytest.mark.parametrize("origin", ORIGINS)
    @pytest.mark.parametrize("seed_count", (1, 2, 4))
    @pytest.mark.parametrize("shape", sorted(GRAPH_SHAPES))
    def test_rankers_equal_exhaustive(self, shape_systems, shape, seed_count, origin):
        graph, system = shape_systems(shape, origin)
        seeds = largest_type_members(graph, seed_count)
        assert seeds
        for top_k in (1, 5, 1000):
            _assert_rankers_equal_exhaustive(system, seeds, top_k)


    @pytest.mark.parametrize("origin", ORIGINS)
    @pytest.mark.parametrize("shape", sorted(GRAPH_SHAPES))
    def test_type_filter_equals_reference(self, shape_systems, shape, origin):
        """The expander's type filter over the pinned tables keeps exactly
        the candidates the id form keeps, in candidate order, for every
        type of the graph and one it lacks."""
        graph, system = shape_systems(shape, origin)
        expander = system.recommendation_engine.expander
        tables = expander.feature_ranker.probability_model.support().columnar_tables()
        ordinals = np.random.default_rng(7).permutation(tables.num_entities)
        ids = [tables.entity_ids[ordinal] for ordinal in ordinals.tolist()]
        for type_id in [*sorted(graph.types()), "ex:NoSuchType"]:
            kept = expander.restrict_candidates(ordinals, type_id, tables=tables)
            assert [tables.entity_ids[ordinal] for ordinal in kept.tolist()] == (
                expander.restrict_candidates(ids, type_id)
            ), type_id


class TestScoringKnobs:
    """Every scoring variant on the hub-skewed graph: ``type_smoothing``
    changes the base rows the kernel inputs are built from, the two
    ablation switches the SF scores that weight the accumulators and the
    matrix cells."""

    @pytest.mark.parametrize("origin", ORIGINS)
    @pytest.mark.parametrize("use_commonality", (True, False))
    @pytest.mark.parametrize("use_discriminability", (True, False))
    @pytest.mark.parametrize("type_smoothing", (True, False))
    def test_rankers_equal_exhaustive(
        self, tmp_path, type_smoothing, use_discriminability, use_commonality, origin
    ):
        ranking = RankingConfig(
            type_smoothing=type_smoothing,
            use_discriminability=use_discriminability,
            use_commonality=use_commonality,
        )
        graph = build_random_kg(GRAPH_SHAPES["hub-skewed"])
        with origin_system(graph, origin, str(tmp_path), PivotEConfig(ranking=ranking)) as system:
            assert system.config.ranking == ranking
            seeds = largest_type_members(graph, 3)
            for top_k in (1, 8, 1000):
                _assert_rankers_equal_exhaustive(system, seeds, top_k)

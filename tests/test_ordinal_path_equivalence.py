"""The recommendation request path in ordinal space == the object references.

Since PR 15 a recommendation runs on entity and feature ordinals of the
pinned snapshot's ``ColumnarFeatureTables`` from the seeds to the heat
map.  Every float it returns must be bitwise what the per-object
references produce — ``rank_exhaustive`` on both rankers,
``EntityRanker.score_entity``, ``build_correlation_matrix_exhaustive``,
``repro.features.extraction.candidate_entities`` and, for the heat map,
the cell-by-cell loop kept below — on random graphs and random query
states.  The graphs use identifiers like ``e:1`` / ``e:10`` on purpose:
one is a prefix of the other, so notation order and ordinal order
disagree and the tie-breaks are exercised.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import HeatmapConfig, RankingConfig
from repro.datasets import RandomKGConfig, build_random_kg
from repro.expansion import EntitySetExpander
from repro.features import Direction, SemanticFeature, SemanticFeatureIndex, candidate_entities
from repro.features.columnar import columnar_tables
from repro.features.extraction import features_of_entity
from repro.features.semantic_feature import key_notation
from repro.kg import KnowledgeGraph, graph_topology
from repro.ranking import (
    EntityRanker,
    SemanticFeatureRanker,
    build_correlation_matrix,
    build_correlation_matrix_exhaustive,
)
from repro.ranking.correlation import CorrelationMatrix
from repro.viz import build_heatmap

TYPES = ("t:A", "t:B", "t:C")
PREDICATES = ("p:x", "p:y", "p:z")
MISSING = SemanticFeature("e:0", "p:never", Direction.SUBJECT_OF)


@st.composite
def graphs(draw) -> KnowledgeGraph:
    """A small graph with untyped, singly and doubly typed entities."""
    count = draw(st.integers(min_value=5, max_value=26))
    graph = KnowledgeGraph()
    for number in range(count):
        entity = f"e:{number}"
        graph.add_label(entity, f"entity {number}")
        for type_id in draw(st.lists(st.sampled_from(TYPES), max_size=2, unique=True)):
            graph.add_type(entity, type_id)
    numbers = st.integers(min_value=0, max_value=count - 1)
    edges = draw(
        st.lists(
            st.tuples(numbers, st.sampled_from(PREDICATES), numbers),
            min_size=count,
            max_size=5 * count,
        )
    )
    for subject, predicate, obj in edges:
        graph.add(f"e:{subject}", predicate, f"e:{obj}")
    return graph


@st.composite
def states(draw):
    """``(graph, seeds, config)``: seeds may repeat, knobs cover every stage."""
    graph = draw(graphs())
    entities = sorted(graph.entities())
    seeds = draw(st.lists(st.sampled_from(entities), min_size=1, max_size=4))
    config = RankingConfig(
        top_features=draw(st.sampled_from((1, 2, 5, 30))),
        top_entities=draw(st.sampled_from((1, 3, 20))),
        max_features=draw(st.sampled_from((1, 3, 10000))),
        max_candidates=draw(st.sampled_from((2, 5, 5000))),
        type_smoothing=draw(st.booleans()),
        use_discriminability=draw(st.booleans()),
        use_commonality=draw(st.booleans()),
        recommendation_cache_size=0,
    )
    return graph, seeds, config


def feature_signature(scored) -> list[tuple]:
    return [
        (
            item.feature,
            item.score,
            item.discriminability,
            item.commonality,
            list(item.seed_probabilities.items()),
        )
        for item in scored
    ]


def entity_signature(scored) -> list[tuple]:
    return [(item.entity_id, item.score, list(item.contributions.items())) for item in scored]


def assert_same_up_to_the_cut_tie(fast, reference, cut: int) -> None:
    """Scores equal rank by rank; identifiers too, except inside a score tie
    that straddles the cut (the known difference between the margin-selecting
    fast path and ``rank_exhaustive``, benchmarks/e2e/README.md)."""
    assert [item.score for item in fast] == [item.score for item in reference]
    cut_score = reference[-1].score if len(reference) == cut else None
    for left, right in zip(fast, reference):
        if right.score != cut_score:
            assert left.entity_id == right.entity_id


RELAXED = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestFeatureRanker:
    @given(state=states(), top_k=st.sampled_from((None, 1, 2, 4, 500)))
    @RELAXED
    def test_rank_is_rank_exhaustive_bitwise(self, state, top_k):
        graph, seeds, config = state
        ranker = SemanticFeatureRanker(graph, SemanticFeatureIndex.build(graph), config)
        fast = ranker.rank(seeds, top_k=top_k)
        assert feature_signature(fast) == feature_signature(ranker.rank_exhaustive(seeds, top_k=top_k))
        stages = ranker.probability_model.stages
        assert stages.arrays["sf_rank"] == 1 and not stages.fallbacks["sf_rank"]

    def test_ties_at_the_cut_follow_notation_not_ordinal_order(self):
        """``e:1`` sorts before ``e:10`` as an anchor, after it as a notation."""
        graph = KnowledgeGraph()
        for anchor in ("e:1", "e:10", "e:2"):
            graph.add("e:0", "p:x", anchor)
        index = SemanticFeatureIndex.build(graph)
        ranker = SemanticFeatureRanker(graph, index, RankingConfig(top_features=1))
        (winner,) = ranker.rank(["e:0"])
        assert winner.feature.anchor == "e:10"
        assert feature_signature([winner]) == feature_signature(ranker.rank_exhaustive(["e:0"]))

    @given(graph=graphs())
    @RELAXED
    def test_key_notation_is_the_feature_notation(self, graph):
        tables = columnar_tables(SemanticFeatureIndex.build(graph).snapshot())
        for anchor, predicate, direction in tables.feature_keys():
            feature = SemanticFeature(anchor, predicate, Direction(direction))
            assert key_notation(feature.key) == feature.notation()


class TestEntityRanker:
    @given(state=states())
    @RELAXED
    def test_every_returned_entity_is_score_entity(self, state):
        graph, seeds, config = state
        index = SemanticFeatureIndex.build(graph)
        ranker = EntityRanker(graph, index, config)
        scored_features = ranker.feature_ranker.rank(seeds)
        fast = ranker.rank(seeds, scored_features=scored_features)
        assert entity_signature(fast) == entity_signature(
            [ranker.score_entity(item.entity_id, scored_features) for item in fast]
        )
        assert_same_up_to_the_cut_tie(
            fast, ranker.rank_exhaustive(seeds, scored_features=scored_features), config.top_entities
        )
        stages = ranker.feature_ranker.probability_model.stages
        assert stages.arrays["entity_rank"] == 1 and stages.arrays["candidates"] == 1
        assert not any(stages.fallbacks.values())

    def test_totals_accumulate_left_to_right(self):
        """Long feature rows: a pairwise or blocked sum differs in the last bit
        on about half of these entities; the left-to-right one on none."""
        graph = build_random_kg(
            RandomKGConfig(num_entities=300, seed=5, target_skew=1.4, avg_out_degree=6.0)
        )
        ranker = EntityRanker(graph, SemanticFeatureIndex.build(graph), RankingConfig())
        ids = sorted(graph.entities())
        for start in range(0, len(ids), 7):
            seeds = [ids[start], ids[(3 * start + 1) % len(ids)]]
            scored_features = ranker.feature_ranker.rank(seeds)
            fast = ranker.rank(seeds, scored_features=scored_features)
            assert entity_signature(fast) == entity_signature(
                [ranker.score_entity(item.entity_id, scored_features) for item in fast]
            )

    @given(
        state=states(),
        pin_held=st.booleans(),
        pin_missing=st.booleans(),
        domain=st.sampled_from(("", *TYPES)),
    )
    @RELAXED
    def test_expansion_with_filters(self, state, pin_held, pin_missing, domain):
        graph, seeds, config = state
        index = SemanticFeatureIndex.build(graph)
        pinned = [MISSING] if pin_missing else []
        if pin_held:
            pinned += sorted(index.features_of(seeds[0]))[:1]
        expander = EntitySetExpander(graph, index, config)
        fast = expander.expand(seeds, required_features=pinned, domain_type=domain)
        reference = expander.expand(
            seeds, required_features=pinned, domain_type=domain, exhaustive=True
        )
        assert feature_signature(fast.features) == feature_signature(reference.features)
        assert_same_up_to_the_cut_tie(fast.entities, reference.entities, config.top_entities)
        assert not any(expander.feature_ranker.probability_model.stages.fallbacks.values())


@pytest.fixture(scope="module")
def skewed_graph() -> KnowledgeGraph:
    return build_random_kg(
        RandomKGConfig(num_entities=240, seed=11, target_skew=1.4, avg_out_degree=6.0)
    )


class TestExpansionFilterMatrix:
    """Every restriction the expander applies, on a hub-skewed
    graph: the ordinal candidates, type filter and ``holds`` filter agree
    with their object forms in the reference."""

    @pytest.mark.parametrize(
        "restriction", ("none", "seed-type", "domain", "pinned", "domain-and-pinned")
    )
    def test_expansion_is_the_reference(self, skewed_graph, restriction):
        index = SemanticFeatureIndex.build(skewed_graph)
        config = RankingConfig(recommendation_cache_size=0)
        expander = EntitySetExpander(skewed_graph, index, config)
        largest = max(skewed_graph.types(), key=lambda t: (skewed_graph.type_count(t), t))
        seeds = sorted(skewed_graph.entities_of_type(largest))[:3]
        hubs = sorted(
            index.features_of(seeds[0]), key=lambda f: (-len(index.holders_of(f)), f.notation())
        )
        knobs = {
            "none": {},
            "seed-type": {"restrict_to_seed_type": True},
            "domain": {"domain_type": largest},
            "pinned": {"required_features": hubs[:1]},
            "domain-and-pinned": {"domain_type": largest, "required_features": hubs[:1]},
        }[restriction]
        fast = expander.expand(seeds, **knobs)
        reference = expander.expand(seeds, exhaustive=True, **knobs)
        assert fast.entities
        assert feature_signature(fast.features) == feature_signature(reference.features)
        assert_same_up_to_the_cut_tie(fast.entities, reference.entities, config.top_entities)
        stages = expander.feature_ranker.probability_model.stages
        assert stages.arrays["entity_rank"] == 1
        assert not any(stages.fallbacks.values())


class TestSeedRows:
    @given(graph=graphs())
    @RELAXED
    def test_mirrored_anchored_rows_are_the_held_features(self, graph):
        """An entity's feature row — its anchored rows mirrored — is what
        the per-entity walk finds it holds, and its anchored range is the
        features whose anchor it is."""
        index = SemanticFeatureIndex.build(graph)
        tables = columnar_tables(index.snapshot())
        topology = tables.topology
        assert topology is graph_topology(graph)
        everyone = list(range(tables.num_entities))
        keys = tables.feature_keys()
        for entity, row in zip(tables.entity_ids, topology.feature_rows(everyone)):
            assert [keys[ordinal] for ordinal in row.tolist()] == sorted(
                feature.key for feature in features_of_entity(graph, entity)
            )
            low, high = topology.anchored_range(tables.ordinal_of[entity])
            assert [key[0] == entity for key in keys] == [
                low <= ordinal < high for ordinal in range(len(keys))
            ]


class TestCandidateTally:
    @given(state=states(), limit=st.sampled_from((None, 1, 3, 1000)))
    @RELAXED
    def test_ordinal_tally_is_candidate_entities(self, state, limit):
        graph, seeds, _ = state
        index = SemanticFeatureIndex.build(graph)
        tables = columnar_tables(index.snapshot())
        features = sorted(index.features_of_any(seeds)) + [MISSING]
        ordinals = index.candidates_matching_any(
            tables.feature_ordinals([feature.key for feature in features]),
            exclude=tables.entity_ordinals(seeds),
            limit=limit,
            tables=tables,
        )
        expected = candidate_entities(graph, features, exclude=seeds, limit=limit)
        assert [tables.entity_ids[ordinal] for ordinal in ordinals.tolist()] == expected
        assert index.candidates_matching_any(features, exclude=seeds, limit=limit) == expected


class TestCorrelationMatrix:
    @given(state=states())
    @RELAXED
    def test_matrix_is_the_exhaustive_matrix(self, state):
        graph, seeds, config = state
        index = SemanticFeatureIndex.build(graph)
        ranker = EntityRanker(graph, index, config)
        model = ranker.feature_ranker.probability_model
        features = ranker.feature_ranker.rank(seeds)
        features.append(ranker.feature_ranker.score_feature(MISSING, seeds))
        entities = ranker.rank(seeds, scored_features=features)
        # Rows may repeat, and an entity the graph lacks is an untyped non-holder.
        entities = [*entities, *entities[:1], ranker.score_entity("e:absent", features)]
        fast = build_correlation_matrix(model, entities, features)
        reference = build_correlation_matrix_exhaustive(model, entities, features)
        assert fast.entities == reference.entities and fast.features == reference.features
        assert fast.values.shape == reference.values.shape
        assert fast.values.tobytes() == reference.values.tobytes()
        assert not fast.values.flags.writeable


def heatmap_levels_cell_by_cell(values: np.ndarray, thresholds, levels: int) -> np.ndarray:
    """The loop ``build_heatmap`` ran before it became one ``searchsorted``."""
    result = np.zeros(values.shape, dtype=int)
    thresholds = np.asarray(thresholds, dtype=float)
    for row in range(values.shape[0]):
        for column in range(values.shape[1]):
            value = values[row, column]
            if value <= 0.0:
                continue
            level = 1 + int(np.searchsorted(thresholds, value, side="right"))
            result[row, column] = min(level, levels - 1)
    return result


def matrix_of(values: np.ndarray) -> CorrelationMatrix:
    return CorrelationMatrix(
        entities=tuple(f"e{row}" for row in range(values.shape[0])),
        features=tuple(SemanticFeature(f"a{column}", "p") for column in range(values.shape[1])),
        values=values,
    )


class TestHeatmap:
    @given(
        values=st.lists(
            st.lists(st.sampled_from((0.0, 1e-9, 1e-3, 0.25, 0.5, 0.5, 1.0, 7.5)), min_size=4, max_size=4),
            min_size=1,
            max_size=6,
        ),
        scale=st.sampled_from(("linear", "log", "quantile")),
        levels=st.sampled_from((2, 3, 7)),
    )
    @RELAXED
    def test_levels_match_the_cell_loop(self, values, scale, levels):
        array = np.array(values, dtype=float)
        heatmap = build_heatmap(matrix_of(array), HeatmapConfig(levels=levels, scale=scale))
        expected = heatmap_levels_cell_by_cell(array, heatmap.thresholds, levels)
        assert heatmap.levels.dtype == expected.dtype
        assert heatmap.levels.tolist() == expected.tolist()

    @pytest.mark.parametrize("scale", ("linear", "log", "quantile"))
    @pytest.mark.parametrize(
        "values",
        (np.zeros((3, 2)), np.full((2, 3), 0.125), np.zeros((0, 0)), np.zeros((0, 4))),
        ids=("all-zero", "single-value", "empty", "no-rows"),
    )
    def test_degenerate_matrices(self, scale, values):
        heatmap = build_heatmap(matrix_of(values), HeatmapConfig(scale=scale))
        expected = heatmap_levels_cell_by_cell(values, heatmap.thresholds, 7)
        assert heatmap.levels.shape == values.shape
        assert heatmap.levels.tolist() == expected.tolist()

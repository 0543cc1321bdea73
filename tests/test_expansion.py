"""Tests for repro.expansion: entity set expansion."""

from __future__ import annotations

import pytest

from repro.datasets import tom_hanks_task
from repro.exceptions import NoSeedEntitiesError
from repro.expansion import EntitySetExpander
from repro.features import Direction, SemanticFeature
from repro.kg import KnowledgeGraph


@pytest.fixture(scope="module")
def movie_expander(request) -> EntitySetExpander:
    movie_kg = request.getfixturevalue("movie_kg")
    return EntitySetExpander(movie_kg)


class TestExpandTiny:
    def test_expansion_finds_similar_film(self, tiny_kg: KnowledgeGraph):
        expander = EntitySetExpander(tiny_kg)
        result = expander.expand(["ex:F1", "ex:F2"])
        assert result.entity_ids()[0] == "ex:F3"
        assert result.seeds == ("ex:F1", "ex:F2")

    def test_empty_seeds_raise(self, tiny_kg: KnowledgeGraph):
        with pytest.raises(NoSeedEntitiesError):
            EntitySetExpander(tiny_kg).expand([])

    def test_restrict_to_seed_type(self, tiny_kg: KnowledgeGraph):
        expander = EntitySetExpander(tiny_kg)
        result = expander.expand(["ex:F1", "ex:F2"], restrict_to_seed_type=True)
        assert result.restricted_type == "ex:Film"
        for entity_id in result.entity_ids():
            assert "ex:Film" in tiny_kg.types_of(entity_id)

    def test_required_features_filter(self, tiny_kg: KnowledgeGraph):
        expander = EntitySetExpander(tiny_kg)
        starring_a1 = SemanticFeature("ex:A1", "ex:starring", Direction.OBJECT_OF)
        result = expander.expand(["ex:F1"], required_features=[starring_a1])
        for entity_id in result.entity_ids():
            assert expander.feature_index.holds(entity_id, starring_a1)

    def test_dominant_seed_type(self, tiny_kg: KnowledgeGraph):
        expander = EntitySetExpander(tiny_kg)
        assert expander.dominant_seed_type(["ex:F1", "ex:F2", "ex:A1"]) == "ex:Film"
        assert expander.dominant_seed_type([]) == ""

    def test_top_k_respected(self, tiny_kg: KnowledgeGraph):
        result = EntitySetExpander(tiny_kg).expand(["ex:F1"], top_k=1)
        assert len(result.entities) == 1

    def test_feature_notations_exposed(self, tiny_kg: KnowledgeGraph):
        result = EntitySetExpander(tiny_kg).expand(["ex:F1", "ex:F2"])
        assert any("starring" in notation for notation in result.feature_notations())


class TestDemoScenario:
    """The paper's running example: expanding Tom Hanks films."""

    def test_tom_hanks_films_recovered(self, movie_expander: EntitySetExpander, movie_kg):
        task = tom_hanks_task(movie_kg)
        result = movie_expander.expand(task.seeds, top_k=20)
        recovered = set(result.entity_ids()) & set(task.relevant)
        # At least half of the held-out Tom Hanks films appear in the top 20.
        assert len(recovered) >= len(task.relevant) / 2

    def test_tom_hanks_feature_ranked_highly(self, movie_expander: EntitySetExpander):
        result = movie_expander.expand(["dbr:Forrest_Gump", "dbr:Apollo_13_(film)"])
        top_features = result.feature_notations()[:5]
        assert any("Tom_Hanks" in notation for notation in top_features)

    def test_expanded_entities_are_films(self, movie_expander: EntitySetExpander, movie_kg):
        result = movie_expander.expand(
            ["dbr:Forrest_Gump", "dbr:Apollo_13_(film)"], restrict_to_seed_type=True, top_k=10
        )
        for entity_id in result.entity_ids():
            assert "dbo:Film" in movie_kg.types_of(entity_id)

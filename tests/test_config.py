"""Tests for repro.config and repro.exceptions."""

from __future__ import annotations

import dataclasses

import pytest

from repro import PivotEError
from repro.config import (
    DEFAULT_FIELDS,
    DEFAULT_FIELD_WEIGHTS,
    HeatmapConfig,
    PivotEConfig,
    RankingConfig,
    SearchConfig,
)
from repro.exceptions import (
    EmptyQueryError,
    EntityNotFoundError,
    ExplorationError,
    KnowledgeGraphError,
    NoSeedEntitiesError,
    RankingError,
    SearchError,
)


class TestSearchConfig:
    def test_defaults(self):
        config = SearchConfig()
        assert config.fields == DEFAULT_FIELDS
        assert config.smoothing == "dirichlet"
        assert sum(DEFAULT_FIELD_WEIGHTS.values()) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(smoothing="bogus")
        with pytest.raises(ValueError):
            SearchConfig(dirichlet_mu=0)
        with pytest.raises(ValueError):
            SearchConfig(jm_lambda=1.5)
        with pytest.raises(ValueError):
            SearchConfig(top_k=0)
        with pytest.raises(ValueError):
            SearchConfig(field_weights={"names": 1.0})  # missing other fields
        # Values that would make every score NaN, or demote a field below
        # nothing, and a document with no fields at all.
        for mu in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="dirichlet_mu"):
                SearchConfig(dirichlet_mu=mu)
        for weight in (float("nan"), float("inf"), -0.1):
            with pytest.raises(ValueError, match="field weights"):
                SearchConfig(field_weights={**DEFAULT_FIELD_WEIGHTS, "names": weight})
        with pytest.raises(ValueError, match="at least one field"):
            SearchConfig(fields=())
        assert SearchConfig(field_weights={**DEFAULT_FIELD_WEIGHTS, "names": 0.0})

    def test_with_override(self):
        config = SearchConfig().with_(top_k=5)
        assert config.top_k == 5
        assert SearchConfig().top_k == 20

    def test_removed_knobs_are_rejected(self):
        """One serial search path: no columnar switch, no search-side
        topology knob, no execution tier, and ``pruning`` is ``off`` or
        ``maxscore``."""
        assert len(dataclasses.fields(SearchConfig)) == 8
        for knob in ("columnar", "graph_topology"):
            assert knob not in {field.name for field in dataclasses.fields(SearchConfig)}
        with pytest.raises(TypeError):
            SearchConfig(columnar=False)
        with pytest.raises(TypeError):
            SearchConfig(graph_topology=False)
        for config in (SearchConfig, RankingConfig):
            with pytest.raises(ValueError):
                config(pruning="blockmax")
            assert config(pruning="off").pruning == "off"


class TestRankingConfig:
    def test_defaults(self):
        config = RankingConfig()
        assert config.type_smoothing is True
        assert config.top_entities == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            RankingConfig(top_entities=0)
        with pytest.raises(ValueError):
            RankingConfig(max_candidates=0)
        with pytest.raises(ValueError):
            RankingConfig(epsilon=1.0)

    def test_with_override(self):
        assert RankingConfig().with_(top_features=5).top_features == 5

    def test_graph_topology_defaults_on(self):
        assert RankingConfig().graph_topology is True
        assert RankingConfig().with_(graph_topology=False).graph_topology is False

    def test_execution_knobs_are_search_only(self):
        """The recommender has one execution path: no shard, columnar,
        chunking, executor or snapshot-storage knobs."""
        assert len(dataclasses.fields(RankingConfig)) == 11
        names = {field.name for field in dataclasses.fields(RankingConfig)}
        for knob in ("columnar", "feature_chunk", "shards", "executor", "workers", "storage", "snapshot_dir"):
            assert knob not in names
        with pytest.raises(TypeError):
            RankingConfig(columnar=False)
        with pytest.raises(TypeError):
            RankingConfig(feature_chunk=2)
        with pytest.raises(TypeError):
            RankingConfig(shards=2)


@pytest.mark.parametrize(
    "knob, value",
    [
        ("shards", 2),
        ("executor", "process"),
        ("workers", 2),
        ("storage", "off"),
        ("snapshot_dir", "snapshots"),
    ],
)
@pytest.mark.parametrize("config", [SearchConfig, RankingConfig])
def test_removed_execution_knob_is_rejected(config, knob, value):
    """No config carries a shard, executor or snapshot-storage knob."""
    with pytest.raises(TypeError):
        config(**{knob: value})
    with pytest.raises(TypeError):
        config().with_(**{knob: value})


class TestHeatmapConfig:
    def test_paper_default_is_seven_levels(self):
        assert HeatmapConfig().levels == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            HeatmapConfig(levels=1)
        with pytest.raises(ValueError):
            HeatmapConfig(scale="bogus")


class TestPivotEConfig:
    def test_default_bundles_components(self):
        config = PivotEConfig.default()
        assert isinstance(config.search, SearchConfig)
        assert isinstance(config.ranking, RankingConfig)
        assert isinstance(config.heatmap, HeatmapConfig)


class TestExceptionHierarchy:
    def test_all_derive_from_pivote_error(self):
        for exc_type in (
            EntityNotFoundError("x"),
            EmptyQueryError("x"),
            NoSeedEntitiesError("x"),
        ):
            assert isinstance(exc_type, PivotEError)

    def test_domain_bases(self):
        assert issubclass(EntityNotFoundError, KnowledgeGraphError)
        assert issubclass(EmptyQueryError, SearchError)
        assert issubclass(NoSeedEntitiesError, RankingError)
        assert issubclass(ExplorationError, PivotEError)

    def test_entity_not_found_carries_identifier(self):
        error = EntityNotFoundError("dbr:X")
        assert error.entity_id == "dbr:X"
        assert "dbr:X" in str(error)

"""The unified typed stats/introspection API (``repro.stats``).

Contracts under test: the frozen record types themselves (round-trips,
lookup errors, immutability), ``stats()`` on all three engine components
(shapes, counters that actually move), the deprecated dict shims
(``cache_info`` / ``pruning_info`` / ``*_cache_info``) returning exactly
the numbers the typed records carry, ``as_dict()`` being plain JSON, and
the recommendation engine's per-stage array/fallback record.
"""

from __future__ import annotations

import dataclasses
import json
import logging

import pytest

from repro.config import PivotEConfig, RankingConfig, SearchConfig
from repro.engine import PivotE, PivotEApi
from repro.ranking.ranking_support import STAGES
from repro.search import SearchEngine
from repro.stats import CacheStats, EngineStats, PruningStatsView


class TestRecordTypes:
    def test_cache_stats_round_trip(self):
        info = {"hits": 3, "misses": 7, "size": 2, "maxsize": 128}
        stats = CacheStats.from_info("results", info)
        assert stats.name == "results"
        assert stats.as_info() == info

    def test_cache_stats_epoch_key(self):
        info = {"hits": 0, "misses": 1, "size": 1, "maxsize": 8, "epoch": 4}
        stats = CacheStats.from_info("recommendations", info)
        assert stats.epoch == 4
        assert stats.as_info() == info
        # Without an epoch the legacy dict has no epoch key at all.
        assert "epoch" not in CacheStats.from_info("results", dict(info, epoch=None)).as_info()

    def test_pruning_view_round_trip(self):
        counters = {
            "queries": 5,
            "terms_total": 10,
            "terms_skipped": 2,
            "candidates_total": 40,
            "candidates_pruned": 9,
            "groups_total": 0,
            "groups_skipped": 0,
            "blocks_total": 3,
            "blocks_skipped": 1,
            "rescored": 12,
            "kernel_queries": 4,
        }
        view = PruningStatsView.from_counters("mlm", counters)
        assert view.as_counters() == counters
        assert list(view.as_counters()) == list(counters)

    def test_records_are_frozen(self):
        stats = CacheStats.from_info(
            "results", {"hits": 0, "misses": 0, "size": 0, "maxsize": 1}
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.hits = 99  # type: ignore[misc]

    def test_engine_stats_lookups_raise_key_error(self):
        stats = EngineStats(
            component="search", epoch=0, shards=1, columnar=True, pruning="maxscore"
        )
        with pytest.raises(KeyError):
            stats.cache("results")
        with pytest.raises(KeyError):
            stats.pruning_view("mlm")
        with pytest.raises(KeyError):
            stats.child("recommendation")


class TestSearchEngineStats:
    @pytest.fixture(scope="class")
    def engine(self, movie_kg):
        engine = SearchEngine.from_graph(movie_kg, SearchConfig(pruning="blockmax"))
        engine.search("forrest gump")
        engine.search("forrest gump")  # one hit, one miss
        return engine

    def test_shape(self, engine):
        stats = engine.stats()
        assert stats.component == "search"
        assert stats.pruning == "blockmax"
        assert stats.columnar is True
        assert stats.shards == 1
        assert stats.children == ()
        assert [cache.name for cache in stats.caches] == ["results"]
        assert [view.name for view in stats.pruning_counters] == ["mlm"]

    def test_counters_move(self, engine):
        stats = engine.stats()
        assert stats.cache("results").hits >= 1
        assert stats.cache("results").misses >= 1
        assert stats.pruning_view("mlm").queries >= 1

    def test_shims_match_typed_records(self, engine):
        stats = engine.stats()
        assert engine.cache_info() == stats.cache("results").as_info()
        assert engine.pruning_info() == stats.pruning_view("mlm").as_counters()


class TestSystemStats:
    @pytest.fixture(scope="class")
    def system(self, movie_kg):
        system = PivotE(movie_kg, config=PivotEConfig.default())
        system.search("forrest gump")
        hits = system.search("forrest gump")
        system.recommend([hits[0].entity_id])
        system.recommend([hits[0].entity_id])
        return system

    def test_tree_shape(self, system):
        stats = system.stats()
        assert stats.component == "pivote"
        assert [child.component for child in stats.children] == [
            "search",
            "recommendation",
        ]
        assert stats.rebuilds is not None
        assert set(stats.rebuilds) == {"full_rebuilds", "delta_rebuilds", "delta_entities"}
        recommendation = stats.child("recommendation")
        assert recommendation.cache("recommendations").epoch == recommendation.epoch
        assert recommendation.cache("recommendations").hits >= 1

    def test_shims_match_typed_records(self, system):
        stats = system.stats()
        assert (
            system.search_cache_info()
            == stats.child("search").cache("results").as_info()
        )
        assert (
            system.recommendation_cache_info()
            == stats.child("recommendation").cache("recommendations").as_info()
        )
        recommender = system.recommendation_engine
        assert (
            recommender.cache_info()
            == stats.child("recommendation").cache("recommendations").as_info()
        )
        assert (
            recommender.pruning_info()
            == stats.child("recommendation").pruning_view("entity-ranker").as_counters()
        )

    def test_as_dict_is_plain_json(self, system):
        payload = system.stats().as_dict()
        decoded = json.loads(json.dumps(payload))
        assert decoded == payload
        assert payload["component"] == "pivote"
        children = payload["children"]
        assert set(children) == {"search", "recommendation"}
        assert children["search"]["caches"]["results"] == (
            system.stats().child("search").cache("results").as_info()
        )
        assert children["recommendation"]["pruning_counters"]["entity-ranker"] == (
            system.stats()
            .child("recommendation")
            .pruning_view("entity-ranker")
            .as_counters()
        )
        # Leaves never carry empty-children / null-rebuilds noise.
        assert "children" not in children["search"]
        assert "rebuilds" not in children["search"]
        assert payload["rebuilds"] == system.feature_index.rebuild_info()


class TestStageStats:
    """Which form each recommendation stage ran in: counted and named."""

    def fig4_session(self, system: PivotE) -> None:
        """The scripted Fig-4 path: keywords, three selections, pin/unpin,
        lookup, pivot, a selection in the new domain, investigate."""
        api = PivotEApi(system)

        def send(action: str, **fields) -> dict:
            response = api.handle({"action": action, "session_id": "s", **fields})
            assert response["status"] == "ok", response
            return response

        send("start_session")
        response = send("submit_keywords", keywords="forrest gump")
        response = send("select_entity", entity=response["hits"][0]["entity"])
        for rank in (0, 1):
            entity = response["recommendation"]["entities"][rank]["entity"]
            response = send("select_entity", entity=entity)
        feature = response["recommendation"]["features"][0]["feature"]
        send("pin_feature", feature=feature)
        send("unpin_feature", feature=feature)
        send("lookup", entity=response["recommendation"]["entities"][2]["entity"])
        response = send("pivot", entity=response["recommendation"]["entities"][-1]["entity"])
        send("select_entity", entity=response["recommendation"]["entities"][0]["entity"])
        send("investigate")

    def test_default_config_serves_a_session_without_fallbacks(self, movie_kg):
        system = PivotE(movie_kg)
        self.fig4_session(system)
        stages = system.stats().child("recommendation").stages
        assert stages.fallback_total == 0
        assert not any(stages.fallbacks.values())
        assert set(stages.arrays) == set(STAGES)
        assert all(count > 0 for count in stages.arrays.values()), stages.arrays
        payload = system.stats().as_dict()["children"]["recommendation"]["stages"]
        assert json.loads(json.dumps(payload)) == stages.as_dict()

    def test_explicit_pool_is_one_named_fallback(self, movie_kg, caplog):
        system = PivotE(movie_kg)
        ranker = system.recommendation_engine.expander.entity_ranker
        seeds = [system.search("forrest gump")[0].entity_id]
        pool = ranker.candidates(seeds, ranker.feature_ranker.rank(seeds))
        with caplog.at_level(logging.INFO, logger="repro"):
            explicit = ranker.rank(seeds, candidates=pool)
            ranker.rank(seeds, candidates=pool)
        stages = system.stats().child("recommendation").stages
        assert stages.fallbacks["entity_rank"] == {"explicit-pool": 2}
        assert stages.fallback_total == 2
        # Counted per request, logged once per reason and epoch.
        records = [record for record in caplog.records if "explicit-pool" in record.getMessage()]
        assert len(records) == 1 and records[0].name == "repro"
        assert [(item.entity_id, item.score) for item in explicit] == [
            (item.entity_id, item.score) for item in ranker.rank(seeds)
        ]

    def test_columnar_off_names_every_stage(self, movie_kg):
        config = PivotEConfig(ranking=RankingConfig(columnar=False))
        system = PivotE(movie_kg, config=config)
        self.fig4_session(system)
        stages = system.stats().child("recommendation").stages
        for stage in ("sf_rank", "candidates", "filters", "entity_rank"):
            assert stages.arrays[stage] == 0
            assert set(stages.fallbacks[stage]) == {"columnar-off"}
        # The matrix has one form: it reads the tables whatever the knob says.
        assert stages.arrays["correlation"] > 0 and not stages.fallbacks["correlation"]

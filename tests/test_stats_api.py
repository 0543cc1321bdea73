"""The unified typed stats/introspection API (``repro.stats``).

Contracts under test: the frozen record types themselves (round-trips,
lookup errors, immutability), ``stats()`` on all three engine components
(shapes, counters that actually move), the records carrying exactly
the numbers their sources report, ``stats()`` being the engines' only
counter accessor, ``as_dict()`` being plain JSON, and the
recommendation engine's per-stage array/fallback record.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import subprocess
import sys

import pytest

from repro.config import PivotEConfig
from repro.engine import PivotE, PivotEApi
from repro.expansion import EntitySetExpander
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
        stats = EngineStats(component="search", epoch=0)
        with pytest.raises(KeyError):
            stats.cache("results")
        with pytest.raises(KeyError):
            stats.pruning_view("mlm")
        with pytest.raises(KeyError):
            stats.child("recommendation")


class TestSearchEngineStats:
    @pytest.fixture(scope="class")
    def engine(self, movie_kg):
        engine = SearchEngine.from_graph(movie_kg)
        engine.search("forrest gump")
        engine.search("forrest gump")  # one hit, one miss
        return engine

    def test_shape(self, engine):
        stats = engine.stats()
        assert stats.component == "search"
        payload = stats.as_dict()
        assert "pruning" not in payload
        assert "columnar" not in payload
        assert "shards" not in payload
        assert "blocks_total" not in payload["pruning_counters"]["mlm"]
        assert stats.children == ()
        assert [cache.name for cache in stats.caches] == ["results"]
        assert [view.name for view in stats.pruning_counters] == ["mlm"]

    def test_counters_move(self, engine):
        stats = engine.stats()
        assert stats.cache("results").hits >= 1
        assert stats.cache("results").misses >= 1
        assert stats.pruning_view("mlm").queries >= 1

    def test_records_carry_their_sources(self, engine):
        stats = engine.stats()
        assert engine.mlm_scorer.pruning_info() == stats.pruning_view("mlm").as_counters()
        for accessor in ("cache_info", "pruning_info"):
            assert not hasattr(engine, accessor)


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

    def test_records_carry_their_sources(self, system):
        stats = system.stats()
        recommender = system.recommendation_engine
        assert (
            recommender.expander.entity_ranker.pruning_info()
            == stats.child("recommendation").pruning_view("entity-ranker").as_counters()
        )
        assert "pruning" not in stats.as_dict()
        for component, accessors in (
            (system, ("search_cache_info", "recommendation_cache_info")),
            (recommender, ("cache_info", "pruning_info")),
        ):
            for accessor in accessors:
                assert not hasattr(component, accessor)

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

    def test_recommendation_runs_inline(self, system):
        """Neither engine has an executor tier: the record the e2e
        benchmark reads says inline, with no tasks, on both children."""
        children = system.stats().as_dict()["children"]
        executor = children["recommendation"]["executor"]
        assert executor == {"mode": "inline", "tasks_dispatched": 0, "tasks_inlined": 0}
        assert children["search"]["executor"] == executor

    def test_import_loads_no_worker_machinery(self):
        """Everything runs on the calling thread, so importing the package
        pulls in neither process pools nor thread pools."""
        script = (
            "import sys, repro; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        completed = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        assert completed.stdout.strip() == "[]"


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
        reference = ranker.rank_exhaustive(
            seeds, scored_features=ranker.feature_ranker.rank(seeds), candidates=pool
        )
        assert entity_signature(explicit) == entity_signature(reference)

    def test_unknown_seed_runs_the_reference(self, tiny_kg, caplog, monkeypatch):
        """A request pinned at epoch n whose seed only exists at epoch n+1."""
        expander = EntitySetExpander(tiny_kg)
        ranker = expander.entity_ranker
        model = expander.feature_ranker.probability_model
        pinned = model.support()
        tiny_kg.add_type("ex:F5", "ex:Film")
        tiny_kg.add("ex:F5", "ex:starring", "ex:A1")
        monkeypatch.setattr(model, "support", lambda: pinned)
        seeds = ["ex:F5", "ex:F1"]
        with caplog.at_level(logging.INFO, logger="repro"):
            ranked = ranker.rank(seeds)
            expanded = expander.expand(seeds, domain_type="ex:Film")
        assert entity_signature(ranked) == entity_signature(ranker.rank_exhaustive(seeds))
        reference = expander.expand(seeds, domain_type="ex:Film", exhaustive=True)
        assert entity_signature(expanded.entities) == entity_signature(reference.entities)
        assert expanded.features == reference.features
        stages = model.stages
        assert stages.fallbacks["sf_rank"] == stages.fallbacks["entity_rank"] == {"unknown-entity": 2}
        assert stages.fallbacks["candidates"] == stages.fallbacks["filters"] == {"unknown-entity": 1}
        assert not any(stages.arrays.values())
        records = [record for record in caplog.records if "unknown-entity" in record.getMessage()]
        assert len(records) == 1 and records[0].name == "repro"


class TestFallbacksRunTheReference:
    """Each named fallback answers exactly what the reference answers."""

    def test_explicit_entity_pool(self, movie_kg):
        expander = EntitySetExpander(movie_kg)
        ranker = expander.entity_ranker
        seeds = ["dbr:Forrest_Gump", "dbr:Apollo_13_(film)"]
        scored_features = ranker.feature_ranker.rank(seeds)
        pool = ranker.candidates(seeds, scored_features)[::-1]
        explicit = ranker.rank(seeds, scored_features=scored_features, candidates=pool)
        reference = ranker.rank_exhaustive(
            seeds, scored_features=scored_features, candidates=pool
        )
        assert explicit and entity_signature(explicit) == entity_signature(reference)
        stages = expander.feature_ranker.probability_model.stages
        assert stages.fallbacks["entity_rank"] == {"explicit-pool": 1}

    @pytest.mark.parametrize("top_k", [1, 3, 10, None])
    def test_explicit_feature_pool(self, movie_kg, top_k):
        expander = EntitySetExpander(movie_kg)
        ranker = expander.feature_ranker
        seeds = ["dbr:Forrest_Gump", "dbr:Apollo_13_(film)"]
        pool = ranker.candidate_features(seeds)[::-1]
        explicit = ranker.rank(seeds, top_k=top_k, candidates=pool)
        reference = ranker.rank_exhaustive(seeds, top_k=top_k, candidates=pool)
        assert explicit and explicit == reference
        assert ranker.probability_model.stages.fallbacks["sf_rank"] == {"explicit-pool": 1}

    def test_unknown_seed_expansion(self, tiny_kg, monkeypatch):
        expander = EntitySetExpander(tiny_kg)
        model = expander.feature_ranker.probability_model
        pinned = model.support()
        tiny_kg.add_type("ex:F5", "ex:Film")
        tiny_kg.add("ex:F5", "ex:starring", "ex:A1")
        monkeypatch.setattr(model, "support", lambda: pinned)
        seeds = ["ex:F5", "ex:F2"]
        expanded = expander.expand(seeds, restrict_to_seed_type=True)
        reference = expander.expand(seeds, restrict_to_seed_type=True, exhaustive=True)
        assert expanded.entities and entity_signature(expanded.entities) == entity_signature(
            reference.entities
        )
        assert expanded.features == reference.features
        assert model.stages.fallbacks["entity_rank"] == {"unknown-entity": 1}


def entity_signature(scored) -> list[tuple]:
    return [(item.entity_id, item.score, dict(item.contributions)) for item in scored]

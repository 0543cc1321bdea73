"""Behaviour of the SearchEngine LRU query-result cache.

Repeat queries must be served from the cache, any index mutation must
invalidate it, and the cache must stay bounded by the configured size.
"""

from __future__ import annotations

from repro.config import SearchConfig
from repro.search import SearchEngine


def _cache_info(engine: SearchEngine) -> dict[str, int]:
    """The result cache's counters, read off the engine's stats record."""
    return engine.stats().cache("results").as_info()


def _fresh_engine(graph, **config_changes):
    config = SearchConfig(**config_changes) if config_changes else SearchConfig()
    return SearchEngine.from_graph(graph, config=config)


class TestResultCache:
    def test_repeat_query_hits_cache(self, movie_kg):
        engine = _fresh_engine(movie_kg)
        first = engine.search("forrest gump")
        info = _cache_info(engine)
        assert info["hits"] == 0 and info["misses"] == 1 and info["size"] == 1
        second = engine.search("forrest gump")
        info = _cache_info(engine)
        assert info["hits"] == 1 and info["misses"] == 1
        assert first == second

    def test_cached_result_is_copied(self, movie_kg):
        engine = _fresh_engine(movie_kg)
        first = engine.search("forrest gump")
        first.clear()  # mutating the returned list must not corrupt the cache
        second = engine.search("forrest gump")
        assert second and _cache_info(engine)["hits"] == 1

    def test_distinct_top_k_cached_separately(self, movie_kg):
        engine = _fresh_engine(movie_kg)
        engine.search("forrest gump", top_k=5)
        engine.search("forrest gump", top_k=10)
        info = _cache_info(engine)
        assert info["misses"] == 2 and info["size"] == 2

    def test_add_entity_invalidates(self, tiny_kg):
        engine = _fresh_engine(tiny_kg)
        before = engine.search("film")
        assert _cache_info(engine)["size"] == 1
        tiny_kg.add_label("ex:F9", "Brand New Film")
        tiny_kg.add_type("ex:F9", "ex:Film")
        engine.add_entity("ex:F9")
        assert _cache_info(engine)["size"] == 0
        after = engine.search("film")
        assert "ex:F9" in {hit.entity_id for hit in after}
        assert _cache_info(engine)["hits"] == 0  # post-mutation search was a miss
        assert before != after

    def test_rebuild_invalidates(self, tiny_kg):
        engine = _fresh_engine(tiny_kg)
        engine.search("film")
        engine.build()
        assert _cache_info(engine)["size"] == 0

    def test_lru_eviction_bounded_by_config(self, tiny_kg):
        engine = _fresh_engine(tiny_kg, result_cache_size=2)
        engine.search("film")
        engine.search("drama")
        engine.search("actor")  # evicts "film", the least recently used
        info = _cache_info(engine)
        assert info["size"] == 2
        engine.search("drama")  # still cached
        assert _cache_info(engine)["hits"] == 1
        engine.search("film")  # was evicted: a miss again
        assert _cache_info(engine)["misses"] == 4

    def test_cache_disabled_with_zero_size(self, tiny_kg):
        engine = _fresh_engine(tiny_kg, result_cache_size=0)
        engine.search("film")
        engine.search("film")
        info = _cache_info(engine)
        assert info["hits"] == 0 and info["misses"] == 0 and info["size"] == 0

    def test_pivote_submit_keywords_benefits(self, movie_system):
        """The facade's repeated keyword search is served from the cache."""
        session = movie_system.start_session()
        movie_system.submit_keywords(session, "forrest gump")
        baseline = movie_system.stats().child("search").cache("results").hits
        movie_system.submit_keywords(session, "forrest gump")
        assert movie_system.stats().child("search").cache("results").hits > baseline

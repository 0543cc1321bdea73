"""Concurrent serving: snapshot-isolated queries while the graph mutates.

The PR 5 contract: reader threads hammer search and recommendation while
a mutator thread grows the knowledge graph (and re-indexes through the
engines' copy-on-write mutation paths).  No reader may ever observe a
torn structure (``RuntimeError: dictionary changed size``, ``KeyError``
on a half-applied swap, …), every in-flight query finishes on the epoch
snapshot it pinned, and once mutations quiesce, fresh queries must agree
exactly with a system built from scratch on the final graph.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.explore import RecommendationEngine
from repro.features import SemanticFeatureIndex
from repro.search import SearchEngine, parse_query


def _run_threads(workers, duration: float = 1.0):
    """Run workers until the deadline; re-raise the first worker error."""
    stop = threading.Event()
    errors: list[BaseException] = []

    def guard(worker):
        def run():
            try:
                while not stop.is_set():
                    worker()
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)
                stop.set()

        return run

    threads = [threading.Thread(target=guard(worker)) for worker in workers]
    for thread in threads:
        thread.start()
    stop.wait(duration)
    stop.set()
    for thread in threads:
        thread.join(timeout=10.0)
    if errors:
        raise errors[0]


class TestConcurrentSearch:
    def test_readers_survive_engine_mutations(self, tiny_kg):
        graph = tiny_kg
        engine = SearchEngine.from_graph(graph)
        counter = [0]
        lock = threading.Lock()

        def mutate():
            with lock:
                counter[0] += 1
                number = counter[0]
            entity = f"ex:NEW{number}"
            graph.add_label(entity, f"Fresh Film {number}")
            graph.add_type(entity, "ex:Film")
            graph.add(entity, "ex:starring", "ex:A1")
            engine.add_entity(entity)

        def read():
            hits = engine.search("film actor")
            # Every hit must resolve against the reader's pinned snapshot:
            # scores are finite floats produced by one consistent index.
            for hit in hits:
                assert hit.score == hit.score

        def read_batch():
            for hits in engine.search_many(["film", "drama actor", "film"]):
                assert isinstance(hits, list)

        _run_threads([mutate, read, read, read_batch])

        # Post-epoch visibility: the incremental path indexed the new
        # entities (no stale cache hit hides them) …
        incremental = [entity_id for entity_id, _ in (
            (h.entity_id, h.score) for h in engine.search("fresh film")
        )]
        assert any("NEW" in entity_id for entity_id in incremental)
        # … and after a full rebuild (which re-derives the *related*
        # entities' documents too — add_entity's documented scope is one
        # entity) the engine agrees exactly with one built from scratch.
        engine.build()
        fresh = SearchEngine.from_graph(graph)
        rebuilt = [(h.entity_id, h.score) for h in engine.search("fresh film")]
        scratch = [(h.entity_id, h.score) for h in fresh.search("fresh film")]
        assert rebuilt == scratch

    def test_inflight_snapshot_pinning(self, tiny_kg):
        """A scorer captured before a mutation keeps its epoch's results."""
        graph = tiny_kg
        engine = SearchEngine.from_graph(graph)
        pinned = engine.mlm_scorer  # the snapshot an in-flight query holds
        before = [(r.doc_id, r.score) for r in pinned.search_exhaustive(parse_query("film"))]
        graph.add_label("ex:NEWFILM", "Another Film")
        graph.add_type("ex:NEWFILM", "ex:Film")
        engine.add_entity("ex:NEWFILM")
        after_pinned = [(r.doc_id, r.score) for r in pinned.search_exhaustive(parse_query("film"))]
        assert after_pinned == before  # the old snapshot never moved
        current = [h.entity_id for h in engine.search("another film")]
        assert "ex:NEWFILM" in current  # the engine serves the new epoch


class TestConcurrentRecommendation:
    def test_readers_survive_graph_mutations(self, tiny_kg):
        graph = tiny_kg
        engine = RecommendationEngine(graph)
        counter = [0]
        lock = threading.Lock()

        def mutate():
            with lock:
                counter[0] += 1
                number = counter[0]
            entity = f"ex:NF{number}"
            graph.add_type(entity, "ex:Film")
            graph.add(entity, "ex:starring", "ex:A1")
            graph.add(entity, "ex:genre", "ex:G1")

        def read():
            recommendation = engine.recommend_for_seeds(["ex:F1"])
            for entity in recommendation.entities:
                assert entity.score == entity.score

        def read_batch():
            for payload in engine.recommend_many([["ex:F1"], ["ex:F1", "ex:F2"]]):
                assert payload.entities is not None

        _run_threads([mutate, read, read, read_batch])

        # Post-epoch correctness against a from-scratch system.
        fresh = RecommendationEngine(graph)
        got = engine.recommend_for_seeds(["ex:F1"])
        expected = fresh.recommend_for_seeds(["ex:F1"])
        assert [(e.entity_id, e.score) for e in got.entities] == [
            (e.entity_id, e.score) for e in expected.entities
        ]

    def test_pinned_request_reads_seed_rows_of_its_own_epoch(self, tiny_kg):
        """A request pinned at epoch n keeps epoch n's seed rows while a write
        publishes n+1 — it never reads them off the newer topology."""
        from repro.expansion import EntitySetExpander
        from repro.kg import graph_topology
        from repro.ranking import SemanticFeatureRanker

        def signature(scored):
            return [(item.feature, item.score, dict(item.seed_probabilities)) for item in scored]

        graph = tiny_kg
        expander = EntitySetExpander(graph, SemanticFeatureIndex.build(graph))
        ranker: SemanticFeatureRanker = expander.feature_ranker
        before = signature(ranker.rank(["ex:F3"]))
        # What an in-flight request holds: the support, and through it the
        # tables, of epoch n; its topology is of epoch n too.
        tables = ranker.probability_model.support().columnar_tables()
        seeds = tables.entity_ordinals(["ex:F3"])
        rows = tables.feature_rows(seeds.tolist(), graph_topology(graph))
        films = expander.restrict_candidates(
            np.arange(tables.num_entities), "ex:Film", tables=tables
        )

        graph.add("ex:F3", "ex:starring", "ex:A3")  # epoch n+1: F3 gains a feature
        newer = graph_topology(graph)
        assert newer.epoch == graph.epoch != tables.epoch
        for old, new in zip(rows, tables.feature_rows(seeds.tolist(), newer)):
            assert old.tolist() == new.tolist()
        assert signature(ranker._rank_arrays(tables, ["ex:F3"], seeds, 30)) == before
        # The type filter cannot use the newer topology's ordinals either:
        # it goes through identifiers, and says so.
        again = expander.restrict_candidates(
            np.arange(tables.num_entities), "ex:Film", tables=tables
        )
        assert again.tolist() == films.tolist()
        assert ranker.probability_model.stages.fallbacks["filters"] == {"epoch-mismatch": 1}
        # A request that starts now is pinned to n+1 and sees the new feature.
        after = ranker.rank(["ex:F3"])
        assert {item.feature.anchor for item in after} - {item[0].anchor for item in before} == {"ex:A3"}
        assert signature(after) == signature(ranker.rank_exhaustive(["ex:F3"]))

    def test_feature_index_snapshot_pinning(self, tiny_kg):
        """A pinned snapshot keeps pre-mutation holder sets forever."""
        graph = tiny_kg
        index = SemanticFeatureIndex.build(graph)
        snapshot = index.snapshot()
        from repro.features import Direction, SemanticFeature

        starring_a1 = SemanticFeature("ex:A1", "ex:starring", Direction.OBJECT_OF)
        before = set(snapshot.holders_of(starring_a1))
        graph.add("ex:F4", "ex:starring", "ex:A1")
        # The live index refreshes; the pinned snapshot does not.
        assert "ex:F4" in index.holders_of(starring_a1)
        assert set(snapshot.holders_of(starring_a1)) == before

    def test_snapshot_pins_type_smoothing(self, tiny_kg):
        """Type tables are pinned: no epoch blend even on first lookup.

        Regression for the review finding: a pinned snapshot's
        ``type_conditional_count`` / ``dominant_type`` must reflect the
        snapshot's own epoch even when the *first* request for a pair
        arrives after a concurrent type mutation.
        """
        from repro.features import Direction, SemanticFeature

        graph = tiny_kg
        index = SemanticFeatureIndex.build(graph)
        snapshot = index.snapshot()
        starring_a1 = SemanticFeature("ex:A1", "ex:starring", Direction.OBJECT_OF)
        graph.add_type("ex:F9", "ex:Film")  # new Film member, no lookups yet
        fresh = index.snapshot()
        assert fresh is not snapshot
        old_count = snapshot.type_conditional_count(starring_a1, "ex:Film")
        new_count = fresh.type_conditional_count(starring_a1, "ex:Film")
        assert old_count == (3, 4)  # F1/F2/F3 star A1, four pre-mutation Films
        assert new_count == (3, 5)  # the new epoch sees the fifth Film
        assert snapshot.dominant_type("ex:F9") == ""  # untyped at this epoch
        assert fresh.dominant_type("ex:F9") == "ex:Film"

    def test_concurrent_refresh_races_produce_one_epoch(self, tiny_kg):
        """Parallel readers racing a stale index agree on the new epoch."""
        graph = tiny_kg
        index = SemanticFeatureIndex.build(graph)
        graph.add("ex:F2", "ex:starring", "ex:A3")
        snapshots = []
        barrier = threading.Barrier(4)

        def refresh():
            barrier.wait()
            snapshots.append(index.snapshot())

        threads = [threading.Thread(target=refresh) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(snapshot) for snapshot in snapshots}) == 1  # built once
        assert snapshots[0].epoch == graph.epoch


class TestConcurrentKnowledgeGraph:
    def test_locked_readers_never_tear(self, tiny_kg):
        graph = tiny_kg
        counter = [0]
        lock = threading.Lock()

        def mutate():
            with lock:
                counter[0] += 1
                number = counter[0]
            graph.add_type(f"ex:T{number}", "ex:Film")
            graph.add(f"ex:T{number}", "ex:starring", "ex:A1")
            graph.add_label(f"ex:T{number}", f"T {number}")

        def read():
            for entity in list(graph.entities())[:20]:
                graph.dominant_type(entity)
                graph.label(entity)
            graph.entities_of_type("ex:Film")
            graph.outgoing("ex:F1")

        _run_threads([mutate, read, read], duration=0.8)
        assert graph.num_entities() > 10

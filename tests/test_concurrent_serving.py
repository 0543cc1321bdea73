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

import sys
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

    def test_readers_build_tables_on_old_snapshots_while_the_writer_derives(self, tiny_kg):
        """Readers build (or derive) the tables of snapshots the writer has
        already moved past, and the topology of whatever epoch is current,
        while the writer derives each new epoch's from the last one's."""
        from columnar_oracle import sorted_tables
        from repro.features.columnar import columnar_tables
        from repro.kg import GraphTopology, graph_topology

        graph = tiny_kg
        index = SemanticFeatureIndex.build(graph)
        pinned = [index.snapshot()]
        counter = [0]

        def mutate():
            counter[0] += 1
            number = counter[0]
            entity = f"ex:{number % 7}NF{number}"  # new ids land all over the ordinal range
            graph.add_type(entity, "ex:Film" if number % 3 else f"ex:Kind{number % 5}")
            graph.add(entity, "ex:starring", f"ex:A{1 + number % 3}")
            graph.add(f"ex:F{1 + number % 4}", f"ex:rel{number % 4}", entity)
            snapshot = index.snapshot()
            columnar_tables(snapshot)
            graph_topology(graph)
            pinned.append(snapshot)

        def read_old_tables():
            snapshot = pinned[counter[0] // 2]  # some epochs behind the writer
            tables = columnar_tables(snapshot)
            assert tables.epoch == snapshot.epoch
            assert tables.holder_offsets[-1] == tables.holder_ordinals.size

        def read_topology():
            topology = graph_topology(graph)
            assert topology.holder_offsets[-1] == topology.holder_ordinals.size
            assert topology.anchor_offsets[-1] == topology.holder_ordinals.size

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often: expose a torn handover
        try:
            _run_threads([mutate, read_old_tables, read_old_tables, read_topology])
        finally:
            sys.setswitchinterval(interval)

        for snapshot in pinned[:: max(1, len(pinned) // 40)] + pinned[-1:]:
            got, want = columnar_tables(snapshot), sorted_tables(snapshot)
            for name in ("feature_codes", "holder_offsets", "holder_ordinals", "dominant_ords",
                         "type_populations", "member_offsets", "member_type_ords"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            assert got.entity_ids == want.entity_ids
        got, want = graph_topology(graph), GraphTopology.from_graph(graph)
        for name in ("feature_codes", "holder_offsets", "holder_ordinals", "anchor_offsets"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_pinned_request_reads_seed_rows_of_its_own_epoch(self, tiny_kg):
        """A request pinned at epoch n keeps epoch n's seed rows while a write
        publishes n+1 — it reads them off its own tables' topology."""
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
        assert tables.topology is graph_topology(graph)
        rows = tables.topology.feature_rows(seeds.tolist())
        films = expander.restrict_candidates(
            np.arange(tables.num_entities), "ex:Film", tables=tables
        )

        graph.add("ex:F3", "ex:starring", "ex:A3")  # epoch n+1: F3 gains a feature
        newer = graph_topology(graph)
        assert newer.epoch == graph.epoch != tables.epoch
        for old, new in zip(rows, tables.topology.feature_rows(seeds.tolist())):
            assert old.tolist() == new.tolist()
        (grown,) = newer.feature_rows(newer.ordinal_of.array(["ex:F3"]).tolist())
        assert grown.size == rows[0].size + 1
        assert signature(ranker._rank_arrays(tables, ["ex:F3"], seeds, 30)) == before
        # The type filter reads the pinned tables too, so it needs no
        # other form at another epoch.
        again = expander.restrict_candidates(
            np.arange(tables.num_entities), "ex:Film", tables=tables
        )
        assert again.tolist() == films.tolist()
        stages = ranker.probability_model.stages
        assert stages.arrays["filters"] == 2 and stages.fallbacks["filters"] == {}
        # A request that starts now is pinned to n+1 and sees the new feature.
        after = ranker.rank(["ex:F3"])
        assert {item.feature.anchor for item in after} - {item[0].anchor for item in before} == {"ex:A3"}
        assert signature(after) == signature(ranker.rank_exhaustive(["ex:F3"]))

    def test_type_filter_keeps_the_pinned_epochs_members(self, tiny_kg):
        """A write that types a candidate after a request pinned its tables
        does not reach that request's type filter."""
        from repro.expansion import EntitySetExpander

        graph = tiny_kg
        expander = EntitySetExpander(graph, SemanticFeatureIndex.build(graph))
        tables = expander.feature_ranker.probability_model.support().columnar_tables()
        films = graph.entities_of_type("ex:Film")
        newcomer = next(entity for entity in sorted(graph.entities()) if entity not in films)
        candidates = np.arange(tables.num_entities)[::-1]

        graph.add_type(newcomer, "ex:Film")  # epoch n+1
        kept = expander.restrict_candidates(candidates, "ex:Film", tables=tables)
        assert [tables.entity_ids[ordinal] for ordinal in kept.tolist()] == sorted(
            films, reverse=True
        )
        assert newcomer in graph.entities_of_type("ex:Film")

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

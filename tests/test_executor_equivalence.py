"""Executor equivalence: inline, thread and process tiers vs serial.

The PR 7 contract extends the PR 5 invariant to the process tier: for
``executor`` ∈ {inline, thread, process}, every pruning mode, shard
counts 1–3 and all four search scorers, the rankings must be
*byte-identical* to the serial single-shard path — the process
executor only moves survivor selection into worker processes attached to
the shared-memory snapshot; the exact re-scoring epilogue stays in the
parent.  A whole exploration session under the same matrix must repeat
the serial system's hits and recommendations exactly.  A stress suite
mutates the graph (publishing fresh snapshot epochs) while readers drive
the process pool.
"""

from __future__ import annotations

import threading

import pytest

from repro.config import (
    PRUNING_MODES,
    STORAGE_MODES,
    PivotEConfig,
    RankingConfig,
    SearchConfig,
)
from repro.datasets import RandomKGConfig, build_random_kg
from repro.engine import PivotE
from repro.exec import snapshot_registry
from repro.search import BM25FieldScorer, BM25FScorer, SearchEngine, parse_query

EXECUTORS = ("inline", "thread", "process")
SHARD_COUNTS = (1, 2, 3)
WORKERS = 2


def _signature(results) -> list[tuple[str, float]]:
    return [(result.doc_id, result.score) for result in results]


def _hit_signature(hits) -> list[tuple[str, float]]:
    return [(hit.entity_id, hit.score) for hit in hits]


def _queries(graph, count: int = 5) -> list[str]:
    entities = sorted(graph.entities())
    step = max(1, len(entities) // count)
    labels = [graph.label(entities[index]) for index in range(0, len(entities), step)]
    queries = []
    for position, label in enumerate(labels[:count]):
        if position % 2 == 0:
            queries.append(label)
        else:
            queries.append(f"{label} {labels[(position + 2) % len(labels)]}")
    return queries


@pytest.fixture(scope="module")
def random_graph():
    return build_random_kg(RandomKGConfig(num_entities=160, seed=17))


@pytest.fixture(scope="module")
def serial_mlm(random_graph):
    """Per-pruning-mode baselines from the plain serial engine."""
    baselines = {}
    for pruning in PRUNING_MODES:
        engine = SearchEngine.from_graph(random_graph, SearchConfig(pruning=pruning))
        baselines[pruning] = {
            query: _hit_signature(engine.search(query))
            for query in _queries(random_graph)
        }
    return baselines


class TestSearchExecutorEquivalence:
    """All four scorers × executors × pruning modes × shard counts."""

    @pytest.mark.parametrize("pruning", PRUNING_MODES)
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_engine_mlm_byte_identical(
        self, random_graph, serial_mlm, pruning, executor, shards
    ):
        engine = SearchEngine.from_graph(
            random_graph,
            SearchConfig(pruning=pruning, shards=shards, executor=executor, workers=WORKERS),
        )
        for query, expected in serial_mlm[pruning].items():
            assert _hit_signature(engine.search(query)) == expected

    @pytest.mark.parametrize("pruning", PRUNING_MODES)
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_single_field_byte_identical(self, random_graph, pruning, executor):
        serial = SearchEngine.from_graph(
            random_graph, SearchConfig(pruning=pruning)
        ).single_field_scorer()
        scorer = SearchEngine.from_graph(
            random_graph,
            SearchConfig(pruning=pruning, shards=3, executor=executor, workers=WORKERS),
        ).single_field_scorer()
        for query in _queries(random_graph):
            parsed = parse_query(query)
            assert _signature(scorer.search(parsed, top_k=15)) == _signature(
                serial.search(parsed, top_k=15)
            )

    @pytest.mark.parametrize("pruning", PRUNING_MODES)
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_bm25_and_bm25f_byte_identical(self, random_graph, pruning, executor):
        engine = SearchEngine.from_graph(random_graph)
        index = engine.index
        weights = engine.config.field_weights
        bm25_serial = BM25FieldScorer(index, "names", pruning=pruning)
        bm25f_serial = BM25FScorer(index, weights, pruning=pruning)
        bm25 = BM25FieldScorer(
            index, "names", pruning=pruning, shards=3, executor=executor, workers=WORKERS
        )
        bm25f = BM25FScorer(
            index, weights, pruning=pruning, shards=3, executor=executor, workers=WORKERS
        )
        for query in _queries(random_graph):
            parsed = parse_query(query)
            assert _signature(bm25.search(parsed, top_k=15)) == _signature(
                bm25_serial.search(parsed, top_k=15)
            )
            assert _signature(bm25f.search(parsed, top_k=15)) == _signature(
                bm25f_serial.search(parsed, top_k=15)
            )

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_batch_search_byte_identical(self, random_graph, serial_mlm, executor):
        engine = SearchEngine.from_graph(
            random_graph,
            SearchConfig(shards=2, executor=executor, workers=WORKERS),
        )
        queries = _queries(random_graph)
        expected = [serial_mlm["maxscore"][query] for query in queries]
        assert [
            _hit_signature(hits) for hits in engine.search_many(queries)
        ] == expected

    @pytest.mark.parametrize("pruning", PRUNING_MODES)
    @pytest.mark.parametrize("storage", STORAGE_MODES)
    def test_process_tier_under_every_storage_mode(
        self, random_graph, serial_mlm, tmp_path, storage, pruning
    ):
        """Workers attached to a shared-memory segment, to a disk store or
        to nothing published at all answer exactly as the serial engine."""
        engine = SearchEngine.from_graph(
            random_graph,
            SearchConfig(
                pruning=pruning,
                shards=2,
                executor="process",
                workers=WORKERS,
                storage=storage,
                snapshot_dir=str(tmp_path) if storage == "disk" else None,
            ),
        )
        registry = snapshot_registry()
        before = registry.publishes
        with engine:
            for query, expected in serial_mlm[pruning].items():
                assert _hit_signature(engine.search(query)) == expected
            record = engine.stats().storage
            if storage == "shm":
                # The default backend carries no storage record; only the
                # maxscore kernels fan out, so only they publish a segment.
                assert record is None
                assert (registry.publishes > before) == (pruning == "maxscore")
            else:
                assert record.backend == storage


def _session_signature(system: PivotE, query: str) -> list[tuple]:
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


@pytest.fixture(scope="module")
def serial_sessions(random_graph):
    """Per-pruning-mode session baselines from the serial system."""
    query = _queries(random_graph)[0]
    baselines = {}
    for pruning in PRUNING_MODES:
        config = PivotEConfig(
            search=SearchConfig(pruning=pruning), ranking=RankingConfig(pruning=pruning)
        )
        with PivotE(random_graph, config=config) as system:
            baselines[pruning] = _session_signature(system, query)
    return query, baselines


class TestSessionExecutorEquivalence:
    """A whole exploration session with the search engine's execution
    knobs set: the hits stay serial-identical, and the recommendations —
    which have one execution path — are untouched by the search tier."""

    @pytest.mark.parametrize("pruning", PRUNING_MODES)
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_session_byte_identical(
        self, random_graph, serial_sessions, pruning, executor, shards
    ):
        query, baselines = serial_sessions
        config = PivotEConfig(
            search=SearchConfig(
                pruning=pruning, shards=shards, executor=executor, workers=WORKERS
            ),
            ranking=RankingConfig(pruning=pruning),
        )
        with PivotE(random_graph, config=config) as system:
            assert _session_signature(system, query) == baselines[pruning]


class TestProcessExecutorStats:
    def test_process_engine_reports_executor_record(self, random_graph):
        engine = SearchEngine.from_graph(
            random_graph,
            SearchConfig(shards=2, executor="process", workers=WORKERS),
        )
        with engine:
            for query in _queries(random_graph, count=3):
                engine.search(query)
            record = engine.stats().executor
            assert record is not None
            assert record.mode == "process"
            assert record.effective == "process"
            assert record.workers == WORKERS
            assert record.snapshots_published >= 1
            assert record.snapshot_bytes > 0
            info = engine.stats().as_dict()["executor"]
            assert info["mode"] == "process"
            active_before = record.snapshots_active
            assert active_before >= 1
        # close() released this engine's published snapshot (the registry
        # may still hold other engines' segments, hence the delta check).
        assert engine.stats().executor.snapshots_active == active_before - 1


class TestConcurrentProcessServing:
    """Readers drive the process pool while a mutator publishes epochs."""

    def test_readers_survive_epoch_churn(self, tiny_kg):
        graph = tiny_kg
        engine = SearchEngine.from_graph(
            graph, SearchConfig(shards=2, executor="process", workers=WORKERS)
        )
        stop = threading.Event()
        errors: list[BaseException] = []
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
            for hit in engine.search("film actor"):
                assert hit.score == hit.score

        def guard(worker):
            def run():
                try:
                    while not stop.is_set():
                        worker()
                except BaseException as error:  # noqa: BLE001 - reported below
                    errors.append(error)
                    stop.set()

            return run

        threads = [threading.Thread(target=guard(w)) for w in (mutate, read, read)]
        for thread in threads:
            thread.start()
        stop.wait(1.5)
        stop.set()
        for thread in threads:
            thread.join(timeout=20.0)
        try:
            if errors:
                raise errors[0]
            # The incremental epochs indexed the new entities …
            assert any(
                "NEW" in hit.entity_id for hit in engine.search("fresh film")
            )
            # … and after a full rebuild (add_entity's documented scope is
            # one entity) the process-served engine agrees exactly with a
            # from-scratch serial build.
            engine.build()
            fresh = SearchEngine.from_graph(graph)
            assert _hit_signature(engine.search("fresh film")) == _hit_signature(
                fresh.search("fresh film")
            )
        finally:
            engine.close()

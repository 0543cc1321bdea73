"""Disk round-trip equivalence: cold-started systems vs in-RAM builds.

A system cold-started from ``PivotE.save(dir)`` via ``PivotE.load(dir)``
must produce *byte-identical* search and recommendation rankings to the
in-RAM build it was saved from — across the search scorers and the
BM25F baseline.  A corrupted or missing component must degrade to
rebuilding exactly that component from the (sound) adopted graph, with
the same rankings and a counted failure; a corrupt graph segment fails
the whole load.  Also here: the close lifecycle (double close, rebuild
after close).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro.config import PivotEConfig, SearchConfig
from repro.datasets import RandomKGConfig, build_random_kg
from repro.engine import PivotE
from repro.kg import GraphTopology, graph_topology
from repro.search import BM25FScorer, SearchEngine, parse_query
from repro.storage import SnapshotUnavailable



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
def seeds(random_graph):
    largest = max(
        random_graph.types(), key=lambda t: (random_graph.type_count(t), t)
    )
    return sorted(random_graph.entities_of_type(largest))[:2]


@pytest.fixture(scope="module")
def saved_dir(tmp_path_factory, random_graph):
    """One system saved once; every cold-start test loads from here."""
    directory = str(tmp_path_factory.mktemp("pivote-snapshot"))
    system = PivotE(random_graph)
    manifest = system.save(directory)
    assert manifest["keys"] == ["graph-triples", "search-index", "feature-tables"]
    system.close()
    return directory


@pytest.fixture(scope="module")
def serial_baselines(random_graph, seeds):
    """Search + recommendation baselines, built in RAM."""
    queries = _queries(random_graph)
    system = PivotE(random_graph)
    search = {query: _hit_signature(system.search(query)) for query in queries}
    result = system.recommend(seeds)
    recommend = (
        [(e.entity_id, e.score) for e in result.entities],
        [(f.feature.notation(), f.score) for f in result.features],
    )
    system.close()
    return queries, search, recommend


@pytest.fixture(scope="module")
def scorer_baselines(random_graph):
    """Baselines of the single-field scorer and the BM25F baseline."""
    engine = SearchEngine.from_graph(random_graph)
    bm25f = BM25FScorer(engine.index, engine.config.field_weights)
    single = engine.single_field_scorer()
    return {
        query: (
            _signature(bm25f.search_exhaustive(parse_query(query), top_k=15)),
            _signature(single.search(parse_query(query), top_k=15)),
        )
        for query in _queries(random_graph)
    }


def _load_clean(directory, config=None) -> PivotE:
    """Cold-start and assert every component attached (no silent rebuild)."""
    system = PivotE.load(directory, config=config)
    storage = system.stats().storage
    assert storage is not None
    assert storage.failures == 0
    assert storage.attaches == 3
    assert storage.cold_start_ms > 0.0
    return system


class TestColdStartEquivalence:
    """Loaded systems vs in-RAM builds."""

    def test_engine_mlm_byte_identical(self, saved_dir, serial_baselines):
        queries, search_base, _ = serial_baselines
        system = _load_clean(saved_dir)
        try:
            for query in queries:
                assert _hit_signature(system.search(query)) == search_base[query]
        finally:
            system.close()

    def test_baseline_scorers_byte_identical(
        self, saved_dir, serial_baselines, scorer_baselines
    ):
        """The other scorers, driven off the *restored* index."""
        queries, _, _ = serial_baselines
        system = _load_clean(saved_dir)
        try:
            engine = system.search_engine
            bm25f = BM25FScorer(engine.index, engine.config.field_weights)
            single = engine.single_field_scorer()
            for query in queries:
                parsed = parse_query(query)
                expected_bm25f, expected_single = scorer_baselines[query]
                assert _signature(bm25f.search_exhaustive(parsed, top_k=15)) == expected_bm25f
                assert _signature(single.search(parsed, top_k=15)) == expected_single
        finally:
            system.close()

    def test_recommendation_byte_identical(self, saved_dir, serial_baselines, seeds):
        """After a search on the restored engine, the recommender answers
        exactly as the in-RAM build does."""
        queries, _, recommend_base = serial_baselines
        system = _load_clean(saved_dir)
        try:
            system.search(queries[0])
            expected_entities, expected_features = recommend_base
            result = system.recommend(seeds)
            assert [(e.entity_id, e.score) for e in result.entities] == expected_entities
            assert [
                (f.feature.notation(), f.score) for f in result.features
            ] == expected_features
        finally:
            system.close()

    def test_smoothing_is_applied_at_load(self, saved_dir, random_graph, serial_baselines):
        """The snapshot stores counts, not a smoothing: a directory saved
        under Dirichlet loads into a Jelinek–Mercer engine that ranks
        exactly as the in-RAM Jelinek–Mercer build."""
        queries, search_base, _ = serial_baselines
        config = PivotEConfig(search=SearchConfig(smoothing="jelinek-mercer"))
        fresh = PivotE(random_graph, config=config)
        system = _load_clean(saved_dir, config)
        try:
            for query in queries:
                expected = _hit_signature(fresh.search(query))
                assert _hit_signature(system.search(query)) == expected
                assert expected != search_base[query]
        finally:
            system.close()
            fresh.close()

    def test_lazy_documents_and_mutations_after_load(
        self, saved_dir, serial_baselines, random_graph
    ):
        """The restored engine stays a full engine: documents rebuild
        lazily, graph mutations index incrementally, rebuilds work."""
        queries, search_base, _ = serial_baselines
        system = _load_clean(saved_dir)
        try:
            entity = next(iter(system.graph.entities()))
            document = system.search_engine.document(entity)
            assert document.entity_id == entity
            graph = system.graph
            graph.add_label("ex:PR9", "Durable Snapshot Epic")
            graph.add_type("ex:PR9", "ex:Film")
            system.search_engine.add_entity("ex:PR9")
            assert any(
                hit.entity_id == "ex:PR9"
                for hit in system.search("durable snapshot epic")
            )
            system.search_engine.build()
            assert any(
                hit.entity_id == "ex:PR9"
                for hit in system.search("durable snapshot epic")
            )
        finally:
            system.close()


def test_load_reads_the_store_manifest_once(saved_dir, monkeypatch):
    from repro.storage import DiskSnapshotStore

    reads = []
    original = DiskSnapshotStore.read_manifest
    monkeypatch.setattr(
        DiskSnapshotStore, "read_manifest", lambda store: reads.append(store.root) or original(store)
    )
    _load_clean(saved_dir).close()
    assert len(reads) == 1


class TestFreshProcessColdStart:
    def test_subprocess_load_matches_parent_build(
        self, saved_dir, serial_baselines, seeds
    ):
        """A brand-new interpreter loads the snapshot and agrees exactly."""
        queries, search_base, recommend_base = serial_baselines
        script = textwrap.dedent(
            """
            import json, sys
            from repro.engine import PivotE

            directory, queries, seeds = (
                sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])
            )
            system = PivotE.load(directory)
            storage = system.stats().storage
            result = system.recommend(seeds)
            print(json.dumps({
                "failures": storage.failures,
                "attaches": storage.attaches,
                "search": {
                    q: [[h.entity_id, h.score] for h in system.search(q)]
                    for q in queries
                },
                "entities": [[e.entity_id, e.score] for e in result.entities],
                "features": [
                    [f.feature.notation(), f.score] for f in result.features
                ],
            }))
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(repro.__file__))]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        completed = subprocess.run(
            [
                sys.executable,
                "-c",
                script,
                saved_dir,
                json.dumps(queries),
                json.dumps(list(seeds)),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        payload = json.loads(completed.stdout)
        assert payload["failures"] == 0
        assert payload["attaches"] == 3
        for query in queries:
            assert payload["search"][query] == [list(pair) for pair in search_base[query]]
        expected_entities, expected_features = recommend_base
        assert payload["entities"] == [list(pair) for pair in expected_entities]
        assert payload["features"] == [list(pair) for pair in expected_features]


def _corrupt_copy(saved_dir, tmp_path) -> str:
    target = str(tmp_path / "corrupt")
    shutil.copytree(saved_dir, target)
    return target


def _snap_path(directory: str, key: str) -> str:
    key_dir = os.path.join(directory, "store", key)
    (name,) = [n for n in os.listdir(key_dir) if n.endswith(".snap")]
    return os.path.join(key_dir, name)


class TestCorruptionFallback:
    """Every corruption mode degrades to a fresh in-RAM build of the
    affected component — identical rankings, counted failure."""

    def _assert_degraded_but_identical(self, directory, serial_baselines, seeds):
        queries, search_base, recommend_base = serial_baselines
        system = PivotE.load(directory)
        try:
            storage = system.stats().storage
            assert storage is not None
            assert storage.failures >= 1
            for query in queries:
                assert _hit_signature(system.search(query)) == search_base[query]
            expected_entities, _ = recommend_base
            result = system.recommend(seeds)
            assert [
                (e.entity_id, e.score) for e in result.entities
            ] == expected_entities
        finally:
            system.close()

    def test_truncated_index_file_falls_back(
        self, saved_dir, tmp_path, serial_baselines, seeds
    ):
        directory = _corrupt_copy(saved_dir, tmp_path)
        path = _snap_path(directory, "search-index")
        with open(path, "rb") as handle:
            head = handle.read(100)
        with open(path, "wb") as handle:
            handle.write(head)
        self._assert_degraded_but_identical(directory, serial_baselines, seeds)

    def test_flipped_byte_fails_crc_and_falls_back(
        self, saved_dir, tmp_path, serial_baselines, seeds
    ):
        directory = _corrupt_copy(saved_dir, tmp_path)
        path = _snap_path(directory, "feature-tables")
        with open(path, "r+b") as handle:
            payload = bytearray(handle.read())
            arrays_base = int.from_bytes(payload[24:32], "little")
            payload[arrays_base] ^= 0xFF
            handle.seek(0)
            handle.write(payload)
        self._assert_degraded_but_identical(directory, serial_baselines, seeds)

    def test_stale_format_version_falls_back(
        self, saved_dir, tmp_path, serial_baselines, seeds
    ):
        directory = _corrupt_copy(saved_dir, tmp_path)
        for key in ("search-index", "feature-tables"):
            path = _snap_path(directory, key)
            with open(path, "r+b") as handle:
                handle.seek(8)
                handle.write(int(99).to_bytes(8, "little"))
        self._assert_degraded_but_identical(directory, serial_baselines, seeds)

    def test_tampered_manifest_epoch_falls_back(
        self, saved_dir, tmp_path, serial_baselines, seeds
    ):
        directory = _corrupt_copy(saved_dir, tmp_path)
        manifest_path = os.path.join(directory, "store", "MANIFEST.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["search-index"]["epoch"] = 999999
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        self._assert_degraded_but_identical(directory, serial_baselines, seeds)

    def test_corrupt_feature_tables_degrade_to_counted_rebuild(
        self, saved_dir, tmp_path, serial_baselines, seeds
    ):
        """A bad feature-tables segment — the holder CSR that is also the
        graph's topology — falls back to a rebuild: the failure is
        counted, the load sorts the CSR out of the adopted log once and
        the first read finds it memoised, rankings stay identical."""
        directory = _corrupt_copy(saved_dir, tmp_path)
        path = _snap_path(directory, "feature-tables")
        with open(path, "rb") as handle:
            head = handle.read(100)
        with open(path, "wb") as handle:
            handle.write(head)
        system = PivotE.load(directory)
        try:
            storage = system.stats().storage
            assert storage is not None
            assert storage.failures >= 1
            assert graph_topology(system.graph).epoch == system.graph.epoch
            traversal = system.stats().traversal
            assert traversal is not None
            assert traversal.rebuilds == 1
        finally:
            system.close()
        self._assert_degraded_but_identical(directory, serial_baselines, seeds)

    def test_corrupt_graph_fails_the_whole_load(self, saved_dir, tmp_path):
        directory = _corrupt_copy(saved_dir, tmp_path)
        with open(_snap_path(directory, "graph-triples"), "ab") as handle:
            handle.write(b"{this is not a segment\n")
        with pytest.raises(SnapshotUnavailable, match="graph-triples"):
            PivotE.load(directory)

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(SnapshotUnavailable, match="no loadable system"):
            PivotE.load(str(tmp_path / "nowhere"))


def _graph_segment_offsets(path: str) -> dict[str, int]:
    """Byte positions inside a graph-triples segment, by what lives there."""
    with open(path, "rb") as handle:
        payload = handle.read()
    manifest_length = int.from_bytes(payload[16:24], "little")
    arrays_base = int.from_bytes(payload[24:32], "little")
    manifest = json.loads(payload[32 : 32 + manifest_length])
    return {
        "magic": 3,
        "version": 8,
        "manifest-length": 16,
        "manifest": 32 + manifest_length // 2,
        "string-table": arrays_base + manifest["tables"]["strings"]["text"][0] + 5,
        "table-stamps": arrays_base + manifest["tables"]["entities"]["stamps"][0] + 8,
        "edge-column": arrays_base + manifest["rows"]["edges"][0] + 64,
        "last-byte": len(payload) - 1,
    }


class TestGraphSegmentFaults:
    """The graph has no fallback: any damage to its segment fails the load,
    loudly, naming the segment — there is no way to load a wrong graph."""

    @pytest.mark.parametrize(
        "where",
        ["magic", "version", "manifest-length", "manifest", "string-table",
         "table-stamps", "edge-column", "last-byte"],
    )
    def test_one_flipped_byte_anywhere_is_refused(self, saved_dir, tmp_path, where):
        directory = _corrupt_copy(saved_dir, tmp_path)
        path = _snap_path(directory, "graph-triples")
        position = _graph_segment_offsets(path)[where]
        with open(path, "r+b") as handle:
            handle.seek(position)
            byte = handle.read(1)
            handle.seek(position)
            handle.write(bytes([byte[0] ^ 0x01]))
        with pytest.raises(SnapshotUnavailable, match="graph-triples"):
            PivotE.load(directory)

    @pytest.mark.parametrize(
        "kept",
        [lambda size: 0, lambda size: 20, lambda size: 100, lambda size: size // 2, lambda size: size - 1],
        ids=["empty", "mid-header", "mid-manifest", "half", "all-but-one-byte"],
    )
    def test_truncation_is_refused(self, saved_dir, tmp_path, kept):
        directory = _corrupt_copy(saved_dir, tmp_path)
        path = _snap_path(directory, "graph-triples")
        with open(path, "r+b") as handle:
            handle.truncate(kept(os.path.getsize(path)))
        with pytest.raises(SnapshotUnavailable, match="graph-triples"):
            PivotE.load(directory)

    @pytest.mark.parametrize("field", ["epoch", "triples"])
    def test_entry_disagreeing_with_the_rows_is_refused(self, saved_dir, tmp_path, field):
        directory = _corrupt_copy(saved_dir, tmp_path)
        manifest_path = os.path.join(directory, "store", "MANIFEST.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["graph-triples"][field] += 1
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(SnapshotUnavailable, match="graph-triples"):
            PivotE.load(directory)

    def test_checksummed_segment_with_inconsistent_rows_is_refused(self, random_graph, tmp_path):
        """A writer's bug, not bit rot: the CRCs hold, the rows do not add up."""
        from dataclasses import replace
        from types import SimpleNamespace

        from repro.storage import encode_graph_triples, load_graph, system_store

        columns = random_graph.columns.export()
        edges = columns.rows["edges"]
        overrun = edges.copy()
        overrun[0, 0] = len(columns.tables["entities"][0])
        broken = {
            "a row is missing": replace(columns, rows={**columns.rows, "edges": edges[:, :-1].copy()}),
            "a code overruns its table": replace(columns, rows={**columns.rows, "edges": overrun}),
            "a stamp repeats": replace(
                columns, rows={**columns.rows, "typed": columns.rows["typed"][:, [0, 0]].copy()}
            ),
            "the count is off": replace(columns, triples=columns.triples + 1),
        }
        for reason, damaged in broken.items():
            with pytest.raises(ValueError):
                damaged.check()
            store = system_store(str(tmp_path / reason.replace(" ", "-")))
            manifest, builder = encode_graph_triples(
                SimpleNamespace(uid=0, epoch=random_graph.epoch), damaged
            )
            store.publish(
                "graph-triples", manifest, builder,
                extra={"format": 2, "name": "kg", "epoch": random_graph.epoch, "triples": damaged.triples},
            )
            with pytest.raises(SnapshotUnavailable, match="graph-triples"):
                load_graph(store)

    def test_format_1_directory_is_refused_by_number(self, saved_dir, tmp_path):
        """What PR 9 - PR 12 wrote: pivote.json + graph.jsonl + three segments."""
        directory = _corrupt_copy(saved_dir, tmp_path)
        manifest_path = os.path.join(directory, "store", "MANIFEST.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        del manifest["graph-triples"]
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        shutil.rmtree(os.path.join(directory, "store", "graph-triples"))
        with open(os.path.join(directory, "pivote.json"), "w") as handle:
            json.dump({"format": 1, "graph": {"file": "graph.jsonl"}}, handle)
        with open(os.path.join(directory, "graph.jsonl"), "w") as handle:
            handle.write('{"s":"ex:a","p":"ex:p","o":"ex:b"}\n')
        with pytest.raises(SnapshotUnavailable, match="format 1"):
            PivotE.load(directory)

    def test_unknown_format_number_is_refused_by_number(self, saved_dir, tmp_path):
        directory = _corrupt_copy(saved_dir, tmp_path)
        manifest_path = os.path.join(directory, "store", "MANIFEST.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["graph-triples"]["format"] = 3
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(SnapshotUnavailable, match="format 3"):
            PivotE.load(directory)

    def test_no_graph_file_is_read_or_written(self, saved_dir):
        assert sorted(os.listdir(saved_dir)) == ["store"]
        assert sorted(os.listdir(os.path.join(saved_dir, "store"))) == [
            "MANIFEST.json", "feature-tables", "graph-triples", "search-index",
        ]


class TestTopologyAttach:
    def test_load_installs_persisted_topology(self, saved_dir):
        """A clean load seeds the per-epoch topology memo from the
        snapshot: the first read is a cache hit, never a rebuild."""
        system = _load_clean(saved_dir)
        try:
            assert graph_topology(system.graph) is system.feature_index.snapshot().tables.topology
            traversal = system.stats().traversal
            assert traversal is not None
            assert traversal.rebuilds == 0
            assert traversal.cache_hits >= 1
        finally:
            system.close()

    def test_attached_topology_equals_a_fresh_sort(self, saved_dir):
        """The restored (mmap-copied) holder CSR equals the one sorted
        out of the adopted graph's log, array for array."""
        system = _load_clean(saved_dir)
        try:
            graph = system.graph
            attached = graph_topology(graph)
            fresh = GraphTopology.from_log(graph.columns, len(graph), graph.epoch)
            assert attached.entity_ids == fresh.entity_ids
            for name in ("feature_codes", "holder_offsets", "holder_ordinals", "anchor_offsets"):
                assert np.array_equal(getattr(attached, name), getattr(fresh, name)), name
        finally:
            system.close()


class TestCloseLifecycle:
    """Close ordering: ``close`` is idempotent and leaves the engines usable."""

    def test_double_close_and_rebuild_after_close(self, random_graph):
        system = PivotE(random_graph)
        query = _queries(random_graph, count=1)[0]
        expected = _hit_signature(system.search(query))
        system.close()
        system.close()  # second close must be a no-op, not an error
        assert _hit_signature(system.search(query)) == expected
        system.search_engine.build()  # rebuild after close
        assert _hit_signature(system.search(query)) == expected
        system.close()

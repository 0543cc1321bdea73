"""The entity search engine (Fig 2, §2.2).

Wires together document construction, analysis, the fielded inverted index
and the mixture-of-language-models scorer into a single object the PivotE
facade (and the examples) can use:

>>> engine = SearchEngine.from_graph(kg)
>>> hits = engine.search("forrest gump")

Concurrency contract (snapshot-isolated serving): queries capture one
scorer (and with it one index instance) when they start and score against
it to completion.  Mutations never touch a published index — ``build()``
constructs a fresh index and :meth:`add_entity` derives a copy-on-write
successor (:meth:`~repro.index.fielded_index.FieldedIndex.with_added_document`)
— then swap it in atomically under the engine's mutation lock.  In-flight
queries therefore finish on the epoch they started on while mutations
proceed, and the LRU result cache keys on the index instance
(``uid, epoch``), so a result computed against an old snapshot can never
be served for a new one.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from dataclasses import dataclass

from ..config import SearchConfig
from ..exceptions import EntityNotFoundError
from ..index import FieldedIndex
from ..kg import KnowledgeGraph, traversal_stats
from ..stats import CacheStats, EngineStats, PruningStatsView
from ..utils import LRUCache, dedupe_batch
from .bm25 import BM25FScorer, BM25FieldScorer
from .fields import (
    FieldedEntityDocument,
    analyze_document,
    build_all_documents,
    build_entity_document,
)
from .mlm import MixtureLanguageModelScorer, ScoredDocument, SingleFieldScorer
from .query import KeywordQuery, parse_query


@dataclass(frozen=True)
class SearchHit:
    """One search result: the entity, its score and its display label."""

    entity_id: str
    score: float
    label: str

    def as_dict(self) -> dict[str, object]:
        return {"entity": self.entity_id, "score": self.score, "label": self.label}


class SearchEngine:
    """Keyword entity search over a knowledge graph."""

    def __init__(
        self,
        graph: KnowledgeGraph,
        config: SearchConfig | None = None,
    ) -> None:
        self._graph = graph
        self._config = config or SearchConfig()
        self._documents: dict[str, FieldedEntityDocument] = {}
        self._index = FieldedIndex(self._config.fields)
        self._scorer: MixtureLanguageModelScorer | None = None
        #: Serialises mutations (build / add_entity): each one publishes a
        #: fresh index instance, so concurrent queries keep scoring their
        #: captured snapshot.
        self._mutation_lock = threading.Lock()
        #: LRU query-result cache: keyed by the parsed query, requested k
        #: and the index *instance* (uid + epoch, so neither mutations nor
        #: rebuilds can ever serve stale hits); cleared explicitly on
        #: every engine-level mutation.
        self._result_cache: LRUCache[tuple[object, ...], tuple[SearchHit, ...]] = LRUCache(
            self._config.result_cache_size
        )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_graph(cls, graph: KnowledgeGraph, config: SearchConfig | None = None) -> "SearchEngine":
        """Build and index the search engine for a whole graph."""
        engine = cls(graph, config=config)
        engine.build()
        return engine

    @classmethod
    def restore(
        cls,
        graph: KnowledgeGraph,
        index: FieldedIndex,
        config: SearchConfig | None = None,
    ) -> "SearchEngine":
        """Serve a pre-built index (adopted from a durable snapshot).

        The cold-start path: the index arrives already populated — it
        answers from the stored posting CSRs (see
        :func:`repro.storage.kgstore.restore_fielded_index`) — so no
        documents are built and nothing is tokenised.  The documents
        mapping stays empty — :meth:`document` rebuilds entries lazily
        on first access, exactly as post-``build()`` misses do.
        """
        engine = cls(graph, config=config)
        engine._index = index
        engine._scorer = MixtureLanguageModelScorer(index, engine._config)
        return engine

    def build(self) -> "SearchEngine":
        """(Re)build the index from the graph's current contents.

        The replacement index is fully constructed before the atomic swap,
        so concurrent queries keep their pre-rebuild snapshot throughout.
        """
        with self._mutation_lock:
            documents = build_all_documents(self._graph)
            index = FieldedIndex(self._config.fields)
            for entity_id, document in documents.items():
                index.add_document(entity_id, analyze_document(document, self._config.fields))
            self._documents = documents
            self._scorer = MixtureLanguageModelScorer(index, self._config)
            self._index = index
            self._result_cache.clear()
        return self

    def add_entity(self, entity_id: str) -> None:
        """Index (or re-index) one entity after the graph changed.

        Copy-on-write: the published index is never mutated — a successor
        carrying the document is derived and swapped in, so queries
        holding the old snapshot finish untouched.
        """
        with self._mutation_lock:
            document = build_entity_document(self._graph, entity_id)
            self._documents[entity_id] = document
            index = self._index.with_added_document(
                entity_id, analyze_document(document, self._config.fields)
            )
            self._scorer = MixtureLanguageModelScorer(index, self._config)
            self._index = index
            self._result_cache.clear()

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def index(self) -> FieldedIndex:
        """The underlying fielded inverted index (the current snapshot)."""
        return self._index

    @property
    def config(self) -> SearchConfig:
        return self._config

    def document(self, entity_id: str) -> FieldedEntityDocument:
        """The five-field document of an entity (Table 1)."""
        if entity_id not in self._documents:
            self._documents[entity_id] = build_entity_document(self._graph, entity_id)
        return self._documents[entity_id]

    def num_indexed(self) -> int:
        """Number of indexed entities."""
        return self._index.num_documents

    def _require_scorer(self) -> MixtureLanguageModelScorer:
        scorer = self._scorer
        if scorer is None:
            self.build()
            scorer = self._scorer
        assert scorer is not None
        return scorer

    @property
    def mlm_scorer(self) -> MixtureLanguageModelScorer:
        """The primary mixture-of-language-models scorer (built on demand)."""
        return self._require_scorer()

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def search(self, query: str | KeywordQuery, top_k: int | None = None) -> list[SearchHit]:
        """Retrieve the top-k entities for a keyword query.

        Repeated queries are served from an LRU result cache; the cache
        key includes the captured index instance (uid and epoch) and the
        cache is cleared by :meth:`build` and :meth:`add_entity`, so
        mutations always invalidate it.  The whole query runs against the
        scorer captured here — a concurrent mutation swaps in a new
        snapshot without disturbing it.  ``top_k=None`` means the
        configured ``top_k``; anything below 1 raises ``ValueError``.
        """
        top_k = self._requested_k(top_k)
        parsed = query if isinstance(query, KeywordQuery) else parse_query(query)
        scorer = self._require_scorer()  # may (re)build; captures one snapshot
        return self._search_with(scorer, parsed, top_k)

    def search_many(
        self, queries: Sequence[str | KeywordQuery], top_k: int | None = None
    ) -> list[list[SearchHit]]:
        """Answer a batch of keyword queries (one result list per query).

        The whole batch runs against a single captured snapshot, so the
        per-epoch memoisation (statistics, scorer bounds, kernel columns)
        warms on the first miss and serves the rest, and *identical*
        queries inside the batch are computed once and fanned back out.
        Results are byte-identical to issuing the queries one at a time;
        ``top_k`` follows :meth:`search`.
        """
        top_k = self._requested_k(top_k)
        parsed = [
            query if isinstance(query, KeywordQuery) else parse_query(query)
            for query in queries
        ]
        scorer = self._require_scorer()

        def key_of(query: KeywordQuery) -> tuple[object, ...]:
            restrictions = tuple(
                (field, terms) for field, terms in query.field_restrictions.items()
            )
            return (query.terms, restrictions, top_k)

        results = dedupe_batch(
            parsed, key_of, lambda query: self._search_with(scorer, query, top_k)
        )
        # Fresh list per position: duplicate queries share hit tuples, not
        # the caller-mutable list object.
        return [list(hits) for hits in results]

    def _requested_k(self, top_k: int | None) -> int:
        """The result count a request asks for (``None``: the configured one)."""
        if top_k is None:
            return self._config.top_k
        if top_k < 1:
            raise ValueError(f"top_k must be at least 1, got {top_k}")
        return top_k

    def _search_with(
        self,
        scorer: MixtureLanguageModelScorer,
        parsed: KeywordQuery,
        top_k: int,
    ) -> list[SearchHit]:
        """One query against one captured scorer snapshot, LRU-backed."""
        key = self._cache_key(parsed, top_k, scorer.index)
        if key is not None:
            cached = self._result_cache.get(key)
            if cached is not None:
                return list(cached)
        hits = [self._to_hit(result) for result in scorer.search(parsed, top_k=top_k)]
        if key is not None:
            self._result_cache.put(key, tuple(hits))
        return hits

    def _cache_key(
        self, parsed: KeywordQuery, top_k: int, index: FieldedIndex
    ) -> tuple[object, ...] | None:
        """The result-cache key for a parsed query, or ``None`` when disabled.

        Keys carry the index snapshot's ``(uid, epoch)`` pair: the uid
        separates rebuilt / copy-on-write instances whose epoch counters
        coincide, so a result computed against an older snapshot can never
        be served for a newer one.
        """
        if self._config.result_cache_size <= 0:
            return None
        restrictions = tuple(
            (field, terms) for field, terms in parsed.field_restrictions.items()
        )
        return (
            parsed.terms,
            restrictions,
            top_k,
            index.uid,
            index.epoch,
        )

    def stats(self) -> EngineStats:
        """The engine's typed introspection record.

        One :class:`~repro.stats.EngineStats` carrying the pruning mode,
        the current index epoch, the result cache's counters
        (``"results"``) and the primary scorer's pruning counters
        (``"mlm"``).  A query runs on the calling thread, so ``executor``
        reports ``inline`` with no tasks.  Builds the index on demand,
        like any query would.
        """
        scorer = self._require_scorer()
        return EngineStats(
            component="search",
            epoch=self._index.epoch,
            pruning=self._config.pruning,
            caches=(CacheStats.from_info("results", self._result_cache.cache_info()),),
            pruning_counters=(
                PruningStatsView.from_counters("mlm", scorer.pruning_info()),
            ),
            traversal=traversal_stats(self._graph),
        )

    def close(self) -> None:
        """Drop the cached results.

        Safe to call repeatedly; the engine remains usable.
        """
        self._result_cache.clear()

    def __enter__(self) -> "SearchEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def cache_info(self) -> dict[str, int]:
        """Hit/miss counters and occupancy of the LRU result cache.

        Deprecated shim over :meth:`stats` (the ``"results"`` cache).
        """
        return self.stats().cache("results").as_info()

    def pruning_info(self) -> dict[str, int]:
        """Cumulative pruning counters of the primary (MLM) scorer.

        Deprecated shim over :meth:`stats` (the ``"mlm"`` counters).
        """
        return self.stats().pruning_view("mlm").as_counters()

    def explain(self, query: str | KeywordQuery, entity_id: str) -> ScoredDocument:
        """Score a single entity and return the per-term breakdown.

        Raises :class:`EntityNotFoundError` when ``entity_id`` is not an
        indexed document: smoothing would otherwise score it anyway.
        """
        parsed = query if isinstance(query, KeywordQuery) else parse_query(query)
        scorer = self._require_scorer()
        if entity_id not in scorer.index:
            raise EntityNotFoundError(entity_id)
        return scorer.score_document(parsed, entity_id)

    def _to_hit(self, result: ScoredDocument) -> SearchHit:
        return SearchHit(
            entity_id=result.doc_id,
            score=result.score,
            label=self._graph.label(result.doc_id),
        )

    # ------------------------------------------------------------------ #
    # Baseline scorers (used by the evaluation harness)
    # ------------------------------------------------------------------ #
    def bm25f_scorer(self) -> BM25FScorer:
        """A BM25F scorer over the same index and field weights."""
        return BM25FScorer(
            self._index,
            self._config.field_weights,
            pruning=self._config.pruning,
        )

    def bm25_names_scorer(self) -> BM25FieldScorer:
        """A plain BM25 scorer restricted to the names field."""
        return BM25FieldScorer(
            self._index,
            "names",
            pruning=self._config.pruning,
        )

    def single_field_scorer(self, field: str = "names") -> SingleFieldScorer:
        """A query-likelihood scorer over a single field."""
        return SingleFieldScorer(self._index, field, self._config)

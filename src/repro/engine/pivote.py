"""The PivotE system facade (Fig 2).

:class:`PivotE` wires the three components of the architecture — the user
interface model (sessions), the search engine and the recommendation engine
— into a single object with the interaction surface the demo exposes:

* ``search(keywords)``             — the initial keyword query (Fig 3-a);
* ``start_session()``              — open an exploration session;
* ``submit_keywords(...)``         — submit keywords inside a session;
* ``select_entity / pin_feature``  — reformulate the query by clicks;
* ``investigate()``                — expand the current seed set (x-axis);
* ``pivot(...)``                   — switch to another entity domain;
* ``lookup(entity)``               — the presentation area;
* ``explain(left, right)``         — the explanation area;
* ``matrix()``                     — the heat-map matrix for the current state.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

from ..config import PivotEConfig
from ..explore import (
    DeselectEntity,
    ExplorationSession,
    LookupEntity,
    PinFeature,
    Pivot,
    Recommendation,
    RecommendationEngine,
    SelectEntity,
    SetDomain,
    SubmitKeywords,
    UnpinFeature,
)
from ..features import SemanticFeature, SemanticFeatureIndex
from ..kg import EntityProfile, KnowledgeGraph, install_topology, traversal_stats
from ..search import SearchEngine, SearchHit
from ..stats import EngineStats, StorageStats
from ..utils import gc_paused
from ..viz import (
    Heatmap,
    MatrixView,
    build_heatmap,
    build_matrix_view,
    entity_profile,
)
from .explanation import EntityPairExplanation, ExplanationBuilder


@dataclass(frozen=True)
class QueryResponse:
    """Everything the UI displays after a query is (re)formulated."""

    hits: tuple[SearchHit, ...]
    recommendation: Recommendation | None
    matrix: MatrixView | None

    @property
    def has_recommendation(self) -> bool:
        return self.recommendation is not None


class PivotE:
    """The entity-oriented exploratory search system."""

    def __init__(self, graph: KnowledgeGraph, config: PivotEConfig | None = None) -> None:
        self._graph = graph
        self._config = config or PivotEConfig.default()
        search = SearchEngine.from_graph(graph, config=self._config.search)
        self._wire(search, SemanticFeatureIndex.build(graph))

    def _wire(self, search: SearchEngine, feature_index: SemanticFeatureIndex) -> None:
        """Wire the three components around already-built engines.

        Shared tail of the two construction paths — :meth:`__init__`
        (build everything in RAM) and :meth:`load` (adopt components
        restored from a durable snapshot).
        """
        self._search = search
        self._feature_index = feature_index
        self._recommender = RecommendationEngine(
            self._graph, feature_index=self._feature_index, config=self._config.ranking
        )
        self._explainer = ExplanationBuilder(
            self._graph,
            self._feature_index,
            probability_model=self._recommender.expander.feature_ranker.probability_model,
        )
        self._sessions: dict[str, ExplorationSession] = {}
        self._session_counter = 0
        self._cold_start_ms = 0.0
        #: Cumulative durable-tier counters across this facade's
        #: ``save()`` / ``load()`` calls.
        self._storage_counters = {
            "publishes": 0,
            "published_bytes": 0,
            "attaches": 0,
            "attached_bytes": 0,
            "failures": 0,
        }

    def _accumulate_storage(self, store: object) -> None:
        for key in self._storage_counters:
            self._storage_counters[key] += int(getattr(store, key, 0))

    # ------------------------------------------------------------------ #
    # Durable snapshots
    # ------------------------------------------------------------------ #
    def save(self, directory: str) -> dict[str, object]:
        """Persist the whole system (graph + derived tiers) to ``directory``.

        The one writer of a snapshot directory.  Everything a later
        :meth:`load` needs lands under the directory as CRC-checksummed
        snapshot segments: the graph's column log at full fidelity, the
        fielded index, the feature tables and the topology.  Returns a
        summary of what was written.
        """
        from ..storage.kgstore import save_system, system_store

        if not directory:
            raise ValueError("save() needs a directory")
        store = system_store(directory)
        manifest = save_system(
            directory, self._graph, self._search.index, self._feature_index, store=store
        )
        self._accumulate_storage(store)
        return manifest

    @classmethod
    def load(cls, directory: str, config: PivotEConfig | None = None) -> "PivotE":
        """Cold-start a system from a :meth:`save` directory.

        Attaches instead of rebuilding: the graph adopts its column log
        (every accessor reads the saved rows, grouped as they are adopted),
        the fielded index its stored per-field posting CSRs (read per
        term a query names) and the feature index the stored holder
        tables (decoding a row when a lookup asks for it), whose holder
        CSR is also the graph's topology, all numbering entities with
        the graph's one entity map.  Any missing or corrupt component
        degrades to rebuilding just that component from the loaded
        graph; rankings are byte-identical either way.  A missing or
        corrupt graph raises
        :class:`~repro.storage.SnapshotUnavailable` — there is nothing
        to fall back to.

        The cyclic collector is paused for the duration: everything a
        load (or a fallback rebuild) allocates is a long-lived acyclic
        container, and each full pass it triggers re-walks the heap to
        free nothing.
        """
        from ..storage.kgstore import load_system

        config = config or PivotEConfig.default()
        started = time.perf_counter()
        with gc_paused():
            loaded = load_system(directory, fields=config.search.fields)
            graph = loaded.graph
            if loaded.index is not None:
                search = SearchEngine.restore(graph, loaded.index, config=config.search)
            else:
                search = SearchEngine.from_graph(graph, config=config.search)
            feature_index: SemanticFeatureIndex | None = None
            if loaded.feature_snapshot is not None:
                try:
                    feature_index = SemanticFeatureIndex.restore(graph, loaded.feature_snapshot)
                except ValueError:
                    loaded.store.failures += 1
                else:
                    # The restored holder CSR is the epoch's topology: the
                    # first read or write finds it in the memo.
                    install_topology(graph, loaded.feature_snapshot.tables.topology)
            if feature_index is None:
                feature_index = SemanticFeatureIndex.build(graph)

        system = cls.__new__(cls)
        system._graph = graph
        system._config = config
        system._wire(search, feature_index)
        system._accumulate_storage(loaded.store)
        system._cold_start_ms = (time.perf_counter() - started) * 1000.0
        return system

    # ------------------------------------------------------------------ #
    # Component access
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> KnowledgeGraph:
        return self._graph

    @property
    def search_engine(self) -> SearchEngine:
        return self._search

    @property
    def recommendation_engine(self) -> RecommendationEngine:
        return self._recommender

    @property
    def feature_index(self) -> SemanticFeatureIndex:
        return self._feature_index

    @property
    def explainer(self) -> ExplanationBuilder:
        return self._explainer

    @property
    def config(self) -> PivotEConfig:
        return self._config

    # ------------------------------------------------------------------ #
    # Stateless operations
    # ------------------------------------------------------------------ #
    def search(self, keywords: str, top_k: int | None = None) -> list[SearchHit]:
        """Keyword entity search (the search-engine component alone).

        Served through the engine's LRU result cache, so repeated queries —
        including the implicit re-search of :meth:`submit_keywords` — cost a
        cache lookup instead of a postings traversal.
        """
        return self._search.search(keywords, top_k=top_k)

    def search_many(
        self, queries: Sequence[str], top_k: int | None = None
    ) -> list[list[SearchHit]]:
        """Answer a batch of keyword queries in one call (Fig 3-a, batched).

        Runs through :meth:`SearchEngine.search_many`: the batch shares one
        index snapshot, duplicate queries are computed once, and results
        are byte-identical to issuing the queries one at a time.
        """
        return self._search.search_many(queries, top_k=top_k)

    def recommend_many(
        self, seed_lists: Sequence[Sequence[str]], **kwargs: object
    ) -> list[Recommendation]:
        """Entity/feature recommendations for a batch of seed sets.

        Runs through :meth:`RecommendationEngine.recommend_many`: one
        epoch's memoisation serves the whole batch and duplicate (or
        permuted) seed sets are computed once.
        """
        return self._recommender.recommend_many(seed_lists, **kwargs)  # type: ignore[arg-type]

    def stats(self) -> EngineStats:
        """The whole system's typed introspection record.

        One :class:`~repro.stats.EngineStats` whose children are the
        search and recommendation engines' records (caches, pruning
        counters, epochs) and whose own ``rebuilds`` mapping carries the
        semantic feature index's full-vs-delta refresh counters.
        ``as_dict()`` renders the tree as the JSON payload the
        ``"stats"`` API action returns.
        """
        return EngineStats(
            component="pivote",
            epoch=self._graph.epoch,
            rebuilds=self._feature_index.rebuild_info(),
            children=(self._search.stats(), self._recommender.stats()),
            storage=self._storage_stats(),
            traversal=traversal_stats(self._graph),
        )

    def _storage_stats(self) -> StorageStats | None:
        """The facade's durable-tier record (``None`` before any save or load).

        Counts this facade's :meth:`save` / :meth:`load` traffic;
        ``cold_start_ms`` is how long the last :meth:`load` took end to
        end (graph adoption + component restore + wiring).  Reading it
        decodes nothing.
        """
        counters = self._storage_counters
        if not any(counters.values()) and not self._cold_start_ms:
            return None
        return StorageStats(cold_start_ms=self._cold_start_ms, **counters)

    def close(self) -> None:
        """Release both engines' caches."""
        self._search.close()
        self._recommender.close()

    def __enter__(self) -> "PivotE":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def recommend(self, seeds: Sequence[str], **kwargs: object) -> Recommendation:
        """Entity/feature recommendation for explicit seeds (LRU-cached)."""
        return self._recommender.recommend_for_seeds(seeds, **kwargs)  # type: ignore[arg-type]

    def lookup(self, entity_id: str) -> EntityProfile:
        """The entity presentation area (Fig 3-d)."""
        return entity_profile(self._graph, entity_id)

    def explain(self, left: str, right: str) -> EntityPairExplanation:
        """The explanation area: why are two entities related?"""
        return self._explainer.explain_pair(left, right)

    def heatmap_for(self, recommendation: Recommendation) -> Heatmap:
        """Discretise a recommendation's correlations into the 7-level map."""
        return build_heatmap(recommendation.correlations, self._config.heatmap)

    def matrix_for(self, recommendation: Recommendation) -> MatrixView:
        """The full matrix view for a recommendation."""
        heatmap = self.heatmap_for(recommendation)
        return build_matrix_view(self._graph, recommendation, heatmap)

    # ------------------------------------------------------------------ #
    # Sessions
    # ------------------------------------------------------------------ #
    def start_session(self, session_id: str | None = None) -> ExplorationSession:
        """Open a new exploration session."""
        if session_id is None:
            self._session_counter += 1
            session_id = f"session-{self._session_counter}"
        session = ExplorationSession(session_id)
        self._sessions[session_id] = session
        return session

    def session(self, session_id: str) -> ExplorationSession:
        """Retrieve an existing session."""
        if session_id not in self._sessions:
            raise KeyError(f"unknown session: {session_id!r}")
        return self._sessions[session_id]

    # ------------------------------------------------------------------ #
    # Session-level interaction surface
    # ------------------------------------------------------------------ #
    def submit_keywords(self, session: ExplorationSession, keywords: str, top_k: int | None = None) -> QueryResponse:
        """Submit a keyword query inside a session (Fig 3-a).

        The top search hits seed the recommendation so that the matrix is
        populated immediately, matching the demo's behaviour of returning
        relevant entities *and* their semantic features for a keyword query.
        """
        session.apply(SubmitKeywords(keywords))
        hits = self._search.search(keywords, top_k=top_k)
        recommendation: Recommendation | None = None
        matrix: MatrixView | None = None
        if hits:
            seeds = [hit.entity_id for hit in hits[: min(3, len(hits))]]
            recommendation = self._recommender.recommend_for_seeds(
                seeds,
                pinned_features=session.current_query.pinned_features,
                domain_type=session.current_query.domain_type,
            )
            matrix = self.matrix_for(recommendation)
        return QueryResponse(hits=tuple(hits), recommendation=recommendation, matrix=matrix)

    def select_entity(self, session: ExplorationSession, entity_id: str) -> QueryResponse:
        """Click an entity to add it as an example seed."""
        self._graph.require_entity(entity_id)
        session.apply(SelectEntity(entity_id))
        return self._respond(session)

    def deselect_entity(self, session: ExplorationSession, entity_id: str) -> QueryResponse:
        """Remove an example seed from the query."""
        session.apply(DeselectEntity(entity_id))
        return self._respond(session)

    def pin_feature(self, session: ExplorationSession, feature: SemanticFeature) -> QueryResponse:
        """Add a semantic feature as a query condition."""
        session.apply(PinFeature(feature))
        return self._respond(session)

    def unpin_feature(self, session: ExplorationSession, feature: SemanticFeature) -> QueryResponse:
        """Remove a pinned semantic feature."""
        session.apply(UnpinFeature(feature))
        return self._respond(session)

    def set_domain(self, session: ExplorationSession, domain_type: str) -> QueryResponse:
        """Filter the x-axis to one entity type."""
        session.apply(SetDomain(domain_type))
        return self._respond(session)

    def lookup_in_session(self, session: ExplorationSession, entity_id: str) -> EntityProfile:
        """Open an entity profile, recording the lookup in the session."""
        session.apply(LookupEntity(entity_id))
        return self.lookup(entity_id)

    def investigate(self, session: ExplorationSession) -> QueryResponse:
        """Run the investigation process on the current seed set."""
        return self._respond(session)

    def pivot(self, session: ExplorationSession, target_entity: str) -> QueryResponse:
        """Pivot the x-axis into the domain of ``target_entity``.

        The target's dominant type becomes the new search domain and the
        target itself the new seed — the "browse" operation of the paper.
        """
        self._graph.require_entity(target_entity)
        target_type = self._graph.dominant_type(target_entity)
        session.apply(Pivot(target_entity=target_entity, target_type=target_type))
        return self._respond(session)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _respond(self, session: ExplorationSession) -> QueryResponse:
        """Compute the response for the session's current query state."""
        query = session.current_query
        if not query.seed_entities:
            if query.keywords.strip():
                hits = self._search.search(query.keywords)
                return QueryResponse(hits=tuple(hits), recommendation=None, matrix=None)
            return QueryResponse(hits=(), recommendation=None, matrix=None)
        recommendation = self._recommender.recommend(query)
        matrix = self.matrix_for(recommendation)
        return QueryResponse(hits=(), recommendation=recommendation, matrix=matrix)

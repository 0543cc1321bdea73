"""BM25 and BM25F baselines for entity retrieval.

The paper's search engine uses a mixture of language models; BM25(F) is the
standard lexical alternative and serves as the comparison point of the E7
search-quality experiment.

Like the language-model scorers, a search has exactly two forms: the
sparse columnar kernels (:mod:`repro.topk.kernels`, plain or max-score
pruned, serial or fanned out over document shards) select a superset of
the top-k that the exact re-scoring epilogue ranks, and
``search_exhaustive`` scores every candidate — the reference.  Because
BM25 gives documents without any matching term a score of exactly
``0.0``, the kernels only ever visit postings — candidates that match
solely in unscored fields are appended as a zero-scored, doc-id-ordered
tail to match the exhaustive ranking byte-for-byte.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from ..config import EXECUTOR_CHOICES, PRUNING_MODES
from ..exec import (
    ProcessTask,
    ThetaSlab,
    default_executor,
    merge_shard_stats,
    resolve_executor,
    shard_stats_from,
    snapshot_registry,
)
from ..index import ColumnarIndex, FieldedIndex, columnar_view
from ..topk import (
    PruningStats,
    SharedThreshold,
    SparseKernelTerm,
    accumulate_sparse,
    columnar_sparse,
    select_survivor_ordinals,
)
from .mlm import ScoredDocument
from .query import KeywordQuery


def _field_norms(view: ColumnarIndex, field: str, b: float, avg_length: float) -> np.ndarray:
    """Per-ordinal BM25 length normalisers for one field, memoised per epoch.

    The array counterpart of the scalar ``1.0 - b + b * (doc_len / avg)``
    expression (``1.0`` everywhere when the average is degenerate).  The
    key carries the scorer's construction-time average-length snapshot,
    so BM25 and BM25F scorers over the same field share one column only
    when their snapshots agree.
    """

    def compute() -> np.ndarray:
        if avg_length <= 0:
            return np.ones(view.num_documents, dtype=np.float64)
        lengths = view.field_lengths(field)
        return (1.0 - b) + b * (lengths / avg_length)

    norms = view.memoised(("bm25-norms", b, avg_length, field), compute)
    assert isinstance(norms, np.ndarray)
    return norms


def _shard_sliced_terms(
    terms: list[SparseKernelTerm], owners: np.ndarray, num_shards: int
) -> list[list[SparseKernelTerm]]:
    """Each term's posting column sliced by the CRC ownership map.

    Upper bounds stay derived from the full column — a full-list bound
    is sound for any subset — and terms without postings in a shard
    contribute no entry there, which only tightens the shard's
    remaining-upper sums.  The worker processes apply the same cut
    against their snapshot columns (see
    :func:`repro.exec.procpool._slice_for_shard`).
    """
    shard_terms: list[list[SparseKernelTerm]] = [[] for _ in range(num_shards)]
    for entry in terms:
        owner = owners[entry.ordinals]
        for shard in range(num_shards):
            mask = owner == shard
            if not mask.any():
                continue  # no postings here: tightens the shard's upper sums
            shard_terms[shard].append(
                SparseKernelTerm(
                    key=entry.key,
                    upper=entry.upper,
                    ordinals=entry.ordinals[mask],
                    contributions=entry.contributions[mask],
                )
            )
    return shard_terms


def _process_columnar_sparse_survivors(
    view: ColumnarIndex,
    terms: list[SparseKernelTerm],
    num_shards: int,
    top_k: int,
    stats: PruningStats,
    executor,
    plan: dict,
) -> np.ndarray | None:
    """Dispatch the sparse shard fan-out to the multiprocess tier.

    One task per shard: the parent runs shard 0 inline (its fallback
    holds a slot on the shared θ slab), the remaining shards ship only
    the scorer's term recipes — each worker rebuilds the full posting
    columns from its snapshot and applies its own ownership cut.
    Returns ``None`` when the snapshot cannot be published, so the
    caller falls through to the thread/inline fan-out.
    """
    snapshot = snapshot_registry().publish(plan["index"], view)
    if snapshot is None:
        return None
    owners = view.shard_map(num_shards)
    shard_terms = _shard_sliced_terms(terms, owners, num_shards)
    slab = ThetaSlab.create(top_k, num_shards)
    try:
        tasks = []
        for shard in range(num_shards):
            payload = {
                "kind": plan["kind"],
                "snapshot": snapshot.descriptor,
                "theta": slab.descriptor,
                "slot": shard,
                "top_k": top_k,
                "num_shards": num_shards,
                "shard": shard,
                **plan["recipe"],
            }

            def fallback(shard=shard):
                local = PruningStats()
                ordinals, partials = columnar_sparse(
                    shard_terms[shard],
                    top_k,
                    local,
                    view.num_documents,
                    shared=slab.slot(shard),
                )
                return ordinals, partials, local

            tasks.append(ProcessTask(payload, fallback))
        results = executor.run_tasks(tasks)
    finally:
        slab.close()
    merge_shard_stats(stats, [shard_stats_from(counters) for _, _, counters in results])
    all_ordinals = np.concatenate([ordinals for ordinals, _, _ in results])
    all_partials = np.concatenate([partials for _, partials, _ in results])
    return select_survivor_ordinals(all_ordinals, all_partials, top_k)


def _sharded_columnar_sparse_survivors(
    view: ColumnarIndex,
    terms: list[SparseKernelTerm],
    num_shards: int,
    top_k: int,
    stats: PruningStats,
    executor=None,
    process_plan: dict | None = None,
) -> np.ndarray:
    """Fan the sparse kernel out over ordinal shards; union the picks.

    Each term's posting column is sliced by the view's CRC ownership
    map, while upper bounds stay derived from the full column.  Workers
    run with private :class:`PruningStats` (merged afterwards, the
    logical query counted once) and the cross-shard θ broadcast.  Sparse
    survivors hold *exact* totals, so the disjoint survivor columns
    concatenate into exactly the survivor set a serial traversal would
    keep, and one global margin-guarded selection picks the ordinals the
    caller re-scores.  With a process executor and a recipe plan the
    fan-out goes to the multiprocess tier first (falling back here if
    the snapshot cannot be served); either tier feeds the same global
    selection, so rankings stay byte-identical across executors.
    """
    executor = executor or default_executor()
    if process_plan is not None and getattr(executor, "is_process", False):
        picked = _process_columnar_sparse_survivors(
            view, terms, num_shards, top_k, stats, executor, process_plan
        )
        if picked is not None:
            return picked
    owners = view.shard_map(num_shards)
    shard_terms = _shard_sliced_terms(terms, owners, num_shards)
    shared = SharedThreshold(top_k)

    def worker(shard: int) -> tuple[np.ndarray, np.ndarray, PruningStats]:
        local = PruningStats()
        ordinals, partials = columnar_sparse(
            shard_terms[shard],
            top_k,
            local,
            view.num_documents,
            shared=shared.slot(),
        )
        return ordinals, partials, local

    results = executor.run(
        [lambda shard=shard: worker(shard) for shard in range(num_shards)]
    )
    merge_shard_stats(stats, [local for _, _, local in results])
    all_ordinals = np.concatenate([ordinals for ordinals, _, _ in results])
    all_partials = np.concatenate([partials for _, partials, _ in results])
    return select_survivor_ordinals(all_ordinals, all_partials, top_k)


@dataclass(frozen=True)
class BM25Params:
    """BM25 hyper-parameters."""

    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self) -> None:
        if self.k1 < 0:
            raise ValueError("k1 must be non-negative")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must lie in [0, 1]")


def idf(num_documents: int, document_frequency: int) -> float:
    """Robertson-Sparck-Jones IDF with the +0.5 correction (never negative)."""
    numerator = num_documents - document_frequency + 0.5
    denominator = document_frequency + 0.5
    return max(0.0, math.log(1.0 + numerator / denominator))


def _extend_with_zero_tail(top, top_k, index, query, score_document):
    """Fill a short top list with the zero-scored candidate tail.

    When fewer matching documents than ``top_k`` exist, the exhaustive
    ranking continues with the remaining candidates at score ``0.0``
    ordered by document id.
    """
    missing = top_k - len(top)
    if missing <= 0:
        return top
    scored = {result.doc_id for result in top}
    candidates = index.candidate_documents(query.all_terms())
    zeros = sorted(doc_id for doc_id in candidates if doc_id not in scored)
    top.extend(score_document(query, doc_id) for doc_id in zeros[:missing])
    return top


class _BM25Scorer:
    """The search path shared by the BM25 and BM25F scorers.

    Subclasses say which query terms score and how (:meth:`_scored_terms`,
    :meth:`_kernel_terms`, :meth:`_process_plan`) and how a survivor is
    scored exactly (:meth:`_rescore_and_rank`, :meth:`score_document`);
    the kernels, the shard fan-out and the zero-scored tail are common.
    """

    def __init__(
        self,
        index: FieldedIndex,
        params: BM25Params | None,
        pruning: str,
        shards: int,
        executor: str,
        workers: int,
    ) -> None:
        if pruning not in PRUNING_MODES:
            raise ValueError(f"unknown pruning mode: {pruning!r}")
        if shards < 1:
            raise ValueError("shards must be positive")
        if executor not in EXECUTOR_CHOICES:
            raise ValueError(f"unknown executor: {executor!r}")
        if workers < 0:
            raise ValueError("workers must be non-negative")
        self._index = index
        self._params = params or BM25Params()
        self._pruning = pruning
        self._shards = shards
        self._executor_mode = executor
        self._workers = workers
        self._pruning_stats = PruningStats()

    def pruning_info(self) -> dict[str, int]:
        """Cumulative pruning counters (``cache_info()`` convention)."""
        return self._pruning_stats.as_dict()

    def _scored_terms(self, query: KeywordQuery) -> list[tuple[str, float, float]]:
        """``(term, idf weight, contribution upper bound)`` per scored term."""
        raise NotImplementedError

    def _kernel_terms(
        self, scored: list[tuple[str, float, float]], view: ColumnarIndex
    ) -> list[SparseKernelTerm]:
        """One kernel term (posting column + exact contributions) per scored term."""
        raise NotImplementedError

    def _process_plan(self, scored: list[tuple[str, float, float]]) -> dict:
        """This query's picklable recipe bundle for the process tier."""
        raise NotImplementedError

    def _rescore_and_rank(
        self, query: KeywordQuery, top_k: int, to_rescore: list[str]
    ) -> list[ScoredDocument]:
        raise NotImplementedError

    def score_document(self, query: KeywordQuery, doc_id: str) -> ScoredDocument:
        raise NotImplementedError

    def search(self, query: KeywordQuery, top_k: int = 20) -> list[ScoredDocument]:
        """Kernel selection + exact re-scoring of the survivors.

        ``pruning="off"`` scatter-adds every term's posting column.  With
        ``pruning="maxscore"`` the traversal runs threshold-pruned: terms
        are processed in decreasing upper-bound order, and once the
        remaining terms cannot lift a new document past the live θ the
        walk switches to accumulator-only refinement (the OR→AND switch),
        skipping the postings walks of frequent low-impact terms — with
        ``shards > 1`` over CRC-sliced posting columns under a shared θ.
        Either way the kernel values only guide selection; the exact
        epilogue ranks.
        """
        if top_k <= 0:
            return []
        view = columnar_view(self._index)
        scored = self._scored_terms(query)
        terms = self._kernel_terms(scored, view)
        if self._pruning != "maxscore":
            ordinals, partials = accumulate_sparse(terms, view.num_documents)
            picked = select_survivor_ordinals(ordinals, partials, top_k)
        else:
            if self._shards > 1:
                executor = resolve_executor(self._executor_mode, self._workers)
                plan = None
                if getattr(executor, "is_process", False):
                    plan = self._process_plan(scored)
                picked = _sharded_columnar_sparse_survivors(
                    view,
                    terms,
                    self._shards,
                    top_k,
                    self._pruning_stats,
                    executor=executor,
                    process_plan=plan,
                )
            else:
                ordinals, partials = columnar_sparse(
                    terms, top_k, self._pruning_stats, view.num_documents
                )
                picked = select_survivor_ordinals(ordinals, partials, top_k)
            self._pruning_stats.rescored += len(picked)
        return self._rescore_and_rank(query, top_k, view.ids_of(picked))

    def search_exhaustive(self, query: KeywordQuery, top_k: int = 20) -> list[ScoredDocument]:
        """Score every candidate and fully sort — the reference form."""
        candidates = self._index.candidate_documents(query.all_terms())
        scored = [self.score_document(query, doc_id) for doc_id in candidates]
        scored.sort(key=lambda result: (-result.score, result.doc_id))
        return scored[:top_k]


class BM25FieldScorer(_BM25Scorer):
    """Plain BM25 over a single field of a fielded index."""

    def __init__(
        self,
        index: FieldedIndex,
        field: str,
        params: BM25Params | None = None,
        pruning: str = "maxscore",
        shards: int = 1,
        executor: str = "auto",
        workers: int = 0,
    ) -> None:
        super().__init__(index, params, pruning, shards, executor, workers)
        self._field = field
        field_index = index.field_index(field)
        self._avg_length = field_index.average_document_length
        self._num_documents = field_index.num_documents

    def _min_length_norm(self) -> float:
        """Smallest possible BM25 length normaliser over the collection."""
        params = self._params
        if self._avg_length <= 0:
            return 1.0
        min_length = self._index.statistics().field(self._field).min_length
        return 1.0 - params.b + params.b * (min_length / self._avg_length)

    def score_document(self, query: KeywordQuery, doc_id: str) -> ScoredDocument:
        params = self._params
        doc_len = self._index.document_length(self._field, doc_id)
        length_norm = 1.0 - params.b + params.b * (
            doc_len / self._avg_length if self._avg_length > 0 else 1.0
        )
        score = 0.0
        term_scores: dict[str, float] = {}
        for term in query.all_terms():
            tf = self._index.term_frequency(self._field, term, doc_id)
            if tf == 0:
                term_scores[term] = 0.0
                continue
            df = self._index.document_frequency(self._field, term)
            weight = idf(self._num_documents, df)
            contribution = weight * (tf * (params.k1 + 1)) / (tf + params.k1 * length_norm)
            term_scores[term] = contribution
            score += contribution
        return ScoredDocument(doc_id=doc_id, score=score, term_scores=term_scores)

    def _scored_terms(self, query: KeywordQuery) -> list[tuple[str, float, float]]:
        support = self._index.scoring_support()
        statistics = support.statistics
        params = self._params
        k1_plus_1 = params.k1 + 1
        min_norm = self._min_length_norm()
        scored: list[tuple[str, float, float]] = []
        for term in query.all_terms():
            frequencies = support.postings_frequencies(self._field, term)
            if not frequencies:
                continue
            # IDF from the construction-time document count, like
            # score_document: this scorer snapshots N and avg_length when
            # built, and both paths must agree even after index mutations.
            weight = idf(self._num_documents, len(frequencies))
            if weight == 0.0:
                # Zero contribution for every posting (possible when the
                # index grew past the snapshot N): leave these documents to
                # the zero-scored tail so ties keep the global doc_id order.
                continue

            def tf_part(term: str = term) -> float:
                max_tf = statistics.field(self._field).max_frequency(term)
                return (max_tf * k1_plus_1) / (max_tf + params.k1 * min_norm)

            upper = weight * statistics.memoised_bound(
                ("bm25", params.k1, params.b, self._avg_length, self._field, term), tf_part
            )
            scored.append((term, weight, upper))
        return scored

    def _kernel_terms(
        self, scored: list[tuple[str, float, float]], view: ColumnarIndex
    ) -> list[SparseKernelTerm]:
        """The per-posting arithmetic of :meth:`_rescore_and_rank` as columns.

        The values only guide selection: the survivor re-scoring pass
        recomputes them with the scalar operation order.
        """
        params = self._params
        k1_plus_1 = params.k1 + 1
        avg_length = self._avg_length
        field = self._field
        norms = _field_norms(view, field, params.b, avg_length)
        entries: list[SparseKernelTerm] = []
        for term, weight, upper in scored:
            columnar = view.postings(field, term)
            assert columnar is not None  # scored terms have postings

            def tf_column(columnar=columnar) -> np.ndarray:
                tfs = columnar.frequencies
                return (tfs * k1_plus_1) / (tfs + params.k1 * norms[columnar.ordinals])

            tf_parts = view.memoised(
                ("bm25-kernel", params.k1, params.b, avg_length, field, term), tf_column
            )
            entries.append(
                SparseKernelTerm(
                    key=term,
                    upper=upper,
                    ordinals=columnar.ordinals,
                    contributions=weight * tf_parts,
                )
            )
        return entries

    def _process_plan(self, scored: list[tuple[str, float, float]]) -> dict:
        """Only scalars travel: per-term idf weights and upper bounds plus
        the scorer's normaliser snapshot, from which a worker rebuilds the
        exact contribution columns against its snapshot views (see
        :func:`repro.exec.procpool._bm25_entries`)."""
        params = self._params
        return {
            "index": self._index,
            "kind": "bm25",
            "recipe": {
                "field": self._field,
                "k1": params.k1,
                "b": params.b,
                "avg_length": self._avg_length,
                "terms": [
                    {"term": term, "weight": weight, "upper": upper}
                    for term, weight, upper in scored
                ],
            },
        }

    def _rescore_and_rank(
        self, query: KeywordQuery, top_k: int, to_rescore: list[str]
    ) -> list[ScoredDocument]:
        """Exact re-scoring + ranking of a survivor superset.

        Survivors are re-scored with the same floating-point operations in
        the same (query) order as :meth:`score_document`, so the ranking is
        byte-identical to the exhaustive path — whichever kernel picked
        the survivors; only the final k documents pay the full per-term
        breakdown construction.
        """
        support = self._index.scoring_support()
        params = self._params
        k1_plus_1 = params.k1 + 1
        lengths = support.field_lengths(self._field)
        per_term: list[tuple[float, Mapping[str, int]]] = []
        for term in query.all_terms():
            frequencies = support.postings_frequencies(self._field, term)
            if not frequencies:
                continue
            weight = idf(self._num_documents, len(frequencies))
            if weight == 0.0:
                continue  # score_document adds an exact 0.0 for these
            per_term.append((weight, frequencies))
        exact: list[tuple[str, float]] = []
        for doc_id in to_rescore:
            doc_len = lengths.get(doc_id, 0)
            length_norm = 1.0 - params.b + params.b * (
                doc_len / self._avg_length if self._avg_length > 0 else 1.0
            )
            score = 0.0
            for weight, frequencies in per_term:
                tf = frequencies.get(doc_id, 0)
                if tf == 0:
                    continue
                score += weight * (tf * k1_plus_1) / (tf + params.k1 * length_norm)
            exact.append((doc_id, score))
        exact.sort(key=lambda item: (-item[1], item[0]))
        top = [self.score_document(query, doc_id) for doc_id, _ in exact[:top_k]]
        return _extend_with_zero_tail(top, top_k, self._index, query, self.score_document)


class BM25FScorer(_BM25Scorer):
    """BM25F: term frequencies are combined across fields with field weights
    before a single saturation, following Robertson & Zaragoza."""

    def __init__(
        self,
        index: FieldedIndex,
        field_weights: Mapping[str, float],
        params: BM25Params | None = None,
        pruning: str = "maxscore",
        shards: int = 1,
        executor: str = "auto",
        workers: int = 0,
    ) -> None:
        super().__init__(index, params, pruning, shards, executor, workers)
        total = sum(field_weights.get(field, 0.0) for field in index.fields)
        if total <= 0:
            raise ValueError("field weights must have positive mass over the index fields")
        self._weights = {field: field_weights.get(field, 0.0) / total for field in index.fields}
        self._avg_lengths = {
            field: index.field_index(field).average_document_length for field in index.fields
        }
        self._num_documents = index.num_documents

    def _weighted_fields(self) -> list[tuple[str, float]]:
        return [(field, weight) for field, weight in self._weights.items() if weight != 0.0]

    def _field_min_norm(self, field: str) -> float:
        """One field's smallest BM25 length normaliser."""
        avg_len = self._avg_lengths[field]
        if avg_len <= 0:
            return 1.0
        min_length = self._index.statistics().field(field).min_length
        return 1.0 - self._params.b + self._params.b * (min_length / avg_len)

    def _weighted_tf(self, term: str, doc_id: str) -> float:
        weighted = 0.0
        for field, weight in self._weights.items():
            if weight == 0.0:
                continue
            tf = self._index.term_frequency(field, term, doc_id)
            if tf == 0:
                continue
            avg_len = self._avg_lengths[field]
            doc_len = self._index.document_length(field, doc_id)
            length_norm = 1.0 - self._params.b + self._params.b * (
                doc_len / avg_len if avg_len > 0 else 1.0
            )
            weighted += weight * tf / length_norm
        return weighted

    def _document_frequency(self, term: str) -> int:
        docs: set[str] = set()
        for field in self._index.fields:
            docs.update(self._index.field_index(field).documents_containing(term))
        return len(docs)

    def score_document(self, query: KeywordQuery, doc_id: str) -> ScoredDocument:
        score = 0.0
        term_scores: dict[str, float] = {}
        for term in query.all_terms():
            weighted_tf = self._weighted_tf(term, doc_id)
            if weighted_tf == 0.0:
                term_scores[term] = 0.0
                continue
            weight = idf(self._num_documents, self._document_frequency(term))
            contribution = weight * weighted_tf / (weighted_tf + self._params.k1)
            term_scores[term] = contribution
            score += contribution
        return ScoredDocument(doc_id=doc_id, score=score, term_scores=term_scores)

    def _scored_terms(self, query: KeywordQuery) -> list[tuple[str, float, float]]:
        support = self._index.scoring_support()
        statistics = support.statistics
        params = self._params
        weighted_fields = self._weighted_fields()
        weights_key = tuple(sorted(self._weights.items()))
        avgs_key = tuple(sorted(self._avg_lengths.items()))
        scored: list[tuple[str, float, float]] = []
        for term in query.all_terms():
            if all(
                not support.postings_frequencies(field, term) for field, _ in weighted_fields
            ):
                continue
            weight_idf = idf(self._num_documents, support.document_frequency_any_field(term))
            if weight_idf == 0.0:
                continue  # zero everywhere: stays in the zero-scored tail

            def weighted_tf_bound(term: str = term) -> float:
                bound = 0.0
                for field, weight in weighted_fields:
                    max_tf = statistics.field(field).max_frequency(term)
                    if max_tf == 0:
                        continue
                    min_norm = self._field_min_norm(field)
                    bound += weight * max_tf / min_norm if min_norm > 0 else float("inf")
                return bound

            # The key carries this scorer's construction-time average-length
            # snapshot: two BM25F scorers built at different index epochs
            # share the epoch-current statistics object but normalise with
            # their own averages, and a bound derived from smaller averages
            # would not be sound for the older scorer.
            max_weighted_tf = statistics.memoised_bound(
                ("bm25f", params.k1, params.b, weights_key, avgs_key, term),
                weighted_tf_bound,
            )
            if max_weighted_tf == float("inf"):
                # Degenerate normaliser (b == 1 with an empty document):
                # the saturated ratio still cannot exceed 1.
                upper = weight_idf
            else:
                upper = weight_idf * max_weighted_tf / (max_weighted_tf + params.k1)
            scored.append((term, weight_idf, upper))
        return scored

    def _kernel_terms(
        self, scored: list[tuple[str, float, float]], view: ColumnarIndex
    ) -> list[SparseKernelTerm]:
        """One kernel term per scored term over the union of its fields.

        The posting column lives on the union of the weighted fields'
        ordinals; the weighted-tf column accumulates ``weight * tf /
        norm`` per field, saturated once per query by the idf weight.  The
        values only guide selection — survivors are re-scored exactly.
        """
        params = self._params
        weighted_fields = self._weighted_fields()
        weights_key = tuple(sorted(self._weights.items()))
        avgs_key = tuple(sorted(self._avg_lengths.items()))
        entries: list[SparseKernelTerm] = []
        for term, weight_idf, upper in scored:
            field_postings = [
                (field, weight, view.postings(field, term)) for field, weight in weighted_fields
            ]

            def union_column(field_postings=field_postings) -> tuple[np.ndarray, np.ndarray]:
                union_ordinals = None
                for _, _, columnar in field_postings:
                    if columnar is None:
                        continue
                    union_ordinals = (
                        columnar.ordinals
                        if union_ordinals is None
                        else np.union1d(union_ordinals, columnar.ordinals)
                    )
                weighted_tf = np.zeros(union_ordinals.size, dtype=np.float64)
                for field, weight, columnar in field_postings:
                    if columnar is None:
                        continue
                    norms = _field_norms(view, field, params.b, self._avg_lengths[field])
                    positions = np.searchsorted(union_ordinals, columnar.ordinals)
                    weighted_tf[positions] += (
                        weight * columnar.frequencies / norms[columnar.ordinals]
                    )
                return union_ordinals, weighted_tf

            union_ordinals, weighted_tf = view.memoised(
                ("bm25f-kernel", params.b, weights_key, avgs_key, term), union_column
            )
            entries.append(
                SparseKernelTerm(
                    key=term,
                    upper=upper,
                    ordinals=union_ordinals,
                    contributions=weight_idf * (weighted_tf / (weighted_tf + params.k1)),
                )
            )
        return entries

    def _process_plan(self, scored: list[tuple[str, float, float]]) -> dict:
        """Per-term idf weights and upper bounds plus the per-field
        weight/average snapshot — everything a worker needs to rebuild the
        exact union columns against its snapshot views (see
        :func:`repro.exec.procpool._bm25f_entries`)."""
        params = self._params
        return {
            "index": self._index,
            "kind": "bm25f",
            "recipe": {
                "k1": params.k1,
                "b": params.b,
                "fields": [
                    (field, weight, self._avg_lengths[field])
                    for field, weight in self._weighted_fields()
                ],
                "terms": [
                    {"term": term, "weight_idf": weight_idf, "upper": upper}
                    for term, weight_idf, upper in scored
                ],
            },
        }

    def _pruned_contribution(
        self,
        doc_id: str,
        components: list[tuple[float, Mapping[str, int], Mapping[str, int], float]],
        weight_idf: float,
    ) -> float:
        """One term's exact BM25F contribution (same arithmetic as score_document)."""
        params = self._params
        weighted_tf = 0.0
        for weight, frequencies, lengths, avg_len in components:
            tf = frequencies.get(doc_id, 0)
            if tf == 0:
                continue
            doc_len = lengths.get(doc_id, 0)
            length_norm = 1.0 - params.b + params.b * (doc_len / avg_len if avg_len > 0 else 1.0)
            weighted_tf += weight * tf / length_norm
        return weight_idf * weighted_tf / (weighted_tf + params.k1)

    def _rescore_and_rank(
        self, query: KeywordQuery, top_k: int, to_rescore: list[str]
    ) -> list[ScoredDocument]:
        """Exact re-scoring + ranking of a survivor superset.

        Survivor scores are rebuilt with :meth:`_pruned_contribution`,
        whose arithmetic mirrors :meth:`score_document` term for term, so
        the ranking is byte-identical to the exhaustive path — whichever
        kernel picked the survivors.
        """
        support = self._index.scoring_support()
        weighted_fields = self._weighted_fields()
        per_term: list[tuple[float, list[tuple[float, Mapping[str, int], Mapping[str, int], float]]]] = []
        for term in query.all_terms():
            components = [
                (
                    weight,
                    support.postings_frequencies(field, term),
                    support.field_lengths(field),
                    self._avg_lengths[field],
                )
                for field, weight in weighted_fields
            ]
            if not any(frequencies for _, frequencies, _, _ in components):
                continue
            weight_idf = idf(self._num_documents, support.document_frequency_any_field(term))
            if weight_idf == 0.0:
                continue  # score_document adds an exact 0.0 for these
            per_term.append((weight_idf, components))
        exact: list[tuple[str, float]] = []
        for doc_id in to_rescore:
            score = 0.0
            for weight_idf, components in per_term:
                if any(doc_id in frequencies for _, frequencies, _, _ in components):
                    score += self._pruned_contribution(doc_id, components, weight_idf)
            exact.append((doc_id, score))
        exact.sort(key=lambda item: (-item[1], item[0]))
        top = [self.score_document(query, doc_id) for doc_id, _ in exact[:top_k]]
        return _extend_with_zero_tail(top, top_k, self._index, query, self.score_document)

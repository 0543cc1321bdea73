"""Mixture of Language Models (MLM) retrieval over fielded entity documents.

This is the retrieval model of §2.2: "the retrieval score of a structured
document is a linear combination of probabilities of query terms in the
language models calculated for each document field".  Concretely, for a
query ``q = t1 .. tn`` and an entity document ``d`` with fields ``f``:

    score(d, q) = sum_t log( sum_f w_f * p(t | d_f) )

where ``p(t | d_f)`` is the smoothed field language model and the field
weights ``w_f`` sum to one.

A search has exactly two forms.  ``search`` stays in ordinal space: its
candidates are the union of the query terms' posting ordinals, each
scored term gets a contribution column over those candidates, built per
query, and the columnar kernels (:mod:`repro.topk.kernels`, plain or
max-score pruned, serial or fanned out over document shards) select a
superset of the top-k; that superset is re-scored, per-term breakdown
included, with the exhaustive arithmetic in the exhaustive order.
``search_exhaustive`` scores every candidate through ``score_document``
and sorts — the reference.  Both produce byte-identical rankings because the
final scores come from the same floating-point operations in the same
order.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace

import numpy as np

from ..config import SearchConfig
from ..exec import (
    ProcessTask,
    ThetaSlab,
    default_executor,
    merge_shard_stats,
    resolve_executor,
    shard_stats_from,
    snapshot_registry,
)
from ..index import FieldedIndex
from ..index.columnar import ColumnarIndex, columnar_view
from ..index.scoring_support import ScoringSupport
from ..topk import (
    DenseKernelTerm,
    NO_THRESHOLD,
    PruningStats,
    SELECTION_MARGIN,
    SharedThreshold,
    accumulate_dense,
    columnar_dense,
    select_survivor_ordinals,
    threshold_of,
)
from .language_model import SmoothingParams, log_probability, smoothed_probability
from .query import KeywordQuery


class LanguageModelBounds:
    """Per-(field, term) smoothed-probability bounds for the LM scorers.

    For every candidate document, the smoothed mixture component of
    ``term`` in ``field`` lies in ``[field_floor, field_upper]``.  The floor is the
    *background* probability mass smoothing grants every document — the
    decomposition that lets max-score pruning evict candidates even though
    smoothing scores all of them (see :func:`repro.topk.columnar_dense`):

    * Dirichlet: ``p(t|d) = (tf + mu·p_c) / (|d| + mu)`` is maximised by
      the largest tf over the shortest field and floored by a zero tf over
      the longest field;
    * Jelinek-Mercer: ``p(t|d) = (1-λ)·tf/|d| + λ·p_c`` is bounded above
      by ``(1-λ)·1 + λ·p_c`` (``tf <= |d|``) when the field contains the
      term at all, and floored by the collection mass ``λ·p_c``.

    Field bounds are recomputed per query from the epoch's collection
    statistics: a handful of lookups, cheaper than keeping two memo
    entries per (field, term) ever searched.
    """

    __slots__ = ("_support", "_smoothing")

    def __init__(self, support: ScoringSupport, smoothing: SmoothingParams) -> None:
        self._support = support
        self._smoothing = smoothing

    def _field_bounds(self, field: str, term: str) -> tuple[float, float]:
        """``(floor, upper)`` of one field's smoothed component."""
        smoothing = self._smoothing
        field_stats = self._support.statistics.field(field)
        probability = field_stats.collection_probability(term)
        max_frequency = field_stats.max_frequency(term)
        if smoothing.method == "dirichlet":
            mu = smoothing.dirichlet_mu
            mass = mu * probability
            return (
                mass / (field_stats.max_length + mu),
                (max_frequency + mass) / (field_stats.min_length + mu),
            )
        lam = smoothing.jm_lambda
        mass = lam * probability
        return mass, (1.0 - lam) * (1.0 if max_frequency > 0 else 0.0) + mass

    def mixture_bounds(
        self, term: str, weighted_fields: Sequence[tuple[str, float]]
    ) -> tuple[float, float]:
        """Bounds of the full log mixture contribution of one query term."""
        floor_mass = 0.0
        upper_mass = 0.0
        for field, weight in weighted_fields:
            floor, upper = self._field_bounds(field, term)
            floor_mass += weight * floor
            upper_mass += weight * upper
        return log_probability(floor_mass), log_probability(upper_mass)


@dataclass(frozen=True)
class ScoredDocument:
    """A retrieval result: document identifier, score and per-term detail."""

    doc_id: str
    score: float
    term_scores: Mapping[str, float] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.term_scores is None:
            object.__setattr__(self, "term_scores", {})


def _rank_key(result: ScoredDocument) -> tuple[float, str]:
    return (-result.score, result.doc_id)


def _term_components(
    term: str,
    weighted_fields: Sequence[tuple[str, float]],
    support: ScoringSupport,
    smoothing: SmoothingParams,
) -> list[tuple[float, Mapping[str, int], Mapping[str, int], float]]:
    """The per-field lookup tuples one term's scoring needs, resolved once."""
    factor = _smoothing_factor(smoothing)
    return [
        (
            weight,
            support.postings_frequencies(field, term),
            support.field_lengths(field),
            factor * support.collection_probability(field, term),
        )
        for field, weight in weighted_fields
    ]


def _smoothing_factor(smoothing: SmoothingParams) -> float:
    """The parameter smoothing scales ``p(t|C)`` by: ``mu`` or ``lambda``."""
    if smoothing.method == "dirichlet":
        return smoothing.dirichlet_mu
    return smoothing.jm_lambda


def _score_breakdowns(
    doc_ids: Sequence[str],
    keys: Sequence[str],
    per_term: Sequence[list[tuple[float, Mapping[str, int], Mapping[str, int], float]]],
    smoothing: SmoothingParams,
) -> list[ScoredDocument]:
    """Exact scores and per-term breakdowns of a few documents.

    ``per_term`` must list each scored term's components (see
    :func:`_term_components`) in *scoring* order (query terms, then field
    restrictions), and ``keys`` the matching ``term_scores`` keys: the
    summation order and per-term arithmetic mirror
    :meth:`MixtureLanguageModelScorer.score_document` (and
    :func:`~repro.search.language_model.smoothed_probability`)
    operation-for-operation, so scores and breakdowns are bitwise
    identical to the exhaustive path without its per-call index lookups.
    """
    results: list[ScoredDocument] = []
    scored_terms = list(zip(keys, per_term))
    if smoothing.method == "dirichlet":
        mu = smoothing.dirichlet_mu
        for doc_id in doc_ids:
            score = 0.0
            term_scores: dict[str, float] = {}
            for key, components in scored_terms:
                probability = 0.0
                for weight, frequencies, lengths, mass in components:
                    probability += weight * (
                        (frequencies.get(doc_id, 0) + mass) / (lengths.get(doc_id, 0) + mu)
                    )
                log_p = log_probability(probability)
                term_scores[key] = log_p
                score += log_p
            results.append(ScoredDocument(doc_id, score, term_scores))
    else:  # jelinek-mercer
        one_minus_lam = 1.0 - smoothing.jm_lambda
        for doc_id in doc_ids:
            score = 0.0
            term_scores = {}
            for key, components in scored_terms:
                probability = 0.0
                for weight, frequencies, lengths, mass in components:
                    doc_len = lengths.get(doc_id, 0)
                    if doc_len > 0:
                        probability += weight * (
                            one_minus_lam * (frequencies.get(doc_id, 0) / doc_len) + mass
                        )
                    else:
                        probability += weight * mass
                log_p = log_probability(probability)
                term_scores[key] = log_p
                score += log_p
            results.append(ScoredDocument(doc_id, score, term_scores))
    return results


def _prime_threshold(
    keys: Sequence[str],
    per_term: Sequence[list[tuple[float, Mapping[str, int], Mapping[str, int], float]]],
    smoothing: SmoothingParams,
    top_k: int,
) -> float:
    """An initial θ for the sharded dense traversal, from a subset pool.

    A shard's first passes only see its own slice of the candidates, and
    the partial-plus-floor θ is loose there (the floor assumes a zero
    term frequency over the longest field).  This primes θ from a small
    pool of promising candidates: take each term's highest-tf documents
    per scored field, score that small pool *exactly* through the fast support
    lookups, and use its k-th best final score — a valid θ witness set,
    because every pool document is a real candidate and exact final
    scores are their own lower bounds.  Returns ``-inf`` when fewer than
    ``top_k`` pool documents exist (nothing can be primed soundly).
    """
    # Rarest postings first: a document with a high tf for a rare term
    # collects that term's large log boost while the rest of the pool
    # pays the smoothing floor, so these are the likeliest true top
    # scorers.  Postings lists beyond ``4 * top_k`` documents are never
    # scanned — selecting witnesses from them would cost a heap pass over
    # the very lists the traversal is trying not to walk twice, and their
    # spread is what the partial-plus-floor θ already captures.  When no
    # k cheap witnesses exist, priming is skipped (returns ``-inf``) and
    # the traversal runs unprimed.
    budget = 4 * top_k
    postings_by_rarity = sorted(
        (
            frequencies
            for components in per_term
            for _, frequencies, _, _ in components
            if frequencies and len(frequencies) <= budget
        ),
        key=len,
    )
    pool: set[str] = set()
    for frequencies in postings_by_rarity:
        if len(frequencies) <= top_k:
            pool.update(frequencies)
        else:
            pool.update(heapq.nlargest(top_k, frequencies, key=frequencies.__getitem__))
        if len(pool) >= top_k:
            break
    if len(pool) < top_k:
        return NO_THRESHOLD
    scored = _score_breakdowns(sorted(pool), keys, per_term, smoothing)
    return threshold_of((result.score for result in scored), top_k)


def query_candidates(view, fields: Sequence[str], terms: Sequence[str]) -> np.ndarray:
    """Ascending ordinals of the documents holding any term in any field.

    The ordinal form of :meth:`FieldedIndex.candidate_documents`: the
    union of the terms' posting ordinals, with no id set in between.
    """
    # A mask over the ordinal range: one scatter per posting list and one
    # scan, where a sort-based union would sort every posting it was handed.
    held = np.zeros(view.num_documents, dtype=bool)
    for field in fields:
        for term in dict.fromkeys(terms):
            postings = view.postings(field, term)
            if postings is not None:
                held[postings.ordinals] = True
    return np.flatnonzero(held)


def candidate_term_columns(
    view,
    candidates: np.ndarray,
    recipes: Sequence[tuple[str, Sequence[tuple[str, float, float]]]],
    method: str,
    param: float,
) -> list[np.ndarray]:
    """Each scored term's exact log-mixture contribution over ``candidates``.

    ``recipes`` lists ``(term, [(field, weight, mass), ...])`` per scored
    term, ``mass`` being ``param * p(t|C)``; position ``i`` of a returned
    column holds the contribution of ``candidates[i]``.  The per-field
    smoothing arithmetic of :func:`_score_breakdowns`, elementwise over
    the candidates' field lengths and term frequencies (IEEE-identical to
    the scalar expressions; only ``np.log`` may differ from ``math.log``
    by ulps, which the kernels' safety slack and the exact epilogue
    absorb).  ``view`` is a :class:`ColumnarIndex` in the parent or an
    attached snapshot in a process worker; both build the columns here,
    per query, and keep none of them.
    """
    size = candidates.size
    num_documents = view.num_documents
    lengths: dict[str, np.ndarray] = {}
    columns: list[np.ndarray] = []
    for term, fields in recipes:
        probability = np.zeros(size, dtype=np.float64)
        for field, weight, mass in fields:
            field_lengths = lengths.get(field)
            if field_lengths is None:
                field_lengths = view.field_lengths(field)[candidates]
                if method == "dirichlet":
                    field_lengths += param  # the denominator |d| + mu
                lengths[field] = field_lengths
            share = np.zeros(size, dtype=np.float64)  # tf, then the field's share
            postings = view.postings(field, term)
            if postings is not None and size == num_documents:
                share[postings.ordinals] = postings.frequencies  # position == ordinal
            elif postings is not None and size:  # a shard's bucket may hold only some
                positions = np.minimum(np.searchsorted(candidates, postings.ordinals), size - 1)
                held = candidates[positions] == postings.ordinals
                share[positions[held]] = postings.frequencies[held]
            if method == "dirichlet":
                share += mass
                share /= field_lengths
            else:  # jelinek-mercer
                # Zero-length documents fall back to the collection mass
                # (0.0 * anything + mass == mass, bitwise).
                share = np.divide(
                    share, field_lengths, out=np.zeros_like(share), where=field_lengths > 0
                )
                share *= 1.0 - param
                share += mass
            share *= weight
            probability += share
        # The 1e-12 probability floor of ``log_probability``.
        np.maximum(probability, 1e-12, out=probability)
        columns.append(np.log(probability, out=probability))
    return columns


def _term_recipes(
    support: ScoringSupport,
    smoothing: SmoothingParams,
    term_specs: Sequence[tuple[str, str, Sequence[tuple[str, float]]]],
) -> list[tuple[str, list[tuple[str, float, float]]]]:
    """``(term, [(field, weight, mass), ...])`` per scored term (see above)."""
    factor = _smoothing_factor(smoothing)
    return [
        (
            term,
            [
                (field, weight, factor * support.collection_probability(field, term))
                for field, weight in fields
            ],
        )
        for _, term, fields in term_specs
    ]


def _dense_kernel_entries(
    view: ColumnarIndex,
    candidates: np.ndarray,
    support: ScoringSupport,
    smoothing: SmoothingParams,
    term_specs: Sequence[tuple[str, str, Sequence[tuple[str, float]]]],
    recipes: Sequence[tuple[str, Sequence[tuple[str, float, float]]]],
) -> list[DenseKernelTerm]:
    """One vectorized kernel term per scored term, aligned with ``candidates``."""
    bounds = LanguageModelBounds(support, smoothing)
    columns = candidate_term_columns(
        view, candidates, recipes, smoothing.method, _smoothing_factor(smoothing)
    )
    entries: list[DenseKernelTerm] = []
    for (key, term, fields), column in zip(term_specs, columns):
        floor, upper = bounds.mixture_bounds(term, fields)
        entries.append(DenseKernelTerm(key=key, floor=floor, upper=upper, contributions=column))
    return entries


def _shard_entries(entries: list[DenseKernelTerm], mask: np.ndarray) -> list[DenseKernelTerm]:
    """The kernel terms restricted to one shard's candidates (by position)."""
    return [replace(entry, contributions=entry.contributions[mask]) for entry in entries]


def _merge_dense_shard_survivors(results, top_k: int) -> np.ndarray:
    """Union per-shard ``(ordinals, partials, counters)`` dense results.

    Early-stopped shards (at most ``k + margin`` survivors left)
    contribute their survivors wholesale — their partials are not
    comparable across shards — while shards that ran every pass hold
    full-accumulation values, identical for the same candidate regardless
    of shard, and are selected globally.  Either way the union contains
    the global top-k, and the re-scoring bill stays ~``k + margin``
    instead of shards × (``k + margin``).
    """
    stop_budget = top_k + SELECTION_MARGIN  # the driver's early-stop bound
    union: list[np.ndarray] = []
    exact_ordinals: list[np.ndarray] = []
    exact_partials: list[np.ndarray] = []
    for ordinals, partials, _ in results:
        if ordinals.size <= stop_budget:
            union.append(ordinals)
        else:
            exact_ordinals.append(ordinals)
            exact_partials.append(partials)
    if exact_ordinals:
        union.append(
            select_survivor_ordinals(
                np.concatenate(exact_ordinals), np.concatenate(exact_partials), top_k
            )
        )
    if not union:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(union)


def _dense_process_plan(
    index: FieldedIndex,
    support: ScoringSupport,
    smoothing: SmoothingParams,
    term_specs: Sequence[tuple[str, str, Sequence[tuple[str, float]]]],
    recipes: Sequence[tuple[str, Sequence[tuple[str, float, float]]]],
) -> dict:
    """One dense query's picklable recipe bundle for the process tier.

    Carries only scalars: per-term bounds plus the per-field smoothing
    masses (``mu·p(t|C)`` resp. ``lambda·p(t|C)``), from which a worker
    builds its bucket's contribution columns against its snapshot view
    (see :func:`repro.exec.procpool._dense_entries`).
    """
    bounds = LanguageModelBounds(support, smoothing)
    terms = []
    for (key, term, fields), (_, masses) in zip(term_specs, recipes):
        floor, upper = bounds.mixture_bounds(term, fields)
        terms.append(
            {"key": key, "term": term, "floor": floor, "upper": upper, "fields": list(masses)}
        )
    return {
        "index": index,
        "smoothing": (smoothing.method, _smoothing_factor(smoothing)),
        "terms": terms,
    }


def _shard_buckets(
    view: ColumnarIndex, candidate_ordinals: np.ndarray, num_shards: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(owner mask, candidate ordinals)`` of every shard holding candidates."""
    owners = view.shard_map(num_shards)[candidate_ordinals]
    return [
        (mask, candidate_ordinals[mask])
        for shard in range(num_shards)
        if (mask := owners == shard).any()
    ]


def _process_columnar_dense_survivors(
    view: ColumnarIndex,
    candidate_ordinals: np.ndarray,
    entries: list[DenseKernelTerm],
    top_k: int,
    stats: PruningStats,
    prime_threshold: float,
    num_shards: int,
    executor,
    plan: dict,
) -> np.ndarray | None:
    """Dispatch the dense shard fan-out to the multiprocess tier.

    The parent runs shard 0 inline (its fallback participates in the θ
    broadcast through its own slab slot); the remaining shards ship only
    their recipe payloads.  Returns ``None`` when the process tier cannot
    serve the query — snapshot publish failed, or fewer than two shards
    hold candidates — so the caller falls through to the thread/inline
    fan-out.
    """
    snapshot = snapshot_registry().publish(plan["index"], view)
    if snapshot is None:
        return None
    buckets = _shard_buckets(view, candidate_ordinals, num_shards)
    if len(buckets) < 2:
        return None
    slab = ThetaSlab.create(top_k, len(buckets), primed=prime_threshold)
    try:
        tasks = []
        for slot, (mask, bucket) in enumerate(buckets):
            payload = {
                "kind": "dense",
                "snapshot": snapshot.descriptor,
                "theta": slab.descriptor,
                "slot": slot,
                "top_k": top_k,
                "smoothing": plan["smoothing"],
                "terms": plan["terms"],
                "candidates": bucket,
            }

            def fallback(mask=mask, bucket=bucket, slot=slot):
                local = PruningStats()
                ordinals, partials = columnar_dense(
                    bucket, _shard_entries(entries, mask), top_k, local, shared=slab.slot(slot)
                )
                return ordinals, partials, local

            tasks.append(ProcessTask(payload, fallback))
        results = executor.run_tasks(tasks)
    finally:
        slab.close()
    merge_shard_stats(stats, [shard_stats_from(counters) for _, _, counters in results])
    return _merge_dense_shard_survivors(results, top_k)


def _sharded_columnar_dense_survivors(
    view: ColumnarIndex,
    candidate_ordinals: np.ndarray,
    entries: list[DenseKernelTerm],
    top_k: int,
    stats: PruningStats,
    prime_threshold: float,
    num_shards: int,
    executor=None,
    process_plan: dict | None = None,
) -> np.ndarray:
    """Fan the dense kernel out over candidate shards; union the picks.

    Candidate ordinals are partitioned with the view's CRC shard map, and
    each shard's kernel terms are sliced with the same owner mask; each
    worker runs the dense kernel with a private
    :class:`PruningStats` (merged afterwards, the logical query counted
    once) and a slot on the shared θ broadcast, seeded with the primed
    θ.  With a process executor and a recipe plan the fan-out goes to
    the multiprocess tier first (falling back here if the snapshot
    cannot be served).  The merge rule is the same either way — see
    :func:`_merge_dense_shard_survivors` — so rankings stay
    byte-identical across executor tiers.
    """
    executor = executor or default_executor()
    if process_plan is not None and getattr(executor, "is_process", False):
        picked = _process_columnar_dense_survivors(
            view,
            candidate_ordinals,
            entries,
            top_k,
            stats,
            prime_threshold,
            num_shards,
            executor,
            process_plan,
        )
        if picked is not None:
            return picked
    shared = SharedThreshold(top_k, initial=prime_threshold)

    def worker(mask: np.ndarray, shard_ordinals: np.ndarray):
        local = PruningStats()
        ordinals, partials = columnar_dense(
            shard_ordinals, _shard_entries(entries, mask), top_k, local, shared=shared.slot()
        )
        return ordinals, partials, local

    tasks = [
        lambda mask=mask, bucket=bucket: worker(mask, bucket)
        for mask, bucket in _shard_buckets(view, candidate_ordinals, num_shards)
    ]
    results = executor.run(tasks)
    merge_shard_stats(stats, [local for _, _, local in results])
    return _merge_dense_shard_survivors(results, top_k)


class _LanguageModelScorer:
    """The search path shared by the two language-model scorers.

    Subclasses define the scored terms (:meth:`_term_specs`) and the
    per-document reference score (:meth:`score_document`); everything
    else — candidate generation, the dense kernels, the shard fan-out and
    the exact re-scoring epilogue — is common.
    """

    def __init__(self, index: FieldedIndex, config: SearchConfig | None) -> None:
        self._index = index
        self._config = config or SearchConfig()
        self._smoothing = SmoothingParams(
            method=self._config.smoothing,
            dirichlet_mu=self._config.dirichlet_mu,
            jm_lambda=self._config.jm_lambda,
        )
        self._pruning_stats = PruningStats()

    @property
    def index(self) -> FieldedIndex:
        """The index snapshot this scorer was built over."""
        return self._index

    def pruning_info(self) -> dict[str, int]:
        """Cumulative pruning counters (``cache_info()`` convention)."""
        return self._pruning_stats.as_dict()

    def _term_specs(
        self, query: KeywordQuery
    ) -> list[tuple[str, str, Sequence[tuple[str, float]]]]:
        """The scored terms in scoring order as ``(key, term, fields)``."""
        raise NotImplementedError

    def score_document(self, query: KeywordQuery, doc_id: str) -> ScoredDocument:
        raise NotImplementedError

    def search(self, query: KeywordQuery, top_k: int | None = None) -> list[ScoredDocument]:
        """Rank the candidate documents and return the top ``k``.

        The request stays in ordinal space until the epilogue: the
        candidates are the union of the query terms' posting ordinals,
        each scored term gets a contribution column over just those
        candidates, and the dense kernel selects a margin-guarded
        superset of the top-k (see :meth:`_survivors`).  The survivors
        are re-scored with the same floating-point operations in the same
        (query) order as :meth:`score_document`, breakdown included, so
        the ranking, scores and ``term_scores`` are byte-identical to
        :meth:`search_exhaustive`.
        """
        top_k = self._config.top_k if top_k is None else top_k
        view = columnar_view(self._index)
        candidates = query_candidates(view, self._index.fields, query.all_terms())
        if not candidates.size:
            return []
        support = self._index.scoring_support()
        smoothing = self._smoothing
        term_specs = self._term_specs(query)
        keys = [key for key, _, _ in term_specs]
        # Each scored term's lookup components, resolved once per query and
        # shared by the subset-pool priming and the exact epilogue.
        per_term = [
            _term_components(term, fields, support, smoothing) for _, term, fields in term_specs
        ]
        picked = self._survivors(view, candidates, support, term_specs, keys, per_term, top_k)
        exact = _score_breakdowns(view.ids_of(picked), keys, per_term, smoothing)
        exact.sort(key=_rank_key)
        return exact[:top_k]

    def _survivors(
        self,
        view: ColumnarIndex,
        candidates: np.ndarray,
        support: ScoringSupport,
        term_specs: list[tuple[str, str, Sequence[tuple[str, float]]]],
        keys: list[str],
        per_term: list[list[tuple[float, Mapping[str, int], Mapping[str, int], float]]],
        top_k: int,
    ) -> np.ndarray:
        """The ordinals worth re-scoring exactly, picked by the dense kernels.

        ``pruning="off"`` gather-adds every term column and selects the
        top ``k + margin``.  ``"maxscore"`` runs the threshold-pruned
        traversal — terms in max-score order, candidates whose
        contribution upper bound cannot beat the live θ evicted early —
        serially, or fanned out over ``shards`` candidate shards with a θ
        primed from an exactly scored subset pool (see
        :func:`_prime_threshold`).
        """
        smoothing = self._smoothing
        recipes = _term_recipes(support, smoothing, term_specs)
        entries = _dense_kernel_entries(view, candidates, support, smoothing, term_specs, recipes)
        if self._config.pruning != "maxscore":
            partials = accumulate_dense(candidates, entries)
            return select_survivor_ordinals(candidates, partials, top_k)
        num_shards = self._config.shards
        if num_shards > 1:
            prime = NO_THRESHOLD
            if 4 * top_k < candidates.size:
                prime = _prime_threshold(keys, per_term, smoothing, top_k)
            executor = resolve_executor(self._config.executor, self._config.workers)
            plan = None
            if getattr(executor, "is_process", False):
                plan = _dense_process_plan(self._index, support, smoothing, term_specs, recipes)
            picked = _sharded_columnar_dense_survivors(
                view,
                candidates,
                entries,
                top_k,
                self._pruning_stats,
                prime,
                num_shards,
                executor=executor,
                process_plan=plan,
            )
        else:
            ordinals, partials = columnar_dense(candidates, entries, top_k, self._pruning_stats)
            picked = select_survivor_ordinals(ordinals, partials, top_k)
        self._pruning_stats.rescored += len(picked)
        return picked

    def search_exhaustive(self, query: KeywordQuery, top_k: int | None = None) -> list[ScoredDocument]:
        """Score every candidate and fully sort — the reference form."""
        top_k = self._config.top_k if top_k is None else top_k
        candidates = self._index.candidate_documents(query.all_terms())
        scored = [self.score_document(query, doc_id) for doc_id in candidates]
        scored.sort(key=lambda result: (-result.score, result.doc_id))
        return scored[:top_k]


class MixtureLanguageModelScorer(_LanguageModelScorer):
    """Scores documents of a :class:`FieldedIndex` against keyword queries."""

    def __init__(self, index: FieldedIndex, config: SearchConfig | None = None) -> None:
        super().__init__(index, config)
        weights = dict(self._config.field_weights)
        total = sum(weights.get(field, 0.0) for field in index.fields)
        if total <= 0:
            raise ValueError("field weights must have positive mass over the index fields")
        #: Normalised weights restricted to the index's fields.
        self._weights: dict[str, float] = {
            field: weights.get(field, 0.0) / total for field in index.fields
        }

    @property
    def field_weights(self) -> Mapping[str, float]:
        """The normalised field weights actually used for scoring."""
        return dict(self._weights)

    def term_probability(self, term: str, doc_id: str) -> float:
        """Mixture probability ``sum_f w_f * p(term | d_f)``."""
        probability = 0.0
        for field, weight in self._weights.items():
            if weight == 0.0:
                continue
            tf = self._index.term_frequency(field, term, doc_id)
            doc_len = self._index.document_length(field, doc_id)
            collection_p = self._index.collection_probability(field, term)
            probability += weight * smoothed_probability(
                tf, doc_len, collection_p, self._smoothing
            )
        return probability

    def score_document(self, query: KeywordQuery, doc_id: str) -> ScoredDocument:
        """Score one document: sum of log mixture probabilities over terms.

        Field restrictions (``names:gump``) are honoured by scoring the
        restricted terms only within their field.
        """
        term_scores: dict[str, float] = {}
        score = 0.0
        for term in query.terms:
            log_p = log_probability(self.term_probability(term, doc_id))
            term_scores[term] = log_p
            score += log_p
        for field, terms in query.field_restrictions.items():
            for term in terms:
                tf = self._index.term_frequency(field, term, doc_id)
                doc_len = self._index.document_length(field, doc_id)
                collection_p = self._index.collection_probability(field, term)
                p = smoothed_probability(tf, doc_len, collection_p, self._smoothing)
                log_p = log_probability(p)
                term_scores[f"{field}:{term}"] = log_p
                score += log_p
        return ScoredDocument(doc_id=doc_id, score=score, term_scores=term_scores)

    def _term_specs(
        self, query: KeywordQuery
    ) -> list[tuple[str, str, Sequence[tuple[str, float]]]]:
        weighted_fields = [
            (field, weight) for field, weight in self._weights.items() if weight != 0.0
        ]
        specs: list[tuple[str, str, Sequence[tuple[str, float]]]] = [
            (term, term, weighted_fields) for term in query.terms
        ]
        for field, terms in query.field_restrictions.items():
            restricted = ((field, 1.0),)
            specs.extend((f"{field}:{term}", term, restricted) for term in terms)
        return specs


class SingleFieldScorer(_LanguageModelScorer):
    """Baseline: query-likelihood over one catch-all field.

    Used by the E7 experiment to show the benefit of the five-field mixture
    over indexing all entity text into a single field.
    """

    def __init__(self, index: FieldedIndex, field: str, config: SearchConfig | None = None) -> None:
        super().__init__(index, config)
        self._field = field

    def score_document(self, query: KeywordQuery, doc_id: str) -> ScoredDocument:
        score = 0.0
        term_scores: dict[str, float] = {}
        for term in query.all_terms():
            tf = self._index.term_frequency(self._field, term, doc_id)
            doc_len = self._index.document_length(self._field, doc_id)
            collection_p = self._index.collection_probability(self._field, term)
            p = smoothed_probability(tf, doc_len, collection_p, self._smoothing)
            log_p = log_probability(p)
            term_scores[term] = log_p
            score += log_p
        return ScoredDocument(doc_id=doc_id, score=score, term_scores=term_scores)

    def _term_specs(
        self, query: KeywordQuery
    ) -> list[tuple[str, str, Sequence[tuple[str, float]]]]:
        single_field = ((self._field, 1.0),)
        return [(term, term, single_field) for term in query.all_terms()]

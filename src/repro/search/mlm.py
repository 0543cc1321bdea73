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
max-score pruned) select a superset of the top-k; that superset is
re-scored, per-term breakdown included, with the exhaustive arithmetic
in the exhaustive order.
``search_exhaustive`` scores every candidate through ``score_document``
and sorts — the reference.  Both produce byte-identical rankings because the
final scores come from the same floating-point operations in the same
order.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from ..config import SearchConfig
from ..index import FieldedIndex
from ..index.columnar import ColumnarIndex, columnar_view
from ..index.scoring_support import ScoringSupport
from ..topk import (
    DenseKernelTerm,
    PruningStats,
    accumulate_dense,
    columnar_dense,
    select_survivor_ordinals,
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


def query_candidates(view: ColumnarIndex, fields: Sequence[str], terms: Sequence[str]) -> np.ndarray:
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
    view: ColumnarIndex,
    candidates: np.ndarray,
    recipes: Sequence[tuple[str, Sequence[tuple[str, float, float]]]],
    method: str,
    param: float,
) -> list[np.ndarray]:
    """Each scored term's exact log-mixture contribution over ``candidates``.

    ``recipes`` lists ``(term, [(field, weight, mass), ...])`` per scored
    term, ``mass`` being ``param * p(t|C)``; ``candidates`` must hold
    every posting ordinal of those terms (:func:`query_candidates`
    guarantees it), and position ``i`` of a returned column holds the
    contribution of ``candidates[i]``.  The per-field
    smoothing arithmetic of :func:`_score_breakdowns`, elementwise over
    the candidates' field lengths and term frequencies (IEEE-identical to
    the scalar expressions; only ``np.log`` may differ from ``math.log``
    by ulps, which the kernels' safety slack and the exact epilogue
    absorb).  The columns are built per query and kept nowhere.
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
            elif postings is not None:  # the candidates hold every posting ordinal
                share[np.searchsorted(candidates, postings.ordinals)] = postings.frequencies
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
) -> list[DenseKernelTerm]:
    """One vectorized kernel term per scored term, aligned with ``candidates``."""
    bounds = LanguageModelBounds(support, smoothing)
    columns = candidate_term_columns(
        view,
        candidates,
        _term_recipes(support, smoothing, term_specs),
        smoothing.method,
        _smoothing_factor(smoothing),
    )
    entries: list[DenseKernelTerm] = []
    for (key, term, fields), column in zip(term_specs, columns):
        floor, upper = bounds.mixture_bounds(term, fields)
        entries.append(DenseKernelTerm(key=key, floor=floor, upper=upper, contributions=column))
    return entries


class _LanguageModelScorer:
    """The search path shared by the two language-model scorers.

    Subclasses define the scored terms (:meth:`_term_specs`) and the
    per-document reference score (:meth:`score_document`); everything
    else — candidate generation, the dense kernels and the exact
    re-scoring epilogue — is common.
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
        per_term = [
            _term_components(term, fields, support, smoothing) for _, term, fields in term_specs
        ]
        picked = self._survivors(view, candidates, support, term_specs, top_k)
        exact = _score_breakdowns(view.ids_of(picked), keys, per_term, smoothing)
        exact.sort(key=_rank_key)
        return exact[:top_k]

    def _survivors(
        self,
        view: ColumnarIndex,
        candidates: np.ndarray,
        support: ScoringSupport,
        term_specs: list[tuple[str, str, Sequence[tuple[str, float]]]],
        top_k: int,
    ) -> np.ndarray:
        """The ordinals worth re-scoring exactly, picked by the dense kernels.

        ``pruning="off"`` gather-adds every term column and selects the
        top ``k + margin``.  ``"maxscore"`` runs the threshold-pruned
        traversal — terms in max-score order, candidates whose
        contribution upper bound cannot beat the live θ evicted early.
        """
        entries = _dense_kernel_entries(view, candidates, support, self._smoothing, term_specs)
        if self._config.pruning != "maxscore":
            partials = accumulate_dense(candidates, entries)
            return select_survivor_ordinals(candidates, partials, top_k)
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

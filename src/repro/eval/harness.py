"""Quality-evaluation harnesses.

Two harnesses cover the quantitative experiments:

* :class:`ExpansionEvaluator` — compare the PivotE ranking model against the
  baselines on entity-set-expansion tasks (experiment E6);
* :class:`SearchEvaluator` — compare the five-field MLM retrieval against
  single-field LM and BM25F on keyword-search tasks (experiment E7).

Both return per-method aggregated metrics that the benchmark harness prints
as the rows of the corresponding experiment table.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from ..datasets import ExpansionTask, SearchTask
from ..expansion import EntitySetExpander
from ..kg import KnowledgeGraph
from ..ranking import make_baselines
from ..search import SearchEngine, parse_query
from .metrics import aggregate_metrics, evaluate_ranking

#: A ranking method: takes seeds, returns ranked entity identifiers.
ExpansionMethod = Callable[[Sequence[str], int], list[str]]
#: A search method: takes a query string, returns ranked entity identifiers.
SearchMethod = Callable[[str, int], list[str]]


@dataclass
class MethodResult:
    """Aggregated metrics of one method over a workload."""

    method: str
    metrics: dict[str, float]
    per_task: list[dict[str, float]] = field(default_factory=list)

    def metric(self, name: str) -> float:
        return self.metrics.get(name, 0.0)


class ExpansionEvaluator:
    """Evaluate entity-set-expansion methods on a task workload."""

    def __init__(
        self,
        graph: KnowledgeGraph,
        expander: EntitySetExpander | None = None,
        top_k: int = 20,
    ) -> None:
        self._graph = graph
        self._expander = expander or EntitySetExpander(graph)
        self._top_k = top_k

    @property
    def expander(self) -> EntitySetExpander:
        return self._expander

    def methods(self) -> dict[str, ExpansionMethod]:
        """The method registry: PivotE plus the three baselines."""
        baselines = make_baselines(self._graph, self._expander.feature_index)

        def pivote_method(seeds: Sequence[str], top_k: int) -> list[str]:
            result = self._expander.expand(seeds, top_k=top_k)
            return result.entity_ids()

        registry: dict[str, ExpansionMethod] = {"pivote": pivote_method}
        for name, ranker in baselines.items():
            registry[name] = lambda seeds, top_k, _ranker=ranker: [
                entity for entity, _ in _ranker.rank(seeds, top_k=top_k)
            ]
        return registry

    def evaluate_method(
        self, method: ExpansionMethod, tasks: Sequence[ExpansionTask], name: str = "method"
    ) -> MethodResult:
        """Run one method over all tasks and aggregate the metrics."""
        per_task: list[dict[str, float]] = []
        for task in tasks:
            ranked = method(task.seeds, self._top_k)
            per_task.append(evaluate_ranking(ranked, task.relevant))
        return MethodResult(method=name, metrics=aggregate_metrics(per_task), per_task=per_task)

    def compare(self, tasks: Sequence[ExpansionTask]) -> dict[str, MethodResult]:
        """Evaluate every registered method on the workload."""
        results: dict[str, MethodResult] = {}
        for name, method in self.methods().items():
            results[name] = self.evaluate_method(method, tasks, name=name)
        return results


class SearchEvaluator:
    """Evaluate keyword entity-search methods on a task workload."""

    def __init__(self, engine: SearchEngine, top_k: int = 20) -> None:
        self._engine = engine
        self._top_k = top_k

    def methods(self) -> dict[str, SearchMethod]:
        """MLM five-field model, names-only LM and BM25F."""
        engine = self._engine

        def mlm(query: str, top_k: int) -> list[str]:
            return [hit.entity_id for hit in engine.search(query, top_k=top_k)]

        def names_lm(query: str, top_k: int) -> list[str]:
            scorer = engine.single_field_scorer("names")
            return [doc.doc_id for doc in scorer.search(parse_query(query), top_k=top_k)]

        def bm25f(query: str, top_k: int) -> list[str]:
            scorer = engine.bm25f_scorer()
            return [
                doc.doc_id for doc in scorer.search_exhaustive(parse_query(query), top_k=top_k)
            ]

        return {"mlm-5field": mlm, "lm-names-only": names_lm, "bm25f": bm25f}

    def evaluate_method(
        self, method: SearchMethod, tasks: Sequence[SearchTask], name: str = "method"
    ) -> MethodResult:
        per_task: list[dict[str, float]] = []
        for task in tasks:
            ranked = method(task.query, self._top_k)
            per_task.append(evaluate_ranking(ranked, task.relevant))
        return MethodResult(method=name, metrics=aggregate_metrics(per_task), per_task=per_task)

    def compare(self, tasks: Sequence[SearchTask]) -> dict[str, MethodResult]:
        results: dict[str, MethodResult] = {}
        for name, method in self.methods().items():
            results[name] = self.evaluate_method(method, tasks, name=name)
        return results

"""Outside-in tracer for the end-to-end benchmark.

Spans are recorded from here, never from inside ``src/repro``: for the
duration of a traced run the public callables at each layer boundary are
replaced by timing wrappers, and :meth:`Tracer.restore` puts the
originals back.  Calls the runner itself makes into a layer (generate,
``PivotE(graph)``, ``save``/``load``, graph writes) are bracketed with
:meth:`Tracer.span` instead.

A span is ``(name, start, end, parent, request_id, count)``; ``parent``
is the index of the enclosing span (``None`` at the top), spans of one
request share ``request_id``, and ``count`` is the size of the wrapped
call's result where a target asks for it.  Everything stays in memory
until the run ends.  A span's *self time* is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    request_id: int | None
    count: int | None


@dataclass(frozen=True)
class Target:
    """One public callable to wrap: ``module[.Class].attr`` → span ``name``.

    ``min_ms`` keeps the span only when the call lasted at least that long.
    It is for per-epoch memo accessors, which sit on hot paths and are
    interesting only when they rebuild (``SemanticFeatureIndex.snapshot`` is
    called up to ~1500 times per request and costs ~0.1 µs unless the epoch
    moved); the dropped calls' time stays in the parent's self time.
    ``count_result`` records ``len(result)`` on the span.
    """

    module: str
    owner: str | None
    attr: str
    name: str
    min_ms: float = 0.0
    count_result: bool = False


#: The layer boundaries of ``src/repro`` (one package = one layer).  Only
#: public names; module-level functions are patched in every ``repro``
#: module that imported them by name.
TARGETS = (
    Target("repro.engine.api", "PivotEApi", "handle", "engine.handle"),
    Target("repro.engine.pivote", "PivotE", "matrix_for", "viz.matrix"),
    Target("repro.engine.api", None, "recommendation_to_dict", "viz.export"),
    Target("repro.engine.api", None, "matrix_view_to_dict", "viz.export"),
    Target("repro.search.engine", "SearchEngine", "from_graph", "search.build"),
    Target("repro.search.engine", "SearchEngine", "restore", "search.restore"),
    Target("repro.search.engine", "SearchEngine", "search", "search.search"),
    Target("repro.search.engine", "SearchEngine", "add_entity", "index.add_entity"),
    Target("repro.features.feature_index", "SemanticFeatureIndex", "build", "features.build"),
    Target("repro.features.feature_index", "SemanticFeatureIndex", "restore", "features.restore"),
    Target(
        "repro.features.feature_index", "SemanticFeatureIndex", "snapshot",
        "features.refresh", min_ms=0.2,
    ),
    Target(
        "repro.features.feature_index", "SemanticFeatureIndex", "candidates_matching_any",
        "features.candidates", count_result=True,
    ),
    Target("repro.explore.recommender", "RecommendationEngine", "recommend_for_seeds", "explore.recommend"),
    Target("repro.explore.recommender", None, "build_correlation_matrix", "ranking.correlation"),
    Target("repro.expansion.expander", "EntitySetExpander", "expand", "expansion.expand"),
    Target("repro.expansion.expander", "EntitySetExpander", "restrict_candidates", "expansion.restrict"),
    Target("repro.ranking.sf_ranking", "SemanticFeatureRanker", "rank", "ranking.sf_rank"),
    Target("repro.ranking.entity_ranking", "EntityRanker", "rank", "ranking.entity_rank"),
    Target("repro.kg.topology", None, "graph_topology", "kg.topology", min_ms=0.2),
    Target("repro.index.columnar", None, "columnar_view", "index.columnar_view", min_ms=0.2),
    Target("repro.features.columnar", None, "columnar_tables", "features.columnar_tables", min_ms=0.2),
    Target("repro.storage.kgstore", None, "save_system", "storage.save_system"),
    Target("repro.storage.kgstore", None, "load_system", "storage.load_system"),
    Target("repro.storage.kgstore", None, "load_graph", "storage.load_graph"),
    Target("repro.storage.kgstore", None, "restore_fielded_index", "storage.restore_index"),
    Target("repro.storage.kgstore", None, "restore_feature_snapshot", "storage.restore_features"),
    Target("repro.storage.kgstore", None, "restore_graph_topology", "storage.restore_topology"),
)


class Tracer:
    """Records spans; installs and removes the wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        #: Set by the runner before each request it sends.
        self.request_id: int | None = None
        self._current: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Bracket a call the runner itself makes into a layer."""
        index, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(index, parent, name, start, perf_counter(), None)

    def _open(self) -> tuple[int, int | None]:
        index = len(self.spans)
        self.spans.append(None)
        parent, self._current = self._current, index
        return index, parent

    def _close(
        self, index: int, parent: int | None, name: str,
        start: float, end: float, count: int | None,
    ) -> None:
        self.spans[index] = Span(name, start, end, parent, self.request_id, count)
        self._current = parent

    def _wrap(self, function: Callable, target: Target) -> Callable:
        name, count_result = target.name, target.count_result
        threshold = target.min_ms / 1000.0
        spans = self.spans

        def traced(*args, **kwargs):
            index, parent = self._open()
            result = None
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                if end - start < threshold and len(spans) == index + 1:
                    # Fast call of a ``min_ms`` target with no child spans.
                    spans.pop()
                    self._current = parent
                else:
                    count = len(result) if count_result and result is not None else None
                    self._close(index, parent, name, start, end, count)

        return traced

    # ------------------------------------------------------------------ #
    # Installing
    # ------------------------------------------------------------------ #
    def install(self, targets: tuple[Target, ...] = TARGETS) -> None:
        for target in targets:
            module = importlib.import_module(target.module)
            if target.owner is None:
                original = vars(module)[target.attr]
                wrapper = self._wrap(original, target)
                # ``from x import f`` copies the binding: patch each copy.
                for name, other in list(sys.modules.items()):
                    if name.split(".")[0] == "repro" and vars(other).get(target.attr) is original:
                        self._patch(other, target.attr, original, wrapper)
                continue
            owner = getattr(module, target.owner)
            original = vars(owner)[target.attr]
            if isinstance(original, classmethod):
                wrapper: object = classmethod(self._wrap(original.__func__, target))
            else:
                wrapper = self._wrap(original, target)
            self._patch(owner, target.attr, original, wrapper)

    def _patch(self, holder: object, attr: str, original: object, wrapper: object) -> None:
        setattr(holder, attr, wrapper)
        self._patched.append((holder, attr, original))

    def restore(self) -> None:
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)


# ---------------------------------------------------------------------- #
# Aggregation
# ---------------------------------------------------------------------- #
@dataclass
class LayerTotals:
    """Per span name: calls, inclusive and self seconds, summed counts."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    count: int = 0

    def mean_ms(self) -> float:
        return self.total_s / self.calls * 1000.0 if self.calls else 0.0

    def mean_self_ms(self) -> float:
        return self.self_s / self.calls * 1000.0 if self.calls else 0.0


def aggregate(spans: list[Span], kinds: dict[int | None, str]) -> dict[str, dict[str, LayerTotals]]:
    """``request type -> span name -> totals`` over the requests in ``kinds``.

    ``kinds`` maps a request id to its type; spans of other requests are
    left out.  Type ``"*"`` holds every listed request together.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    table: dict[str, dict[str, LayerTotals]] = defaultdict(lambda: defaultdict(LayerTotals))
    for index, span in enumerate(spans):
        if span.request_id not in kinds:
            continue
        duration = span.end - span.start
        for group in ("*", kinds[span.request_id]):
            totals = table[group][span.name]
            totals.calls += 1
            totals.total_s += duration
            totals.self_s += duration - child_time[index]
            totals.count += span.count or 0
    return table

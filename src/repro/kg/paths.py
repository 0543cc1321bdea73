"""Path utilities over the knowledge graph.

The recommendation model is *path-based*: semantic features are length-one
paths anchored at an entity, and explanations ("Forrest Gump and Apollo 13
are both performed by Tom Hanks") are length-two paths through a shared
anchor.  This module provides the small amount of graph traversal the rest
of the library needs: shortest paths, bounded breadth-first expansion and
connecting-path enumeration between entity pairs.

The two hot traversals — :func:`bfs_reachable` and
:func:`connecting_entities` — run frontier-at-a-time CSR kernels over
the per-epoch columnar :class:`~repro.kg.topology.GraphTopology`; the
scalar queue walks :func:`bfs_reachable_scalar` /
:func:`connecting_entities_scalar` are the reference they must equal.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass

from .graph import KnowledgeGraph
from .topology import graph_topology, topology_counters


@dataclass(frozen=True)
class PathStep:
    """One hop of a path: predicate, direction and the entity reached."""

    predicate: str
    #: ``True`` when the hop follows the edge subject->object.
    forward: bool
    entity: str

    def describe(self) -> str:
        arrow = "->" if self.forward else "<-"
        return f"{arrow}[{self.predicate}]{arrow} {self.entity}"


@dataclass(frozen=True)
class Path:
    """A path through the KG starting at ``start``."""

    start: str
    steps: tuple[PathStep, ...] = ()

    @property
    def end(self) -> str:
        return self.steps[-1].entity if self.steps else self.start

    @property
    def length(self) -> int:
        return len(self.steps)

    def entities(self) -> tuple[str, ...]:
        return (self.start,) + tuple(step.entity for step in self.steps)

    def describe(self) -> str:
        return self.start + " " + " ".join(step.describe() for step in self.steps)


def _expand(graph: KnowledgeGraph, entity: str) -> Iterator[PathStep]:
    """All single hops leaving ``entity`` in both directions."""
    for predicate, target in graph.outgoing(entity):
        yield PathStep(predicate=predicate, forward=True, entity=target)
    for predicate, source in graph.incoming(entity):
        yield PathStep(predicate=predicate, forward=False, entity=source)


def bfs_reachable(graph: KnowledgeGraph, start: str, max_hops: int = 2) -> dict[str, int]:
    """Entities reachable from ``start`` within ``max_hops``, with distances.

    Runs the frontier-at-a-time columnar kernel; equal to
    :func:`bfs_reachable_scalar`.
    """
    graph.require_entity(start)
    topo = graph_topology(graph)
    counters = topology_counters(graph)
    counters.bfs_queries += 1
    reached, depths = topo.bfs_reachable_ords(topo.ordinal_of[start], max_hops, counters)
    entity_ids = topo.entity_ids
    return {
        entity_ids[ordinal]: depth
        for ordinal, depth in zip(reached.tolist(), depths.tolist())
    }


def bfs_reachable_scalar(graph: KnowledgeGraph, start: str, max_hops: int = 2) -> dict[str, int]:
    """The scalar queue walk: the reference :func:`bfs_reachable` must equal."""
    graph.require_entity(start)
    distances: dict[str, int] = {start: 0}
    frontier = deque([start])
    while frontier:
        current = frontier.popleft()
        depth = distances[current]
        if depth >= max_hops:
            continue
        for step in _expand(graph, current):
            if step.entity not in distances:
                distances[step.entity] = depth + 1
                frontier.append(step.entity)
    return distances


def shortest_path(graph: KnowledgeGraph, start: str, end: str, max_hops: int = 4) -> Path | None:
    """Breadth-first shortest path between two entities (undirected)."""
    graph.require_entity(start)
    graph.require_entity(end)
    if start == end:
        return Path(start=start)
    parents: dict[str, tuple[str, PathStep]] = {}
    visited: set[str] = {start}
    frontier = deque([(start, 0)])
    while frontier:
        current, depth = frontier.popleft()
        if depth >= max_hops:
            continue
        for step in _expand(graph, current):
            if step.entity in visited:
                continue
            visited.add(step.entity)
            parents[step.entity] = (current, step)
            if step.entity == end:
                return _reconstruct(start, end, parents)
            frontier.append((step.entity, depth + 1))
    return None


def _reconstruct(start: str, end: str, parents: dict[str, tuple[str, PathStep]]) -> Path:
    steps: list[PathStep] = []
    node = end
    while node != start:
        parent, step = parents[node]
        steps.append(step)
        node = parent
    steps.reverse()
    return Path(start=start, steps=tuple(steps))


def connecting_entities(graph: KnowledgeGraph, left: str, right: str) -> list[tuple[str, str, str]]:
    """Entities that connect ``left`` and ``right`` through length-two paths.

    Returns ``(anchor_entity, predicate_from_left, predicate_from_right)``
    tuples — exactly the evidence the explanation area verbalises ("both are
    performed by Tom Hanks").  Runs the sorted-array intersect kernel;
    equal to :func:`connecting_entities_scalar`.
    """
    graph.require_entity(left)
    graph.require_entity(right)
    topo = graph_topology(graph)
    counters = topology_counters(graph)
    counters.connect_queries += 1
    anchors, left_preds, right_preds = topo.connecting_ords(
        topo.ordinal_of[left], topo.ordinal_of[right], counters
    )
    entity_ids = topo.entity_ids
    predicates = topo.predicates
    # Ordinals are assigned in string-sorted order, so the kernel's
    # lexsort already equals the scalar walk's final tuple sort.
    return [
        (entity_ids[anchor], predicates[left_pred], predicates[right_pred])
        for anchor, left_pred, right_pred in zip(
            anchors.tolist(), left_preds.tolist(), right_preds.tolist()
        )
    ]


def connecting_entities_scalar(
    graph: KnowledgeGraph, left: str, right: str
) -> list[tuple[str, str, str]]:
    """The scalar walk: the reference :func:`connecting_entities` must equal."""
    graph.require_entity(left)
    graph.require_entity(right)
    left_anchors: dict[str, set[str]] = {}
    for step in _expand(graph, left):
        left_anchors.setdefault(step.entity, set()).add(step.predicate)
    results: list[tuple[str, str, str]] = []
    for step in _expand(graph, right):
        if step.entity in left_anchors and step.entity not in (left, right):
            for left_predicate in sorted(left_anchors[step.entity]):
                results.append((step.entity, left_predicate, step.predicate))
    results.sort()
    return results


def paths_between(
    graph: KnowledgeGraph,
    start: str,
    end: str,
    max_hops: int = 2,
    limit: int = 100,
) -> list[Path]:
    """Enumerate simple paths of length <= ``max_hops`` between two entities."""
    graph.require_entity(start)
    graph.require_entity(end)
    results: list[Path] = []

    def recurse(current: str, steps: list[PathStep], visited: set[str]) -> None:
        if len(results) >= limit:
            return
        if current == end and steps:
            results.append(Path(start=start, steps=tuple(steps)))
            return
        if len(steps) >= max_hops:
            return
        for step in _expand(graph, current):
            if step.entity in visited and step.entity != end:
                continue
            steps.append(step)
            visited.add(step.entity)
            recurse(step.entity, steps, visited)
            visited.discard(step.entity)
            steps.pop()

    recurse(start, [], {start})
    return results

"""Request streams and closed-loop drivers of the four workloads.

Everything here is made from ``--seed``: the plan (which entities, which
keywords, which writes) is drawn up front from the graph's public read
accessors, and the program under test sees only the resulting requests.
Session scripts read their next step from the previous response, as a
user clicking through the matrix would.

One client, one thread: each request is sent after the previous response
arrived.  Request *counts* are fixed per run (``--seconds`` × the rates
below), so counters and the result digest repeat exactly for one seed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
from dataclasses import dataclass
from time import perf_counter

from repro import PivotE, PivotEApi

#: Units of work per second of ``--seconds``, sized on the 2-core box this
#: benchmark was recorded on so that the timed region lasts about
#: ``--seconds`` at the recording commit.  Units: search requests,
#: 11-request sessions, load-to-first-answer cycles, write-to-read cycles.
UNITS_PER_SECOND = {
    "search_keywords": 260.0,
    "explore_sessions": 25.0,
    "cold_start": 1.0,
    "mutate_and_query": 3.0,
}

WARMUP_SEARCHES = 6
WARMUP_SESSIONS = 2
STEADY_READS = 20

#: Label queries name entities of at most this degree.  A hub's own label
#: drowns in its long related-names field (at 5000 entities the first miss
#: is at degree ~940, at 500 at ~290), so a hub cannot carry the check
#: "the entity a label query names is among the hits".
MAX_LABEL_DEGREE = 100

SESSION_POOL = 400


def units_for(workload: str, seconds: float) -> int:
    return max(2, round(UNITS_PER_SECOND[workload] * seconds))


# ---------------------------------------------------------------------- #
# The client
# ---------------------------------------------------------------------- #
class Client:
    """Sends requests one at a time; times, checks and digests each."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.op_ms: list[float] = []
        self.interaction_ms: list[float] = []
        #: request id -> request type, for the per-type trace table.
        self.kinds: dict[int, str] = {}
        #: Requests with an id below this were warm-up.
        self.first_timed = 0
        self._digest = hashlib.sha256()

    def start_timed(self) -> None:
        self.first_timed = self.attempted

    def _begin(self, kind: str) -> None:
        request_id = self.attempted
        self.attempted += 1
        self.kinds[request_id] = kind
        if self.tracer is not None:
            self.tracer.request_id = request_id

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def send(self, api: PivotEApi, kind: str, request: dict, sample: bool = True) -> tuple[dict, float]:
        """One ``PivotEApi.handle`` request -> (response, latency in ms)."""
        self._begin(kind)
        start = perf_counter()
        response = api.handle(request)
        elapsed = (perf_counter() - start) * 1000.0
        self._digest.update(json.dumps(response, sort_keys=True).encode())
        if response.get("status") != "ok":
            self.fail(f"{kind}: {response.get('error')}")
        if sample:
            self.op_ms.append(elapsed)
        return response, elapsed

    def call(self, kind: str, span: str | None, function, *args):
        """One public call that is not a ``handle`` request (load, writes).

        ``span`` names the tracer span to bracket it with; ``None`` when
        the callable is already one of the tracer's targets.
        """
        self._begin(kind)
        start = perf_counter()
        if self.tracer is not None and span is not None:
            with self.tracer.span(span):
                result = function(*args)
        else:
            result = function(*args)
        return result, (perf_counter() - start) * 1000.0

    def result_digest(self) -> str:
        return self._digest.hexdigest()


# ---------------------------------------------------------------------- #
# The plan
# ---------------------------------------------------------------------- #
@dataclass
class Plan:
    """Everything one run will ask, drawn from the seed before timing."""

    units: int
    #: (class, keywords, entity the query names or None); all distinct
    #: across the three lists, so the search result cache never hits on them.
    warmup_searches: list[tuple[str, str, str | None]]
    searches: list[tuple[str, str, str | None]]
    oracle_searches: list[tuple[str, str, str | None]]
    #: Per session: (entity, its label to submit, fallback entities).
    sessions: list[tuple[str, str, list[str]]]
    #: Per write cycle: (new entity id, label, type, [(predicate, target)]).
    writes: list[tuple[str, str, str, list[tuple[str, str]]]]
    random_entities: list[str]


def make_plan(graph, workload: str, seed: int, units: int) -> Plan:
    rng = random.Random(seed * 7919 + 17)
    entities = sorted(graph.entities())
    nameable = [entity for entity in entities if graph.degree(entity) <= MAX_LABEL_DEGREE]
    rng.shuffle(nameable)
    values = sorted(
        {value for entity in entities for found in graph.attributes_of(entity).values() for value in found}
    )

    # Sessions draw their keywords Zipf(1.0) from a pool larger than the
    # 128-entry search LRU: a hot head that hits, a tail that evicts.
    pool = nameable[: min(SESSION_POOL, len(nameable) // 2)]
    nameable = nameable[len(pool):]
    weights = [1.0 / (rank + 1) for rank in range(len(pool))]
    num_sessions = WARMUP_SESSIONS + (units if workload == "explore_sessions" else 0)
    # Exactly proportional counts, not independent draws: the share of
    # sessions that repeat a hot keyword (and so are served from the caches)
    # decides where the median session falls, and as a random variable it
    # moved interaction_p50_ms by 6% between seeds.
    quotas = [num_sessions * weight / sum(weights) for weight in weights]
    counts = [int(quota) for quota in quotas]
    by_shortfall = sorted(range(len(pool)), key=lambda rank: counts[rank] - quotas[rank])
    for rank in by_shortfall[: num_sessions - sum(counts)]:
        counts[rank] += 1
    sources = [entity for entity, count in zip(pool, counts) for _ in range(count)]
    rng.shuffle(sources)
    sessions = [
        (source, graph.label(source), [rng.choice(entities) for _ in range(6)]) for source in sources
    ]

    seen: set[str] = set()

    def distinct_searches(classes: list[str]) -> list[tuple[str, str, str | None]]:
        made = []
        for kind in classes:
            while True:
                if kind == "rare":
                    entity, keywords = None, " ".join(rng.sample(values, 3))
                else:
                    if not nameable:
                        raise SystemExit("graph too small for this many distinct label queries")
                    entity = nameable.pop()
                    keywords = graph.label(entity)
                    if kind == "broad":
                        category = sorted(graph.categories_of(entity))[0]
                        keywords += " " + category.rsplit(":", 1)[-1].replace("_", " ")
                if keywords not in seen:
                    break
            seen.add(keywords)
            made.append((kind, keywords, entity))
        return made

    timed_searches = {
        "search_keywords": units,
        "explore_sessions": 0,
        "cold_start": 1,
        "mutate_and_query": units * (STEADY_READS // 2),
    }[workload]
    cycle = ("label", "rare", "broad")

    writes = []
    if workload == "mutate_and_query":
        predicates = sorted(graph.edge_predicates())
        types = sorted(graph.types())
        for index in range(units):
            edges = [(rng.choice(predicates), rng.choice(entities)) for _ in range(2)]
            writes.append(
                (f"pivote:written_{index}", f"written{index} entity", rng.choice(types), edges)
            )
    return Plan(
        units=units,
        warmup_searches=distinct_searches([cycle[i % 3] for i in range(WARMUP_SEARCHES)]),
        searches=distinct_searches([cycle[i % 3] for i in range(timed_searches)]),
        oracle_searches=distinct_searches(["rare"] * 8 + ["broad"]),
        sessions=sessions,
        writes=writes,
        random_entities=[rng.choice(entities) for _ in range(64 + units * STEADY_READS)],
    )


# ---------------------------------------------------------------------- #
# Building blocks
# ---------------------------------------------------------------------- #
def run_search(
    client: Client, api: PivotEApi, search: tuple[str, str, str | None],
    prefix: str = "search_", sample: bool = True,
) -> float:
    kind, keywords, entity = search
    response, elapsed = client.send(
        api, prefix + kind, {"action": "search", "keywords": keywords}, sample=sample
    )
    if entity is not None and entity not in [hit["entity"] for hit in response.get("hits", [])]:
        client.fail(f"search {keywords!r}: {entity} not among the hits")
    return elapsed


def start_session(client: Client, api: PivotEApi, session_id: str) -> float:
    """Open a session: sent and checked, never sampled (it costs ~0.01 ms)."""
    request = {"action": "start_session", "session_id": session_id}
    return client.send(api, "start_session", request, sample=False)[1]


def _recommended(response: dict, rank: int, fallback: str) -> str:
    entities = response.get("recommendation", {}).get("entities", [])
    return entities[min(rank, len(entities) - 1)]["entity"] if entities else fallback


def run_session(client: Client, api: PivotEApi, session_id: str, script, sample: bool = True) -> float:
    """The Fig-4 path as 11 requests; returns the session's total latency.

    ``unpin_feature`` and ``investigate`` return to a state the session has
    already visited, so they are recommendation-cache hits; the pivot
    restricts the expansion to the target's domain.
    """
    source, label, fallbacks = script
    total = 0.0

    def step(kind: str, **request) -> dict:
        nonlocal total
        if kind != "start_session":
            request["session_id"] = session_id
        response, elapsed = client.send(api, kind, {"action": kind.split("#")[0], **request}, sample=sample)
        total += elapsed
        return response

    step("start_session", session_id=session_id)
    response = step("submit_keywords", keywords=label)
    hits = response.get("hits", [])
    if source not in [hit["entity"] for hit in hits]:
        client.fail(f"session {session_id}: {source} not among the hits")
    response = step("select_entity#hit", entity=hits[0]["entity"] if hits else fallbacks[0])
    response = step("select_entity#rec1", entity=_recommended(response, 0, fallbacks[1]))
    response = step("select_entity#rec2", entity=_recommended(response, 1, fallbacks[2]))
    features = response.get("recommendation", {}).get("features", [])
    if features:
        step("pin_feature", feature=features[0]["feature"])
        step("unpin_feature", feature=features[0]["feature"])
    else:  # three seeds without a single shared feature: keep the request count
        step("investigate#nofeature")
        step("investigate#nofeature")
    step("lookup", entity=_recommended(response, 2, fallbacks[3]))
    response = step("pivot", entity=_recommended(response, 10**6, fallbacks[4]))
    step("select_entity#pivoted", entity=_recommended(response, 0, fallbacks[5]))
    step("investigate")
    return total


def warm_up(client: Client, api: PivotEApi, plan: Plan) -> None:
    """Let lazily built structures (columnar index, feature tables,
    topology) and interpreter caches settle before anything is timed."""
    for search in plan.warmup_searches:
        run_search(client, api, search, prefix="warmup_", sample=False)
    for index in range(WARMUP_SESSIONS):
        run_session(client, api, f"warmup-{index}", plan.sessions.pop(), sample=False)


# ---------------------------------------------------------------------- #
# The four workloads (timed regions)
# ---------------------------------------------------------------------- #
# Each takes ``checkpoint(system, restarted=())`` and calls it where the
# program's cumulative counters must be read: see ``Tally`` in run.py.
def search_keywords(client: Client, system: PivotE, api: PivotEApi, plan: Plan, *, checkpoint, **_) -> None:
    for search in plan.searches:
        client.interaction_ms.append(run_search(client, api, search))
    checkpoint(system)


def explore_sessions(client: Client, system: PivotE, api: PivotEApi, plan: Plan, *, checkpoint, **_) -> None:
    for index, script in enumerate(plan.sessions):
        client.interaction_ms.append(run_session(client, api, f"session-{index}", script))
    checkpoint(system)


def cold_start(
    client: Client, system: PivotE, api: PivotEApi, plan: Plan, *, directory: str, checkpoint
) -> None:
    """``load`` -> first search -> first recommendation, once per unit.

    Lazy hydration is inside the metric: here users do pay it.  The first
    answers must equal the system's that wrote the snapshot.  Reads come
    from the OS page cache (the files were just written).
    """
    keywords = plan.searches[0][1]
    entity = plan.random_entities.pop()
    search = {"action": "search", "keywords": keywords}
    select = {"action": "select_entity", "session_id": "first", "entity": entity}
    api.handle({"action": "start_session", "session_id": "first"})
    expected = (api.handle(search), api.handle(select))
    for _ in range(plan.units):
        loaded, load_ms = client.call("load", "engine.load", PivotE.load, directory)
        try:
            loaded_api = PivotEApi(loaded)
            first_search, search_ms = client.send(loaded_api, "first_search", search, sample=False)
            start_session(client, loaded_api, "first")
            first_rec, rec_ms = client.send(loaded_api, "first_recommend", select, sample=False)
            if (first_search, first_rec) != expected:
                client.fail("first answers after load differ from the saved system's")
            total = load_ms + search_ms + rec_ms
            client.op_ms.append(total)
            client.interaction_ms.append(total)
            checkpoint(loaded, ("",))
        finally:
            loaded.close()
            del loaded, loaded_api
            gc.collect()


def mutate_and_query(client: Client, system: PivotE, api: PivotEApi, plan: Plan, *, checkpoint, **_) -> None:
    """Write, read your write, then steady reads, once per unit.

    Every write moves the graph epoch, which empties both result caches and
    makes the feature snapshot, the columnar tables and the topology rebuild
    on the next read: the price of precomputation shows up here.  The first
    recommendation is a pivot to the written entity (a selection restricted
    to its type's domain), so that the topology rebuild is paid inside the
    write-to-read interaction and not by a later steady read.
    """
    graph = system.graph

    def write(entity: str, label: str, type_id: str, edges) -> None:
        graph.add_label(entity, label)
        graph.add_type(entity, type_id)
        for predicate, target in edges:
            graph.add(entity, predicate, target)

    for cycle, (entity, label, type_id, edges) in enumerate(plan.writes):
        _, write_ms = client.call("write", "kg.mutate", write, entity, label, type_id, edges)
        _, index_ms = client.call("add_entity", None, system.search_engine.add_entity, entity)
        response, search_ms = client.send(
            api, "first_search_after_write", {"action": "search", "keywords": label}, sample=False
        )
        if entity not in [hit["entity"] for hit in response.get("hits", [])]:
            client.fail(f"cycle {cycle}: written entity not found by its label")
        session_id = f"write-{cycle}"
        session_ms = start_session(client, api, session_id)
        _, rec_ms = client.send(
            api, "first_recommend_after_write",
            {"action": "pivot", "session_id": session_id, "entity": entity}, sample=False,
        )
        client.interaction_ms.append(write_ms + index_ms + search_ms + session_ms + rec_ms)
        for read in range(STEADY_READS):
            if read % 2 == 0:
                run_search(client, api, plan.searches.pop(), prefix="steady_search_")
                continue
            session_id = f"steady-{cycle}-{read}"
            start_session(client, api, session_id)
            client.send(
                api, "steady_select",
                {"action": "select_entity", "session_id": session_id, "entity": plan.random_entities.pop()},
            )
        checkpoint(system, ("topk.search.",))  # add_entity installed a new scorer


WORKLOADS = {
    "search_keywords": search_keywords,
    "explore_sessions": explore_sessions,
    "cold_start": cold_start,
    "mutate_and_query": mutate_and_query,
}

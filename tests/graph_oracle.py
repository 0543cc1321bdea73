"""A dict-of-sets model of :class:`~repro.kg.KnowledgeGraph`: the test oracle.

It replays triples into dictionaries the plain way — one container per
access path, filled triple by triple — and answers every public accessor
from them, in the order the graph promises: ``outgoing`` groups targets
by predicate in first-seen order, targets ascending; ``incoming`` groups
predicates by source in first-seen order, predicates ascending; labels
and literal values come in the order written.
"""

from __future__ import annotations

from collections import defaultdict

from repro.kg import Entity, Literal
from repro.kg.namespaces import (
    DCT_SUBJECT, DISAMBIGUATES, RDF_TYPE, RDFS_LABEL, REDIRECT, label_from_identifier,
)


def _nested():
    return defaultdict(lambda: defaultdict(set))


class GraphOracle:
    def __init__(self, triples=()) -> None:
        self.seen, self.triples, self.entity_ids, self.predicate_ids = set(), [], set(), set()
        self.spo, self.pos, self.osp = _nested(), _nested(), _nested()
        self.literals = defaultdict(lambda: defaultdict(list))
        self.labels, self.type_sets, self.members = defaultdict(list), defaultdict(set), defaultdict(set)
        self.category_sets, self.category_members, self.alias_sets = (defaultdict(set) for _ in range(3))
        for triple in triples:
            self.add_triple(triple)

    def add_triple(self, triple) -> bool:
        key = triple.as_tuple()
        if key in self.seen:
            return False
        self.seen.add(key)
        self.triples.append(triple)
        (s, p, o) = key
        self.entity_ids.add(s)
        self.predicate_ids.add(p)
        if isinstance(o, Literal):
            self.literals[s][p].append(o.value)
            if p == RDFS_LABEL:
                self.labels[s].append(o.value)
        elif p == RDF_TYPE:
            self.type_sets[s].add(o)
            self.members[o].add(s)
        elif p == DCT_SUBJECT:
            self.category_sets[s].add(o)
            self.category_members[o].add(s)
        elif p in (REDIRECT, DISAMBIGUATES):
            self.alias_sets[s].add(o)
            self.entity_ids.add(o)
        else:
            self.entity_ids.add(o)
            self.spo[s][p].add(o)
            self.pos[p][o].add(s)
            self.osp[o][s].add(p)
        return True

    # Whole-graph reads
    def __len__(self): return len(self.triples)
    def entities(self): return set(self.entity_ids)
    def num_entities(self): return len(self.entity_ids)
    def predicates(self): return set(self.predicate_ids)
    def edge_predicates(self): return {p for p, by_object in self.pos.items() if by_object}
    def num_edges(self): return sum(len(o) for by_p in self.spo.values() for o in by_p.values())
    def types(self): return {t for t, m in self.members.items() if m}
    def type_tables(self):
        return ({e: set(t) for e, t in self.type_sets.items() if t},
                {t: set(m) for t, m in self.members.items() if m})
    def describe(self, name):
        return (f"KnowledgeGraph({name!r}: {len(self)} triples, {len(self.entity_ids)} entities, "
                f"{len(self.types())} types, {len(self.edge_predicates())} edge predicates)")

    # Per-entity reads
    def has_entity(self, e): return e in self.entity_ids
    def outgoing(self, e): return [(p, o) for p, objs in self.spo.get(e, {}).items() for o in sorted(objs)]
    def incoming(self, e): return [(p, s) for s, preds in self.osp.get(e, {}).items() for p in sorted(preds)]
    def neighbours(self, e): return {o for _, o in self.outgoing(e)} | {s for _, s in self.incoming(e)}
    def degree(self, e): return len(self.outgoing(e)) + len(self.incoming(e))
    def types_of(self, e): return set(self.type_sets.get(e, ()))
    def type_count(self, t): return len(self.members.get(t, ()))
    def entities_of_type(self, t): return set(self.members.get(t, ()))
    def dominant_type(self, e): return min(self.types_of(e), key=lambda t: (self.type_count(t), t), default="")
    def labels_of(self, e): return list(self.labels.get(e, ()))
    def label(self, e): return self.labels[e][0] if self.labels.get(e) else label_from_identifier(e)
    def categories_of(self, e): return set(self.category_sets.get(e, ()))
    def entities_in_category(self, c): return set(self.category_members.get(c, ()))
    def aliases_of(self, e): return set(self.alias_sets.get(e, ()))
    def attributes_of(self, e): return {p: list(v) for p, v in self.literals.get(e, {}).items() if p != RDFS_LABEL}
    def objects(self, s, p): return set(self.spo.get(s, {}).get(p, ()))
    def subjects(self, p, o): return set(self.pos.get(p, {}).get(o, ()))
    def predicates_between(self, s, o): return set(self.osp.get(o, {}).get(s, ()))
    def subjects_of_predicate(self, p): return {s for subjects in self.pos.get(p, {}).values() for s in subjects}
    def objects_of_predicate(self, p): return {o for o, subjects in self.pos.get(p, {}).items() if subjects}
    def predicate_frequency(self, p): return sum(len(s) for s in self.pos.get(p, {}).values())

    def entity(self, e) -> Entity | None:
        """What ``entity_or_none`` builds."""
        if not self.has_entity(e):
            return None
        outgoing, incoming = tuple(self.outgoing(e)), tuple(self.incoming(e))
        return Entity(
            identifier=e,
            labels=tuple(self.labels_of(e)),
            types=tuple(sorted(self.types_of(e), key=lambda t: (self.type_count(t), t))),
            categories=tuple(sorted(self.categories_of(e))),
            attributes={p: tuple(v) for p, v in sorted(self.attributes_of(e).items())},
            aliases=tuple(map(self.label, sorted(self.aliases_of(e)))),
            related=tuple(dict.fromkeys([o for _, o in outgoing] + [s for _, s in incoming])),
            outgoing=outgoing,
            incoming=incoming,
        )

"""Knowledge-graph substrate: triples, entities, the indexed store and IO.

This package implements the RDF knowledge graph the paper's system operates
on (``kappa`` in §2.3): a set of ``<s, p, o>`` triples with entity types,
labels, categories, literal attributes and alias (redirect) links, indexed
for the access patterns PivotE needs.
"""

from .builder import GraphBuilder
from .entity import Entity, EntityProfile, build_profile, wikipedia_url
from .graph import KnowledgeGraph, STRUCTURAL_PREDICATES
from .io import (
    graph_from_dict,
    graph_to_dict,
    load_json,
    load_ntriples,
    load_tsv,
    save_json,
    save_ntriples,
    save_tsv,
)
from .namespaces import (
    DCT_SUBJECT,
    DEFAULT_NAMESPACES,
    DISAMBIGUATES,
    NamespaceRegistry,
    RDFS_LABEL,
    RDF_TYPE,
    REDIRECT,
    label_from_identifier,
)
from .paths import (
    Path,
    PathStep,
    bfs_reachable,
    bfs_reachable_scalar,
    connecting_entities,
    connecting_entities_scalar,
    paths_between,
    shortest_path,
)
from .topology import (
    GraphTopology,
    TraversalCounters,
    graph_topology,
    install_topology,
    topology_counters,
    traversal_stats,
)
from .query import Binding, Filter, QueryEngine, SelectQuery, TriplePattern
from .statistics import (
    GraphStatistics,
    TypeCoupling,
    compute_statistics,
    type_couplings,
    type_distribution_of_neighbours,
)
from .triple import Literal, Triple, make_triple

__all__ = [
    "Binding",
    "Filter",
    "QueryEngine",
    "SelectQuery",
    "TriplePattern",
    "DCT_SUBJECT",
    "DEFAULT_NAMESPACES",
    "DISAMBIGUATES",
    "Entity",
    "EntityProfile",
    "GraphBuilder",
    "GraphStatistics",
    "GraphTopology",
    "KnowledgeGraph",
    "Literal",
    "NamespaceRegistry",
    "Path",
    "PathStep",
    "RDF_TYPE",
    "RDFS_LABEL",
    "REDIRECT",
    "STRUCTURAL_PREDICATES",
    "Triple",
    "TraversalCounters",
    "TypeCoupling",
    "bfs_reachable",
    "bfs_reachable_scalar",
    "build_profile",
    "compute_statistics",
    "connecting_entities",
    "connecting_entities_scalar",
    "graph_from_dict",
    "graph_to_dict",
    "graph_topology",
    "install_topology",
    "label_from_identifier",
    "load_json",
    "load_ntriples",
    "load_tsv",
    "make_triple",
    "paths_between",
    "save_json",
    "save_ntriples",
    "save_tsv",
    "shortest_path",
    "topology_counters",
    "traversal_stats",
    "type_couplings",
    "type_distribution_of_neighbours",
    "wikipedia_url",
]

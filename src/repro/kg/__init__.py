"""Knowledge-graph substrate: triples, entities, the indexed store and IO.

This package implements the RDF knowledge graph the paper's system operates
on (``kappa`` in §2.3): a set of ``<s, p, o>`` triples with entity types,
labels, categories, literal attributes and alias (redirect) links, indexed
for the access patterns PivotE needs.
"""

from .builder import GraphBuilder
from .entity import Entity, EntityProfile, build_profile, wikipedia_url
from .graph import KnowledgeGraph, STRUCTURAL_PREDICATES
from .io import load_ntriples, save_ntriples
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
from .topology import (
    GraphTopology,
    TraversalCounters,
    graph_topology,
    install_topology,
    topology_counters,
    traversal_stats,
)
from .statistics import (
    GraphStatistics,
    TypeCoupling,
    compute_statistics,
    type_couplings,
    type_distribution_of_neighbours,
)
from .triple import Literal, Triple, make_triple

__all__ = [
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
    "RDF_TYPE",
    "RDFS_LABEL",
    "REDIRECT",
    "STRUCTURAL_PREDICATES",
    "Triple",
    "TraversalCounters",
    "TypeCoupling",
    "build_profile",
    "compute_statistics",
    "graph_topology",
    "install_topology",
    "label_from_identifier",
    "load_ntriples",
    "make_triple",
    "save_ntriples",
    "topology_counters",
    "traversal_stats",
    "type_couplings",
    "type_distribution_of_neighbours",
    "wikipedia_url",
]

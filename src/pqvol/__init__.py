"""Normalized volumes of adjacency polytopes of ordered pairs.

The volume of the polytope conv{(e_i, e_j) : i = j or ij an edge}
equals, for connected graphs, the number of draconian sequences of
the bipartite double.  This package enumerates those sequences,
evaluates the known closed forms for several graph families, builds
the exception sets that explain edge deletions, measures the triangle
tripling recurrence, and cross-checks everything against a geometric
lattice-point oracle.
"""

from .combinat import SequenceSet, weak_compositions
from .draconian import (
    VolumeReport,
    count_draconian,
    enumerate_draconian,
    is_draconian_flow,
    is_draconian_subset,
)
from .ehrhart import EhrhartTable, affine_dimension, ehrhart_nvol, is_in_dilate, polytope_vertices
from .formulas import (
    PathDeletionReadings,
    nvol_complete,
    nvol_cycle_deleted,
    nvol_matching_triangles,
    nvol_path_deleted,
)
from .graphs import (
    BipartiteDouble,
    Graph,
    GraphFormatError,
    complete_graph,
    connected_components,
    cycle_vertices,
    delete_cycle,
    delete_path,
    doubling,
    load_graph,
    matching_triangles,
    parse_graph,
    relabel,
    triangle_extend,
)
from .lost_sequences import (
    IdentityReport,
    cycle_heavy_exceptions,
    cycle_split_exceptions,
    cycle_triple_exceptions,
    path_heavy_exceptions,
    path_split_exceptions,
    verify_cycle_identity,
    verify_path_identity,
)
from .tripling import (
    PartitionReport,
    lift_bump,
    lift_one,
    lift_resolve,
    recurrence_hypotheses,
    search_triple_recurrence,
    verify_partition,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteDouble",
    "EhrhartTable",
    "Graph",
    "GraphFormatError",
    "IdentityReport",
    "PartitionReport",
    "PathDeletionReadings",
    "SequenceSet",
    "VolumeReport",
    "affine_dimension",
    "complete_graph",
    "connected_components",
    "count_draconian",
    "cycle_heavy_exceptions",
    "cycle_split_exceptions",
    "cycle_triple_exceptions",
    "cycle_vertices",
    "delete_cycle",
    "delete_path",
    "doubling",
    "ehrhart_nvol",
    "enumerate_draconian",
    "is_draconian_flow",
    "is_draconian_subset",
    "is_in_dilate",
    "lift_bump",
    "lift_one",
    "lift_resolve",
    "load_graph",
    "matching_triangles",
    "nvol_complete",
    "nvol_cycle_deleted",
    "nvol_matching_triangles",
    "nvol_path_deleted",
    "parse_graph",
    "path_heavy_exceptions",
    "path_split_exceptions",
    "polytope_vertices",
    "recurrence_hypotheses",
    "relabel",
    "search_triple_recurrence",
    "triangle_extend",
    "verify_cycle_identity",
    "verify_partition",
    "verify_path_identity",
    "weak_compositions",
]

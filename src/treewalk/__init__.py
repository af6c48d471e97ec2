"""Spanning-tree reconfiguration under leaf moves in 2-connected graphs.

Constructive walks of at most 2n(n-1) moves between any two rooted spanning
trees, a graph family showing quadratic length is unavoidable, and exhaustive
oracles (enumeration, exact counting, BFS distances) to certify both.
"""

from .connectivity import (
    NotBiconnectedError,
    STNumbering,
    is_biconnected,
    st_numbering,
    validate_st_numbering,
)
from .experiment import ExperimentRow, experiment_table
from .generators import random_biconnected_graph, random_spanning_tree
from .graph import (
    Graph,
    GraphFormatError,
    LeafMove,
    RootedSpanningTree,
    format_graph,
    format_tree,
    parse_graph,
    parse_tree,
    spanning_tree_violation,
    tree_from_edges,
    trees_adjacent,
    trees_adjacent_via_move,
)
from .lowerbound import LowerBoundInstance, lower_bound_value, make_gk
from .oracle import (
    DEFAULT_CAP,
    CapExceededError,
    TreeGraphDisconnectedError,
    WalkAnalysis,
    count_spanning_trees_kirchhoff,
    enumerate_spanning_trees,
    removal_times,
    shortest_tree_path,
    tree_distance,
    tree_graph_diameter,
)
from .partition import partition2, partition2_with_strategy, validate_partition2
from .walk import (
    LeafClaimError,
    WalkReport,
    WalkSequence,
    canonical_tree,
    format_walk_moves,
    format_walk_trees,
    parse_walk_moves,
    verify_walk,
    walk,
    walk_from_canonical,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "DEFAULT_CAP",
    "ExperimentRow",
    "Graph",
    "GraphFormatError",
    "LeafClaimError",
    "LeafMove",
    "LowerBoundInstance",
    "NotBiconnectedError",
    "RootedSpanningTree",
    "STNumbering",
    "TreeGraphDisconnectedError",
    "WalkAnalysis",
    "WalkReport",
    "WalkSequence",
    "canonical_tree",
    "count_spanning_trees_kirchhoff",
    "enumerate_spanning_trees",
    "experiment_table",
    "format_graph",
    "format_tree",
    "format_walk_moves",
    "format_walk_trees",
    "is_biconnected",
    "lower_bound_value",
    "make_gk",
    "parse_graph",
    "parse_tree",
    "parse_walk_moves",
    "partition2",
    "partition2_with_strategy",
    "random_biconnected_graph",
    "random_spanning_tree",
    "removal_times",
    "shortest_tree_path",
    "spanning_tree_violation",
    "st_numbering",
    "tree_distance",
    "tree_from_edges",
    "tree_graph_diameter",
    "trees_adjacent",
    "trees_adjacent_via_move",
    "validate_partition2",
    "validate_st_numbering",
    "verify_walk",
    "walk",
    "walk_from_canonical",
]

"""Planar-graph separator toolkit.

Rotation-system planar graphs, tree/cotree duality, a deterministic
fundamental-cycle separator (sequential reference engine and a faithful
synchronous message-passing implementation with round accounting), plus
generators, oracles and verifiers.
"""

from .embedding import (
    Dart,
    DartTable,
    DualEdge,
    DualGraph,
    EmbeddedPlanarGraph,
    Face,
    build_dual,
    build_embedding,
    validate_embedding,
)
from .biconnect import articulation_count, biconnect
from .graphio import parse_graph, write_graph
from .treecotree import (
    SpanningTree,
    TreeCotreePair,
    bfs_tree,
    cotree,
    dual_subtree_sums,
    fundamental_cut,
    fundamental_cycle,
    interior_faces,
    subtree_sums,
    tree_from_edges,
)
from .weights import FaceWeighting, check_proper, transfer_weights
from .separator import (
    NodeVerdict,
    SeparatorResult,
    compute_separator,
    find_balanced_or_critical,
    sep_records,
    separator_from_balanced,
    separator_from_critical,
    serialize_separator,
)
from .verify import BalanceReport, verify_separator
from .oracles import (
    brute_force_articulation_points,
    enclosed_faces,
    oracle_all_fundamental_cycles,
)
from .congest import (
    PartAggregator,
    Partition,
    PhaseTrace,
    RoundTrace,
    Simulator,
    VertexProgram,
    broadcast_root,
    default_bit_budget,
    pa_aggregate,
)
from .dist import (
    DistSeparatorOutput,
    dist_bfs,
    dist_compute_separator,
    dist_multi,
)

__all__ = [name for name in dir() if not name.startswith("_")]

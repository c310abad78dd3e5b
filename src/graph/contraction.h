// Graph contraction: relabel edge endpoints through a vertex -> cluster
// mapping, drop intra-cluster edges, and compact cluster ids. Used by the
// AMPC MSF contraction step (paper Algorithm 1, line 14) and the MPC
// Borůvka baseline (Section 5.5).
#pragma once

#include <vector>

#include "graph/graph.h"

namespace ampc::graph {

/// Result of contracting a weighted edge list.
struct ContractedGraph {
  /// Surviving inter-cluster edges with compacted endpoints; edge ids and
  /// weights are preserved from the input.
  WeightedEdgeList list;
  /// Maps each original vertex to its compacted cluster id, or
  /// kInvalidNode for vertices whose cluster became isolated (no
  /// surviving incident edge) — such clusters are removed, matching
  /// "with isolated vertices removed" in Algorithm 1.
  std::vector<NodeId> compact_of_vertex;
  /// For each compacted cluster, a representative original vertex.
  std::vector<NodeId> representative;
};

/// Contracts `list` according to `cluster_of` (vertex -> cluster root, a
/// vertex id below list.num_nodes; the mapping need not be compact).
/// Compacted ids follow the order in which clusters first appear on a
/// surviving edge. Parallel edges are kept (the MSF algorithms tolerate
/// them); self-loops are removed.
ContractedGraph ContractEdgeList(const WeightedEdgeList& list,
                                 const std::vector<NodeId>& cluster_of);

}  // namespace ampc::graph

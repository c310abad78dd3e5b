#include "graph/contraction.h"

#include "common/logging.h"

namespace ampc::graph {

ContractedGraph ContractEdgeList(const WeightedEdgeList& list,
                                 const std::vector<NodeId>& cluster_of) {
  const int64_t n = list.num_nodes;
  AMPC_CHECK_EQ(static_cast<int64_t>(cluster_of.size()), n);
  for (NodeId root : cluster_of) AMPC_CHECK_LT(root, n);
  ContractedGraph out;

  // compact[root]: compacted id of a cluster root that appears on at
  // least one surviving edge, numbered in order of first appearance.
  std::vector<NodeId> compact(n, kInvalidNode);
  auto compact_id = [&](NodeId root) {
    if (compact[root] == kInvalidNode) {
      compact[root] = static_cast<NodeId>(out.representative.size());
      out.representative.push_back(root);
    }
    return compact[root];
  };

  for (const WeightedEdge& e : list.edges) {
    const NodeId ru = cluster_of[e.u];
    const NodeId rv = cluster_of[e.v];
    if (ru == rv) continue;
    out.list.edges.push_back(
        WeightedEdge{compact_id(ru), compact_id(rv), e.w, e.id});
  }
  out.list.num_nodes = static_cast<int64_t>(out.representative.size());

  out.compact_of_vertex.resize(n);
  for (int64_t v = 0; v < n; ++v) {
    out.compact_of_vertex[v] = compact[cluster_of[v]];
  }
  return out;
}

}  // namespace ampc::graph

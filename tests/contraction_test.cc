#include "graph/contraction.h"

#include <gtest/gtest.h>

namespace ampc::graph {
namespace {

WeightedEdgeList PathFour() {
  WeightedEdgeList list;
  list.num_nodes = 4;
  list.edges = {{0, 1, 1.0, 0}, {1, 2, 2.0, 1}, {2, 3, 3.0, 2}};
  return list;
}

TEST(ContractionTest, IdentityMappingDropsNothing) {
  WeightedEdgeList list = PathFour();
  std::vector<NodeId> cluster_of = {0, 1, 2, 3};
  ContractedGraph c = ContractEdgeList(list, cluster_of);
  EXPECT_EQ(c.list.num_nodes, 4);
  EXPECT_EQ(c.list.edges.size(), 3u);
}

TEST(ContractionTest, MergingEndpointsRemovesSelfLoops) {
  WeightedEdgeList list = PathFour();
  std::vector<NodeId> cluster_of = {0, 0, 2, 2};  // {0,1} and {2,3}
  ContractedGraph c = ContractEdgeList(list, cluster_of);
  EXPECT_EQ(c.list.num_nodes, 2);
  ASSERT_EQ(c.list.edges.size(), 1u);
  EXPECT_EQ(c.list.edges[0].id, 1u);  // the 1-2 edge survives
  EXPECT_EQ(c.list.edges[0].w, 2.0);
}

TEST(ContractionTest, IsolatedClustersRemoved) {
  WeightedEdgeList list;
  list.num_nodes = 4;
  list.edges = {{0, 1, 1.0, 0}};  // 2 and 3 isolated
  std::vector<NodeId> cluster_of = {0, 1, 2, 3};
  ContractedGraph c = ContractEdgeList(list, cluster_of);
  EXPECT_EQ(c.list.num_nodes, 2);
  EXPECT_EQ(c.compact_of_vertex[2], kInvalidNode);
  EXPECT_EQ(c.compact_of_vertex[3], kInvalidNode);
  EXPECT_NE(c.compact_of_vertex[0], kInvalidNode);
}

TEST(ContractionTest, RepresentativeTracksClusterRoot) {
  WeightedEdgeList list = PathFour();
  std::vector<NodeId> cluster_of = {3, 3, 2, 3};  // cluster roots 3 and 2
  ContractedGraph c = ContractEdgeList(list, cluster_of);
  EXPECT_EQ(c.list.num_nodes, 2);
  // Every compacted id maps back to its root.
  for (int64_t v = 0; v < 4; ++v) {
    const NodeId compact = c.compact_of_vertex[v];
    ASSERT_NE(compact, kInvalidNode);
    EXPECT_EQ(c.representative[compact], cluster_of[v]);
  }
}

TEST(ContractionTest, CompactIdsFollowFirstAppearance) {
  WeightedEdgeList list;
  list.num_nodes = 6;
  list.edges = {
      {4, 5, 1.0, 0}, {0, 1, 2.0, 1}, {2, 5, 3.0, 2}, {3, 2, 4.0, 3}};
  std::vector<NodeId> cluster_of = {0, 0, 5, 3, 4, 5};
  ContractedGraph c = ContractEdgeList(list, cluster_of);
  // Roots get ids in order of first appearance on a surviving edge:
  // 4, 5, 3. Root 0's only edge is intra-cluster, so it is dropped.
  EXPECT_EQ(c.representative, (std::vector<NodeId>{4, 5, 3}));
  EXPECT_EQ(c.compact_of_vertex,
            (std::vector<NodeId>{kInvalidNode, kInvalidNode, 1, 2, 0, 1}));
  ASSERT_EQ(c.list.edges.size(), 2u);
  EXPECT_EQ(c.list.edges[0], (WeightedEdge{0, 1, 1.0, 0}));
  EXPECT_EQ(c.list.edges[1], (WeightedEdge{2, 1, 4.0, 3}));
}

TEST(ContractionTest, ParallelEdgesKept) {
  WeightedEdgeList list;
  list.num_nodes = 4;
  list.edges = {{0, 2, 1.0, 0}, {1, 3, 2.0, 1}};
  std::vector<NodeId> cluster_of = {0, 0, 2, 2};
  ContractedGraph c = ContractEdgeList(list, cluster_of);
  EXPECT_EQ(c.list.num_nodes, 2);
  EXPECT_EQ(c.list.edges.size(), 2u);  // both cross edges survive
}

TEST(ContractionTest, EndpointsRelabeledConsistently) {
  WeightedEdgeList list = PathFour();
  std::vector<NodeId> mapping = {0, 0, 3, 3};
  ContractedGraph c = ContractEdgeList(list, mapping);
  ASSERT_EQ(c.list.edges.size(), 1u);
  const WeightedEdge& e = c.list.edges[0];
  EXPECT_NE(e.u, e.v);
  EXPECT_LT(e.u, 2u);
  EXPECT_LT(e.v, 2u);
}

}  // namespace
}  // namespace ampc::graph

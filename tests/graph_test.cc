#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/random.h"

namespace ampc::graph {
namespace {

EdgeList Triangle() {
  EdgeList list;
  list.num_nodes = 3;
  list.edges = {{0, 1}, {1, 2}, {2, 0}};
  return list;
}

TEST(GraphTest, TriangleBasics) {
  Graph g = BuildGraph(Triangle());
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_arcs(), 6);
  EXPECT_EQ(g.num_undirected_edges(), 3);
  EXPECT_EQ(g.max_degree(), 2);
  for (NodeId v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2);
}

TEST(GraphTest, AdjacencySortedByNeighborId) {
  EdgeList list;
  list.num_nodes = 5;
  list.edges = {{0, 4}, {0, 2}, {0, 1}, {0, 3}};
  Graph g = BuildGraph(list);
  auto nbrs = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 4u);
}

TEST(GraphTest, SelfLoopsRemovedByDefault) {
  EdgeList list;
  list.num_nodes = 2;
  list.edges = {{0, 0}, {0, 1}, {1, 1}};
  Graph g = BuildGraph(list);
  EXPECT_EQ(g.num_arcs(), 2);
  EXPECT_EQ(g.degree(0), 1);
}

TEST(GraphTest, ParallelEdgesDeduped) {
  EdgeList list;
  list.num_nodes = 2;
  list.edges = {{0, 1}, {1, 0}, {0, 1}};
  Graph g = BuildGraph(list);
  EXPECT_EQ(g.num_arcs(), 2);
  BuildOptions keep;
  keep.dedup = false;
  Graph multi = BuildGraph(list, keep);
  EXPECT_EQ(multi.num_arcs(), 6);
}

TEST(GraphTest, EmptyGraph) {
  EdgeList list;
  list.num_nodes = 4;
  Graph g = BuildGraph(list);
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.num_arcs(), 0);
  EXPECT_EQ(g.max_degree(), 0);
}

TEST(GraphTest, AdjacencyBytesCountsRecordSize) {
  Graph g = BuildGraph(Triangle());
  EXPECT_EQ(g.AdjacencyBytes(0),
            static_cast<int64_t>(sizeof(NodeId)) * 3);  // key + 2 neighbors
}

TEST(WeightedGraphTest, CarriesWeightsAndIds) {
  WeightedEdgeList list;
  list.num_nodes = 3;
  list.edges = {{0, 1, 5.0, 0}, {1, 2, 3.0, 1}, {2, 0, 4.0, 2}};
  WeightedGraph g = BuildWeightedGraph(list);
  EXPECT_EQ(g.num_arcs(), 6);
  auto nbrs = g.neighbors(1);
  auto ws = g.weights(1);
  auto ids = g.edge_ids(1);
  ASSERT_EQ(nbrs.size(), 2u);
  for (size_t i = 0; i < nbrs.size(); ++i) {
    if (nbrs[i] == 0) {
      EXPECT_EQ(ws[i], 5.0);
      EXPECT_EQ(ids[i], 0u);
    } else {
      EXPECT_EQ(nbrs[i], 2u);
      EXPECT_EQ(ws[i], 3.0);
      EXPECT_EQ(ids[i], 1u);
    }
  }
}

TEST(WeightedGraphTest, DedupKeepsLightestParallelEdge) {
  WeightedEdgeList list;
  list.num_nodes = 2;
  list.edges = {{0, 1, 9.0, 0}, {0, 1, 2.0, 1}, {1, 0, 5.0, 2}};
  WeightedGraph g = BuildWeightedGraph(list);
  EXPECT_EQ(g.num_arcs(), 2);
  EXPECT_EQ(g.weights(0)[0], 2.0);
  EXPECT_EQ(g.edge_ids(0)[0], 1u);
}

TEST(WeightedGraphTest, AdjacencyOrderedByWeight) {
  WeightedEdgeList list;
  list.num_nodes = 4;
  list.edges = {{0, 1, 9.0, 0}, {0, 2, 2.0, 1}, {0, 3, 5.0, 2}};
  WeightedGraph g = BuildWeightedGraph(list);
  auto ws = g.weights(0);
  EXPECT_TRUE(std::is_sorted(ws.begin(), ws.end()));
  EXPECT_EQ(g.neighbors(0)[0], 2u);
}

// Reference CSR with the builders' documented semantics, by the
// simplest means: one global sort of all arcs by (owner, neighbor,
// weight, id), first arc per (owner, neighbor) kept under dedup, then a
// stable re-sort of each adjacency by (weight, id).
struct RefArc {
  NodeId from, to;
  Weight w;
  EdgeId id;
};

std::vector<RefArc> ReferenceArcs(const WeightedEdgeList& list,
                                  const BuildOptions& options) {
  std::vector<RefArc> arcs;
  for (const WeightedEdge& e : list.edges) {
    if (options.remove_self_loops && e.u == e.v) continue;
    arcs.push_back({e.u, e.v, e.w, e.id});
    arcs.push_back({e.v, e.u, e.w, e.id});
  }
  std::stable_sort(arcs.begin(), arcs.end(),
                   [](const RefArc& a, const RefArc& b) {
                     return std::tie(a.from, a.to, a.w, a.id) <
                            std::tie(b.from, b.to, b.w, b.id);
                   });
  if (options.dedup) {
    arcs.erase(std::unique(arcs.begin(), arcs.end(),
                           [](const RefArc& a, const RefArc& b) {
                             return a.from == b.from && a.to == b.to;
                           }),
               arcs.end());
  }
  std::stable_sort(arcs.begin(), arcs.end(),
                   [](const RefArc& a, const RefArc& b) {
                     return std::tie(a.from, a.w, a.id) <
                            std::tie(b.from, b.w, b.id);
                   });
  return arcs;
}

// Asserts that both builders agree with the reference on `list`.
void ExpectBuildersMatchReference(const WeightedEdgeList& list,
                                  const BuildOptions& options) {
  const std::vector<RefArc> ref = ReferenceArcs(list, options);
  const WeightedGraph wg = BuildWeightedGraph(list, options);
  ASSERT_EQ(wg.num_nodes(), list.num_nodes);
  ASSERT_EQ(wg.num_arcs(), static_cast<int64_t>(ref.size()));
  size_t i = 0;
  for (NodeId v = 0; v < list.num_nodes; ++v) {
    for (int64_t k = 0; k < wg.degree(v); ++k, ++i) {
      ASSERT_EQ(ref[i].from, v) << "arc " << i;
      EXPECT_EQ(wg.neighbors(v)[k], ref[i].to) << "arc " << i;
      EXPECT_EQ(wg.weights(v)[k], ref[i].w) << "arc " << i;
      EXPECT_EQ(wg.edge_ids(v)[k], ref[i].id) << "arc " << i;
    }
  }

  // Unweighted: the same arc set, each adjacency sorted by neighbor id.
  std::vector<RefArc> by_neighbor = ref;
  std::sort(by_neighbor.begin(), by_neighbor.end(),
            [](const RefArc& a, const RefArc& b) {
              return std::tie(a.from, a.to) < std::tie(b.from, b.to);
            });
  const Graph g = BuildGraph(StripWeights(list), options);
  ASSERT_EQ(g.num_nodes(), list.num_nodes);
  ASSERT_EQ(g.num_arcs(), static_cast<int64_t>(by_neighbor.size()));
  i = 0;
  for (NodeId v = 0; v < list.num_nodes; ++v) {
    for (NodeId to : g.neighbors(v)) {
      ASSERT_EQ(by_neighbor[i].from, v) << "arc " << i;
      EXPECT_EQ(to, by_neighbor[i].to) << "arc " << i;
      ++i;
    }
  }
}

// A multigraph with duplicate edges (both orientations), self-loops,
// few distinct weights and some reused edge ids, so dedup, weight ties
// and full (weight, id) ties between different neighbors all occur.
WeightedEdgeList RandomMultigraph(int64_t n, int64_t m, uint64_t seed) {
  Rng rng(seed);
  WeightedEdgeList list;
  list.num_nodes = n;
  for (int64_t i = 0; i < m; ++i) {
    const NodeId u = static_cast<NodeId>(rng.NextBelow(n));
    NodeId v = static_cast<NodeId>(rng.NextBelow(n));
    if (rng.NextBelow(10) == 0) v = u;
    const Weight w = static_cast<Weight>(rng.NextBelow(4));
    const uint64_t id = rng.NextBelow(4) == 0 ? rng.NextBelow(i + 1) : i;
    list.edges.push_back({u, v, w, static_cast<EdgeId>(id)});
    if (rng.NextBelow(4) == 0) {
      list.edges.push_back({v, u, static_cast<Weight>(rng.NextBelow(4)),
                            static_cast<EdgeId>(i + m)});
    }
  }
  return list;
}

std::vector<BuildOptions> AllBuildOptions() {
  std::vector<BuildOptions> all;
  for (bool loops : {false, true}) {
    for (bool dedup : {false, true}) {
      BuildOptions o;
      o.remove_self_loops = loops;
      o.dedup = dedup;
      all.push_back(o);
    }
  }
  return all;
}

TEST(BuilderDifferentialTest, RandomMultigraphsMatchReference) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    // Small n forces many parallel edges; large m spans several slices.
    const int64_t n = seed % 3 == 0 ? 8 : 500;
    const WeightedEdgeList list = RandomMultigraph(n, 20000, seed);
    for (const BuildOptions& o : AllBuildOptions()) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " loops " << o.remove_self_loops
                   << " dedup " << o.dedup);
      ExpectBuildersMatchReference(list, o);
    }
  }
}

TEST(BuilderDifferentialTest, StarMatchesReference) {
  // One hub slice holding most arcs, with repeated leaves and weights.
  WeightedEdgeList list;
  list.num_nodes = 1 << 12;
  Rng rng(99);
  for (EdgeId i = 0; i < 3 * (1u << 12); ++i) {
    const NodeId leaf = 1 + static_cast<NodeId>(rng.NextBelow((1 << 12) - 1));
    list.edges.push_back({0, leaf, static_cast<Weight>(rng.NextBelow(8)), i});
  }
  for (const BuildOptions& o : AllBuildOptions()) {
    ExpectBuildersMatchReference(list, o);
  }
}

TEST(WeightedGraphTest, MinWeight) {
  WeightedEdgeList list;
  list.num_nodes = 3;
  list.edges = {{0, 1, 5.0, 0}, {1, 2, -3.0, 1}};
  WeightedGraph g = BuildWeightedGraph(list);
  EXPECT_EQ(g.MinWeight(), -3.0);
}

TEST(WeightingTest, DegreeWeights) {
  EdgeList list;
  list.num_nodes = 4;
  list.edges = {{0, 1}, {0, 2}, {0, 3}};  // star: deg(0)=3, leaves 1
  Graph g = BuildGraph(list);
  WeightedEdgeList w = MakeDegreeWeighted(list, g);
  ASSERT_EQ(w.edges.size(), 3u);
  for (const WeightedEdge& e : w.edges) EXPECT_EQ(e.w, 4.0);
  EXPECT_EQ(w.edges[2].id, 2u);
}

TEST(WeightingTest, RandomWeightsDeterministicAndSymmetric) {
  EdgeList list;
  list.num_nodes = 3;
  list.edges = {{0, 1}, {1, 2}};
  WeightedEdgeList a = MakeRandomWeighted(list, 7);
  WeightedEdgeList b = MakeRandomWeighted(list, 7);
  WeightedEdgeList c = MakeRandomWeighted(list, 8);
  EXPECT_EQ(a.edges[0].w, b.edges[0].w);
  EXPECT_NE(a.edges[0].w, c.edges[0].w);
  for (const WeightedEdge& e : a.edges) {
    EXPECT_GE(e.w, 0.0);
    EXPECT_LT(e.w, 1.0);
  }
}

TEST(WeightingTest, UnitAndStripRoundTrip) {
  EdgeList list;
  list.num_nodes = 3;
  list.edges = {{0, 1}, {1, 2}};
  WeightedEdgeList w = MakeUnitWeighted(list);
  for (const WeightedEdge& e : w.edges) EXPECT_EQ(e.w, 1.0);
  EdgeList back = StripWeights(w);
  EXPECT_EQ(back.num_nodes, list.num_nodes);
  ASSERT_EQ(back.edges.size(), list.edges.size());
  for (size_t i = 0; i < back.edges.size(); ++i) {
    EXPECT_EQ(back.edges[i], list.edges[i]);
  }
}

}  // namespace
}  // namespace ampc::graph

#include "graph/graph.h"

#include <algorithm>
#include <tuple>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/thread_pool.h"

namespace ampc::graph {
namespace {

std::vector<uint64_t> ExclusiveScan(const std::vector<uint64_t>& deg) {
  std::vector<uint64_t> offsets(deg.size() + 1, 0);
  for (size_t i = 0; i < deg.size(); ++i) offsets[i + 1] = offsets[i] + deg[i];
  return offsets;
}

// Counting scatter by owner: fills `arcs` so that slice
// [offsets[v], offsets[v + 1]) holds make(e, other endpoint) for every
// edge e incident to v, in edge-list order, and returns the offsets.
template <typename E, typename Arc, typename MakeArc>
std::vector<uint64_t> ScatterByOwner(int64_t n, const std::vector<E>& edges,
                                     bool remove_self_loops,
                                     std::vector<Arc>& arcs, MakeArc make) {
  std::vector<uint64_t> deg(n, 0);
  for (const E& e : edges) {
    AMPC_CHECK_LT(e.u, n);
    AMPC_CHECK_LT(e.v, n);
    if (remove_self_loops && e.u == e.v) continue;
    ++deg[e.u];
    ++deg[e.v];
  }
  std::vector<uint64_t> offsets = ExclusiveScan(deg);
  std::vector<uint64_t>& cursor = deg;
  std::copy(offsets.begin(), offsets.end() - 1, cursor.begin());
  arcs.resize(offsets.back());
  for (const E& e : edges) {
    if (remove_self_loops && e.u == e.v) continue;
    arcs[cursor[e.u]++] = make(e, e.v);
    arcs[cursor[e.v]++] = make(e, e.u);
  }
  return offsets;
}

// Runs fn(v) for every vertex v, in parallel over vertex ranges of about
// equal arc counts, so a skewed degree distribution still spreads its
// slices across the pool. A single hub's slice stays on one thread.
template <typename Fn>
void ForEachSlice(const std::vector<uint64_t>& offsets, Fn fn) {
  constexpr uint64_t kArcGrain = 1 << 14;
  ThreadPool& pool = ThreadPool::Global();
  const int64_t n = static_cast<int64_t>(offsets.size()) - 1;
  const int64_t parts = std::clamp<int64_t>(
      static_cast<int64_t>(offsets.back() / kArcGrain), 1,
      DefaultChunksForPool(pool));
  std::vector<IndexChunk> chunks;
  int64_t lo = 0;
  for (int64_t c = 1; c <= parts; ++c) {
    const uint64_t target = offsets.back() * c / parts;
    const int64_t hi =
        c == parts ? n
                   : std::lower_bound(offsets.begin() + lo,
                                      offsets.end() - 1, target) -
                         offsets.begin();
    if (hi > lo) chunks.push_back({lo, hi});
    lo = hi;
  }
  ParallelForEachChunk(pool, chunks, [&](int64_t c) {
    for (int64_t v = chunks[c].begin; v < chunks[c].end; ++v) fn(v);
  });
}

}  // namespace

int64_t Graph::max_degree() const {
  int64_t best = 0;
  for (int64_t v = 0; v < num_nodes(); ++v) {
    best = std::max(best, degree(static_cast<NodeId>(v)));
  }
  return best;
}

int64_t WeightedGraph::max_degree() const {
  int64_t best = 0;
  for (int64_t v = 0; v < num_nodes(); ++v) {
    best = std::max(best, degree(static_cast<NodeId>(v)));
  }
  return best;
}

Graph BuildGraph(const EdgeList& list, const BuildOptions& options) {
  const int64_t n = list.num_nodes;
  std::vector<NodeId> arcs;
  const std::vector<uint64_t> slices =
      ScatterByOwner(n, list.edges, options.remove_self_loops, arcs,
                     [](const Edge&, NodeId to) { return to; });
  std::vector<uint64_t> kept(n);
  ForEachSlice(slices, [&](int64_t v) {
    auto begin = arcs.begin() + slices[v];
    auto end = arcs.begin() + slices[v + 1];
    std::sort(begin, end);
    if (options.dedup) end = std::unique(begin, end);
    kept[v] = end - begin;
  });

  Graph g;
  g.offsets_ = ExclusiveScan(kept);
  if (g.offsets_.back() == arcs.size()) {
    g.adjacency_ = std::move(arcs);  // nothing dropped: already packed
    return g;
  }
  g.adjacency_.resize(g.offsets_.back());
  ForEachSlice(slices, [&](int64_t v) {
    std::copy_n(arcs.begin() + slices[v], kept[v],
                g.adjacency_.begin() + g.offsets_[v]);
  });
  return g;
}

WeightedGraph BuildWeightedGraph(const WeightedEdgeList& list,
                                 const BuildOptions& options) {
  const int64_t n = list.num_nodes;
  struct Arc {
    Weight w;
    EdgeId id;
    NodeId to;
  };
  std::vector<Arc> arcs;
  const std::vector<uint64_t> slices = ScatterByOwner(
      n, list.edges, options.remove_self_loops, arcs,
      [](const WeightedEdge& e, NodeId to) { return Arc{e.w, e.id, to}; });
  std::vector<uint64_t> kept(n);
  ForEachSlice(slices, [&](int64_t v) {
    auto begin = arcs.begin() + slices[v];
    auto end = arcs.begin() + slices[v + 1];
    if (options.dedup) {
      // The lightest (w, id) arc to each neighbor survives.
      std::sort(begin, end, [](const Arc& a, const Arc& b) {
        return std::tie(a.to, a.w, a.id) < std::tie(b.to, b.w, b.id);
      });
      end = std::unique(begin, end, [](const Arc& a, const Arc& b) {
        return a.to == b.to;
      });
    }
    std::sort(begin, end, [](const Arc& a, const Arc& b) {
      return std::tie(a.w, a.id, a.to) < std::tie(b.w, b.id, b.to);
    });
    kept[v] = end - begin;
  });

  WeightedGraph g;
  g.offsets_ = ExclusiveScan(kept);
  g.adjacency_.resize(g.offsets_.back());
  g.weights_.resize(g.offsets_.back());
  g.edge_ids_.resize(g.offsets_.back());
  ForEachSlice(slices, [&](int64_t v) {
    for (uint64_t i = 0; i < kept[v]; ++i) {
      const Arc& a = arcs[slices[v] + i];
      const uint64_t out = g.offsets_[v] + i;
      g.adjacency_[out] = a.to;
      g.weights_[out] = a.w;
      g.edge_ids_[out] = a.id;
    }
  });
  return g;
}

Weight WeightedGraph::MinWeight() const {
  Weight best = 0;
  bool any = false;
  for (size_t i = 0; i < weights_.size(); ++i) {
    if (!any || weights_[i] < best) {
      best = weights_[i];
      any = true;
    }
  }
  return best;
}

WeightedEdgeList MakeDegreeWeighted(const EdgeList& list, const Graph& g) {
  WeightedEdgeList out;
  out.num_nodes = list.num_nodes;
  out.edges.reserve(list.edges.size());
  for (size_t i = 0; i < list.edges.size(); ++i) {
    const Edge& e = list.edges[i];
    out.edges.push_back(WeightedEdge{
        e.u, e.v, static_cast<Weight>(g.degree(e.u) + g.degree(e.v)),
        static_cast<EdgeId>(i)});
  }
  return out;
}

WeightedEdgeList MakeRandomWeighted(const EdgeList& list, uint64_t seed) {
  WeightedEdgeList out;
  out.num_nodes = list.num_nodes;
  out.edges.reserve(list.edges.size());
  for (size_t i = 0; i < list.edges.size(); ++i) {
    const Edge& e = list.edges[i];
    out.edges.push_back(WeightedEdge{
        e.u, e.v, ToUnitDouble(HashEdge(e.u, e.v, seed)),
        static_cast<EdgeId>(i)});
  }
  return out;
}

WeightedEdgeList MakeUnitWeighted(const EdgeList& list) {
  WeightedEdgeList out;
  out.num_nodes = list.num_nodes;
  out.edges.reserve(list.edges.size());
  for (size_t i = 0; i < list.edges.size(); ++i) {
    const Edge& e = list.edges[i];
    out.edges.push_back(WeightedEdge{e.u, e.v, 1.0, static_cast<EdgeId>(i)});
  }
  return out;
}

EdgeList StripWeights(const WeightedEdgeList& list) {
  EdgeList out;
  out.num_nodes = list.num_nodes;
  out.edges.reserve(list.edges.size());
  for (const WeightedEdge& e : list.edges) out.edges.push_back(Edge{e.u, e.v});
  return out;
}

}  // namespace ampc::graph

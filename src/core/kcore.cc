#include "core/kcore.h"

#include <algorithm>
#include <bit>
#include <deque>
#include <memory>
#include <numeric>
#include <span>

#include "common/bitmap.h"
#include "common/frontier.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "kv/placement.h"
#include "kv/sharded_store.h"

namespace ampc::core {
namespace {

using graph::NodeId;

using AdjStore = kv::ShardedStore<std::vector<NodeId>>;
using ValueStore = kv::ShardedStore<int32_t>;

// The h-index of the `d` values value_at(0..d-1) by one counting pass:
// bucket each value clamped to [0, d] (an h-index never exceeds d),
// then scan the buckets from the top — the first h whose running count
// of values >= h reaches h is the answer. `counts` is reused scratch.
template <typename ValueAt>
int32_t CountingHIndex(size_t d, ValueAt&& value_at,
                       std::vector<int32_t>& counts) {
  counts.assign(d + 1, 0);
  for (size_t i = 0; i < d; ++i) {
    const int32_t value = value_at(i);
    ++counts[value <= 0 ? 0 : std::min(static_cast<size_t>(value), d)];
  }
  int32_t at_least = 0;
  for (size_t h = d; h > 0; --h) {
    at_least += counts[h];
    if (at_least >= static_cast<int32_t>(h)) return static_cast<int32_t>(h);
  }
  return 0;
}

/// One worker slice of an h-index round in the sparse (push)
/// representation: the manual ticket pipeline over per-vertex neighbor
/// windows. Each vertex's h-index recomputation is one adaptive step
/// needing every neighbor's published value. The reads are independent
/// across the worker's vertices, so the worker pipelines them: each
/// vertex's neighbor list ships as sub-batch windows (one
/// LookupManyAsync ticket each, at most max_batch_keys keys), with up
/// to pipeline_depth tickets — usually spanning several vertices — in
/// flight at once so their round trips overlap. High-degree neighbors
/// are shared by many vertices of a machine, so their published values
/// are served from the query cache after the first fetch each round
/// (the fresh per-round store resets the cache). `on_result(item, h)`
/// receives each settled vertex's new h-index.
template <typename OnResult>
void HIndexSparseSlice(std::span<const int64_t> items,
                       sim::MachineContext& ctx, const AdjStore& adjacency,
                       const ValueStore& values, OnResult&& on_result) {
  struct Pending {
    kv::LookupTicket<int32_t> ticket;
    int64_t item;
    bool last_window;  // the final window of the item's list
  };
  const size_t depth = static_cast<size_t>(ctx.pipeline_depth());
  const int64_t max_keys = ctx.max_batch_keys();
  std::deque<Pending> inflight;
  // Neighbor values of the item currently settling. Tickets settle
  // FIFO and an item's windows are issued contiguously, so the
  // accumulator only ever holds one item's values.
  std::vector<int32_t> neighbor_values;
  std::vector<int32_t> counts;
  auto settle_oldest = [&] {
    Pending pending = std::move(inflight.front());
    inflight.pop_front();
    const kv::LookupBatchResult<int32_t> batch = ctx.Await(pending.ticket);
    for (const int32_t* value : batch.values) {
      neighbor_values.push_back(value == nullptr ? 0 : *value);
    }
    if (pending.last_window) {
      on_result(pending.item, HIndex(neighbor_values, counts));
      neighbor_values.clear();
    }
  };
  std::vector<uint64_t> keys;
  for (const int64_t item : items) {
    const NodeId v = static_cast<NodeId>(item);
    const std::vector<NodeId>* adj = ctx.LookupLocal(adjacency, v);
    const size_t degree = adj->size();
    const size_t window = max_keys > 0 ? static_cast<size_t>(max_keys)
                                       : std::max<size_t>(1, degree);
    // An isolated vertex still issues one (empty) window so its
    // h-index of zero settles through the same path.
    size_t begin = 0;
    do {
      const size_t end = std::min(degree, begin + window);
      keys.assign(adj->begin() + begin, adj->begin() + end);
      if (inflight.size() == depth) settle_oldest();
      inflight.push_back(Pending{
          ctx.LookupManyAsync(values, std::span<const uint64_t>(keys)),
          item, end >= degree});
      begin = end;
    } while (begin < degree);
  }
  while (!inflight.empty()) settle_oldest();
}

/// The dense (pull) counterpart: inside a RunPullPhase the neighbor
/// values were shipped by the round's bitmap broadcast + aggregate
/// exchange, so each vertex resolves its whole neighbor list as a
/// local sweep (MachineContext::PullMany — bytes, no round trips).
/// The h-index counts straight from the pulled records. Values, and
/// therefore every on_result, are identical to the sparse slice's.
template <typename OnResult>
void HIndexPullSlice(std::span<const int64_t> items,
                     sim::MachineContext& ctx, const AdjStore& adjacency,
                     const ValueStore& values, OnResult&& on_result) {
  std::vector<uint64_t> keys;
  std::vector<int32_t> counts;
  for (const int64_t item : items) {
    const NodeId v = static_cast<NodeId>(item);
    const std::vector<NodeId>* adj = ctx.LookupLocal(adjacency, v);
    keys.assign(adj->begin(), adj->end());
    const kv::LookupBatchResult<int32_t> batch =
        ctx.PullMany(values, std::span<const uint64_t>(keys));
    const auto value_at = [&](size_t i) {
      const int32_t* value = batch.values[i];
      return value == nullptr ? 0 : *value;
    };
    on_result(item, CountingHIndex(batch.values.size(), value_at, counts));
  }
}

}  // namespace

int32_t HIndex(std::span<const int32_t> values,
               std::vector<int32_t>& counts) {
  return CountingHIndex(
      values.size(), [&](size_t i) { return values[i]; }, counts);
}

KCoreResult AmpcKCore(sim::Cluster& cluster, const graph::Graph& g,
                      const KCoreOptions& options) {
  const int64_t n = g.num_nodes();

  // Stage the adjacency once: one shuffle plus one cheap KV-write round.
  WallTimer timer;
  int64_t adjacency_bytes = 0;
  for (NodeId v = 0; v < n; ++v) adjacency_bytes += g.AdjacencyBytes(v);
  cluster.AccountShuffle("WriteGraph", adjacency_bytes, timer.Seconds());
  AdjStore adjacency = cluster.MakeStore<std::vector<NodeId>>(n);
  cluster.RunKvWritePhase("KV-Write", adjacency, n, [&](int64_t v) {
    const auto span = g.neighbors(static_cast<NodeId>(v));
    return std::vector<NodeId>(span.begin(), span.end());
  });

  KCoreResult result;
  result.coreness.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    result.coreness[v] = static_cast<int32_t>(g.degree(v));
  }
  if (n == 0) return result;

  // Frontier-engine peeling: only *active* vertices recompute — round
  // 1 everyone, afterwards the vertices with a neighbor whose coreness
  // changed last round. A vertex whose neighborhood did not change
  // recomputes to the same h-index, so skipping it is exact: the
  // per-round changed sets, the iteration count, and the final
  // coreness are those of a synchronous full-sweep h-index iteration.
  // Each round the policy picks the representation from the active
  // set's size and out-edge mass: dense rounds pull (bitmap broadcast
  // + local shard sweep, no per-vertex trips), sparse rounds push the
  // active list through the lookup pipeline. kSparse pins it to push.
  std::vector<int32_t> next(n, 0);
  const sim::ClusterConfig::FrontierConfig& frontier_config =
      cluster.config().frontier;
  FrontierPolicy policy(frontier_config.mode, frontier_config.alpha,
                        frontier_config.beta, n, g.num_arcs());
  std::vector<int64_t> active(n);
  std::iota(active.begin(), active.end(), int64_t{0});
  while (!active.empty()) {
    AMPC_CHECK_LT(result.iterations, options.max_iterations)
        << "h-index iteration did not converge";
    ++result.iterations;

    // Publish the full coreness vector into a fresh per-round store
    // (cheap round): reads must see every neighbor's current value,
    // active or not.
    ValueStore values = cluster.MakeStore<int32_t>(n);
    cluster.RunKvWritePhase("ValueWrite", values, n, [&](int64_t v) {
      return result.coreness[v];
    });

    int64_t frontier_edges = 0;
    for (const int64_t v : active) {
      frontier_edges += g.degree(static_cast<NodeId>(v));
    }
    AtomicBitmap changed(n);
    auto on_result = [&](int64_t item, int32_t h) {
      if (h != result.coreness[item]) {
        next[item] = h;
        changed.Set(item);
      }
    };
    if (cluster.UsePullRound(policy, static_cast<int64_t>(active.size()),
                             frontier_edges)) {
      cluster.RunPullPhase(
          "HIndex", n, active,
          [&](std::span<const int64_t> items, sim::MachineContext& ctx) {
            HIndexPullSlice(items, ctx, adjacency, values, on_result);
          });
    } else {
      cluster.RunBatchMapPhase(
          "HIndex", n, active,
          [&](std::span<const int64_t> items, sim::MachineContext& ctx) {
            HIndexSparseSlice(items, ctx, adjacency, values, on_result);
          });
    }

    // Next frontier: every vertex with at least one changed neighbor.
    // Each changed vertex commits its new coreness and pushes its
    // neighbors into a bitmap; the adjacency is symmetric, so the bits
    // set are exactly the vertices with a changed neighbor, at a cost
    // of the changed vertices' degrees instead of a scan of every
    // adjacency. The bits are then extracted word chunk by word chunk
    // into per-chunk ranges of the list (counted first, so the list is
    // written in place): ascending and schedule-independent.
    AtomicBitmap reached(n);
    const std::vector<IndexChunk> active_chunks =
        SplitIndexChunks(0, static_cast<int64_t>(active.size()), 2048,
                         DefaultChunksForPool(cluster.pool()));
    ParallelForEachChunk(cluster.pool(), active_chunks, [&](int64_t c) {
      for (int64_t i = active_chunks[c].begin; i < active_chunks[c].end;
           ++i) {
        const int64_t v = active[i];
        if (!changed.Test(v)) continue;
        result.coreness[v] = next[v];
        for (const NodeId u : g.neighbors(static_cast<NodeId>(v))) {
          if (!reached.Test(u)) reached.Set(u);
        }
      }
    });
    const std::vector<IndexChunk> word_chunks = SplitIndexChunks(
        0, reached.num_words(), 64, DefaultChunksForPool(cluster.pool()));
    std::vector<int64_t> offsets(word_chunks.size() + 1, 0);
    ParallelForEachChunk(cluster.pool(), word_chunks, [&](int64_t c) {
      int64_t count = 0;
      for (int64_t w = word_chunks[c].begin; w < word_chunks[c].end; ++w) {
        count += std::popcount(reached.Word(w));
      }
      offsets[c + 1] = count;
    });
    for (size_t c = 0; c < word_chunks.size(); ++c) {
      offsets[c + 1] += offsets[c];
    }
    active.resize(static_cast<size_t>(offsets.back()));
    ParallelForEachChunk(cluster.pool(), word_chunks, [&](int64_t c) {
      int64_t out = offsets[c];
      for (int64_t w = word_chunks[c].begin; w < word_chunks[c].end; ++w) {
        for (uint64_t bits = reached.Word(w); bits != 0; bits &= bits - 1) {
          active[out++] = w * 64 + std::countr_zero(bits);
        }
      }
    });
  }
  return result;
}

}  // namespace ampc::core

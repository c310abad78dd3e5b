#include "baselines/mpc_kcore.h"

#include <utility>

#include "common/logging.h"
#include "core/kcore.h"
#include "mpc/dataflow.h"

namespace ampc::baselines {
namespace {

using graph::NodeId;

}  // namespace

MpcKCoreResult MpcKCore(sim::Cluster& cluster, const graph::Graph& g,
                        int max_iterations) {
  const int64_t n = g.num_nodes();
  MpcKCoreResult result;
  result.coreness.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    result.coreness[v] = static_cast<int32_t>(g.degree(v));
  }
  if (n == 0) return result;

  mpc::PCollection<NodeId> vertices(n);
  for (int64_t v = 0; v < n; ++v) vertices[v] = static_cast<NodeId>(v);

  for (;;) {
    AMPC_CHECK_LT(result.iterations, max_iterations)
        << "h-index iteration did not converge";
    ++result.iterations;

    // (1) Every vertex sends its current value to each neighbor.
    mpc::PCollection<mpc::KV<NodeId, int32_t>> messages =
        mpc::ParDo<NodeId, mpc::KV<NodeId, int32_t>>(
            cluster, "EmitValues", vertices,
            [&](NodeId v, auto& emit) {
              const int32_t value = result.coreness[v];
              for (const NodeId u : g.neighbors(v)) emit({u, value});
            });

    // (2) Shuffle messages to their targets (the per-iteration cost the
    // AMPC engine avoids).
    mpc::PCollection<mpc::KV<NodeId, std::vector<int32_t>>> grouped =
        mpc::GroupByKey(cluster, "JoinValues", std::move(messages));

    // (3) Recompute h-indices.
    std::vector<int32_t> next(n, 0);
    int64_t changed = 0;
    std::vector<int32_t> counts;
    for (const auto& [v, values] : grouped) {
      next[v] = core::HIndex(values, counts);
    }
    cluster.AccountMapRound("HIndex");
    for (int64_t v = 0; v < n; ++v) {
      changed += next[v] != result.coreness[v];
    }
    result.coreness.swap(next);
    if (changed == 0) break;
  }
  return result;
}

}  // namespace ampc::baselines

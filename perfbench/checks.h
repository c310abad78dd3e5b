// Output checks of the benchmark: every job's result is compared with
// the sequential oracles in src/seq, and every job's exact cost
// counters with those of the run's first job. A check returns an empty
// string when it passes and the reason otherwise; a Tally counts each
// failing job once, so failures are never dropped.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "graph/graph.h"

namespace perfbench {

/// Empty when `forest` is a spanning forest of `list` whose total
/// weight equals that of `kruskal`, the output of seq::KruskalMsf(list).
/// Both are sorted edge ids; a forest equal to `kruskal` passes at once.
std::string CheckForest(const ampc::graph::WeightedEdgeList& list,
                        const std::vector<ampc::graph::EdgeId>& kruskal,
                        const std::vector<ampc::graph::EdgeId>& forest);

/// Empty when `coreness` equals `reference` (seq::CoreDecomposition).
std::string CheckCoreness(const std::vector<int32_t>& reference,
                          const std::vector<int32_t>& coreness);

/// Empty when `job`'s rounds, shuffles, shuffle_bytes and kv_write_bytes
/// equal `first`'s. These counters are a pure function of (input, seed,
/// config) on any host, so a difference between two jobs of one run is
/// a failure.
std::string CheckExactCounters(const ampc::MetricsSnapshot& first,
                               const ampc::MetricsSnapshot& job);

/// Failed and attempted jobs of one run.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> reasons;

  /// Records one job whose checks returned `reasons` (empty strings
  /// are passes). The job fails if any reason is non-empty.
  void Record(const std::vector<std::string>& job_reasons);
};

}  // namespace perfbench

#include "checks.h"

#include "seq/msf.h"

namespace perfbench {

using ampc::graph::EdgeId;
using ampc::graph::Weight;
using ampc::graph::WeightedEdgeList;

std::string CheckForest(const WeightedEdgeList& list,
                        const std::vector<EdgeId>& kruskal,
                        const std::vector<EdgeId>& forest) {
  if (forest == kruskal) return "";
  // Also rejects ids the input does not hold, before TotalWeight sees them.
  if (!ampc::seq::IsSpanningForest(list, forest)) {
    return "output is not a spanning forest";
  }
  // Degree weights are small integers, so both sums are exact.
  const Weight weight = ampc::seq::TotalWeight(list, forest);
  const Weight reference = ampc::seq::TotalWeight(list, kruskal);
  if (weight != reference) {
    return "forest weight " + std::to_string(weight) + " != Kruskal's " +
           std::to_string(reference);
  }
  return "";
}

std::string CheckCoreness(const std::vector<int32_t>& reference,
                          const std::vector<int32_t>& coreness) {
  if (coreness.size() != reference.size()) {
    return "coreness has " + std::to_string(coreness.size()) +
           " entries, expected " + std::to_string(reference.size());
  }
  for (size_t v = 0; v < reference.size(); ++v) {
    if (coreness[v] != reference[v]) {
      return "coreness[" + std::to_string(v) + "] = " +
             std::to_string(coreness[v]) + ", expected " +
             std::to_string(reference[v]);
    }
  }
  return "";
}

std::string CheckExactCounters(const ampc::MetricsSnapshot& first,
                               const ampc::MetricsSnapshot& job) {
  const auto get = [](const ampc::MetricsSnapshot& s, const std::string& k) {
    const auto it = s.counters.find(k);
    return it == s.counters.end() ? int64_t{0} : it->second;
  };
  for (const char* name :
       {"rounds", "shuffles", "shuffle_bytes", "kv_write_bytes"}) {
    if (get(job, name) != get(first, name)) {
      return std::string("cost drift: ") + name + " " +
             std::to_string(get(job, name)) + " != first job's " +
             std::to_string(get(first, name));
    }
  }
  return "";
}

void Tally::Record(const std::vector<std::string>& job_reasons) {
  ++attempted;
  bool ok = true;
  for (const std::string& reason : job_reasons) {
    if (reason.empty()) continue;
    ok = false;
    reasons.push_back(reason);
  }
  if (!ok) ++failed;
}

}  // namespace perfbench

// The benchmark's correctness gate must count a wrong output as a failed
// job. This test feeds correct outputs of the real algorithms and
// deliberately corrupted copies through the checks and the Tally.
// run.py runs it before every benchmark run; it exits non-zero on the
// first broken expectation.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "baselines/boruvka.h"
#include "checks.h"
#include "core/kcore.h"
#include "core/msf.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "seq/kcore.h"
#include "seq/msf.h"
#include "sim/cluster.h"

namespace perfbench {
namespace {

using ampc::graph::EdgeId;
using ampc::graph::WeightedEdgeList;

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "checks_test: FAILED: %s\n", what);
    ++failures;
  }
}

/// Records one job with `reason` and reports whether the Tally counted
/// it as failed.
bool CountsAsFailure(const std::string& reason) {
  Tally tally;
  tally.Record({reason});
  return tally.attempted == 1 && tally.failed == 1 &&
         tally.reasons.size() == 1;
}

void TestForestCorruptions() {
  // Triangle 0-1 (w=1, id 0), 1-2 (w=2, id 1), 0-2 (w=3, id 2).
  WeightedEdgeList tri;
  tri.num_nodes = 3;
  tri.edges = {{0, 1, 1, 0}, {1, 2, 2, 1}, {0, 2, 3, 2}};
  const std::vector<EdgeId> kruskal = ampc::seq::KruskalMsf(tri);
  Expect(kruskal == std::vector<EdgeId>{0, 1}, "Kruskal picks edges 0, 1");
  Expect(CheckForest(tri, kruskal, {0, 1}).empty(), "the MSF passes");
  Expect(CountsAsFailure(CheckForest(tri, kruskal, {0, 2})),
         "a heavier spanning tree fails");
  Expect(CountsAsFailure(CheckForest(tri, kruskal, {0})),
         "a forest missing an edge fails");
  Expect(CountsAsFailure(CheckForest(tri, kruskal, {0, 1, 2})),
         "a cycle fails");
  Expect(CountsAsFailure(CheckForest(tri, kruskal, {0, 7})),
         "an unknown edge id fails");

  // A different forest of equal weight is a minimum spanning forest too.
  WeightedEdgeList square;
  square.num_nodes = 4;
  square.edges = {{0, 1, 1, 0}, {1, 2, 1, 1}, {2, 3, 1, 2}, {3, 0, 1, 3}};
  const std::vector<EdgeId> square_kruskal = ampc::seq::KruskalMsf(square);
  Expect(CheckForest(square, square_kruskal, {1, 2, 3}).empty(),
         "a tied spanning tree passes");
}

void TestRealJobsAndCorruptedCopies() {
  const ampc::graph::EdgeList edges = ampc::graph::GenerateRmat(10, 8000, 7);
  const ampc::graph::Graph g = ampc::graph::BuildGraph(edges);
  const WeightedEdgeList weighted = ampc::graph::MakeDegreeWeighted(edges, g);
  const std::vector<EdgeId> kruskal = ampc::seq::KruskalMsf(weighted);
  ampc::sim::ClusterConfig config;
  config.in_memory_threshold_arcs = 1000;

  ampc::sim::Cluster ampc_cluster(config);
  std::vector<EdgeId> forest = ampc::core::AmpcMsf(ampc_cluster, weighted).edges;
  Expect(CheckForest(weighted, kruskal, forest).empty(), "AmpcMsf passes");
  ampc::sim::Cluster mpc_cluster(config);
  Expect(CheckForest(weighted, kruskal,
                     ampc::baselines::MpcBoruvkaMsf(mpc_cluster, weighted, 42)
                         .edges)
             .empty(),
         "MpcBoruvkaMsf passes");
  forest.pop_back();
  Expect(CountsAsFailure(CheckForest(weighted, kruskal, forest)),
         "AmpcMsf's forest minus one edge fails");

  const std::vector<int32_t> reference = ampc::seq::CoreDecomposition(g);
  ampc::sim::Cluster kcore_cluster(config);
  std::vector<int32_t> coreness =
      ampc::core::AmpcKCore(kcore_cluster, g).coreness;
  Expect(CheckCoreness(reference, coreness).empty(), "AmpcKCore passes");
  coreness[coreness.size() / 2] += 1;
  Expect(CountsAsFailure(CheckCoreness(reference, coreness)),
         "a coreness off by one fails");
  coreness.pop_back();
  Expect(CountsAsFailure(CheckCoreness(reference, coreness)),
         "a short coreness vector fails");

  // Cost drift: the exact counters of two jobs must match.
  const ampc::MetricsSnapshot first = ampc_cluster.metrics().Snapshot();
  Expect(CheckExactCounters(first, first).empty(), "equal counters pass");
  ampc::MetricsSnapshot drifted = first;
  drifted.counters["shuffles"] += 1;
  Expect(CountsAsFailure(CheckExactCounters(first, drifted)),
         "a drifted shuffle count fails");
}

void TestTallyKeepsEveryFailure() {
  Tally tally;
  tally.Record({"", ""});
  tally.Record({"wrong output", "cost drift"});
  tally.Record({""});
  Expect(tally.attempted == 3, "three jobs attempted");
  Expect(tally.failed == 1, "a job with two reasons fails once");
  Expect(tally.reasons.size() == 2, "both reasons are kept");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestForestCorruptions();
  perfbench::TestRealJobsAndCorruptedCopies();
  perfbench::TestTallyKeepsEveryFailure();
  if (perfbench::failures == 0) std::fprintf(stderr, "checks_test: passed\n");
  return perfbench::failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}

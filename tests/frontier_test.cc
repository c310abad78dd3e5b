// Frontier-engine unit tests: the atomic bitmap (concurrent set /
// test-and-set with popcount accounting — run under TSAN in CI), the
// alpha/beta direction-switching hysteresis, and push-vs-pull value
// parity plus cost separation on a pinned graph.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/bitmap.h"
#include "common/frontier.h"
#include "core/kcore.h"
#include "graph/generators.h"
#include "sim/cluster.h"

namespace ampc {
namespace {

TEST(AtomicBitmapTest, SetTestAndCount) {
  AtomicBitmap bits(200);
  EXPECT_EQ(bits.num_bits(), 200);
  EXPECT_EQ(bits.Count(), 0);
  for (int64_t i = 0; i < 200; i += 3) bits.Set(i);
  for (int64_t i = 0; i < 200; ++i) {
    EXPECT_EQ(bits.Test(i), i % 3 == 0) << i;
  }
  EXPECT_EQ(bits.Count(), (200 + 2) / 3);
  bits.Clear();
  EXPECT_EQ(bits.Count(), 0);
  EXPECT_FALSE(bits.Test(0));
}

TEST(AtomicBitmapTest, TestAndSetReportsFirstWin) {
  AtomicBitmap bits(64);
  EXPECT_TRUE(bits.TestAndSet(17));
  EXPECT_FALSE(bits.TestAndSet(17));
  EXPECT_TRUE(bits.Test(17));
  EXPECT_EQ(bits.Count(), 1);
}

TEST(AtomicBitmapTest, SizeBytesRoundsUp) {
  EXPECT_EQ(AtomicBitmap(1).SizeBytes(), 1);
  EXPECT_EQ(AtomicBitmap(8).SizeBytes(), 1);
  EXPECT_EQ(AtomicBitmap(9).SizeBytes(), 2);
  EXPECT_EQ(AtomicBitmap(64).SizeBytes(), 8);
  EXPECT_EQ(AtomicBitmap(65).SizeBytes(), 9);
}

TEST(AtomicBitmapTest, ConcurrentSetIsExact) {
  // 8 threads race over interleaved strides of the same words; the OR
  // must lose no bit (TSAN checks the memory ordering in CI).
  constexpr int64_t kBits = 1 << 16;
  constexpr int kThreads = 8;
  AtomicBitmap bits(kBits);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&bits, t] {
      for (int64_t i = t; i < kBits; i += kThreads) bits.Set(i);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(bits.Count(), kBits);
}

TEST(AtomicBitmapTest, ConcurrentTestAndSetElectsOneWinner) {
  // Every bit is contended by all threads; exactly one fetch_or may
  // observe it clear.
  constexpr int64_t kBits = 4096;
  constexpr int kThreads = 8;
  AtomicBitmap bits(kBits);
  std::atomic<int64_t> wins{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int64_t i = 0; i < kBits; ++i) {
        if (bits.TestAndSet(i)) wins.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wins.load(), kBits);
  EXPECT_EQ(bits.Count(), kBits);
}

TEST(FrontierPolicyTest, PureModesNeverSwitch) {
  FrontierPolicy sparse(FrontierMode::kSparse, 15, 18, 1000, 10000);
  FrontierPolicy dense(FrontierMode::kDense, 15, 18, 1000, 10000);
  for (int64_t size : {int64_t{1}, int64_t{500}, int64_t{1000}}) {
    EXPECT_FALSE(sparse.UseDense(size, size * 10));
    EXPECT_TRUE(dense.UseDense(size, size * 10));
  }
}

TEST(FrontierPolicyTest, HybridGrowsDenseAndShrinksSparse) {
  // n=1800, m=18000, alpha=15, beta=18: dense above 1200 frontier
  // edges, sparse again below 100 vertices.
  FrontierPolicy policy(FrontierMode::kHybrid, 15, 18, 1800, 18000);
  EXPECT_FALSE(policy.UseDense(30, 300));     // small: push
  EXPECT_TRUE(policy.UseDense(200, 2000));    // heavy: pull
  EXPECT_FALSE(policy.UseDense(50, 500));     // collapsed: push again
}

TEST(FrontierPolicyTest, HysteresisBandDoesNotFlap) {
  // Between the two thresholds (size >= n/beta but edges <= m/alpha)
  // the policy must keep whichever representation it already has —
  // alternating calls in the band never alternate the answer.
  FrontierPolicy policy(FrontierMode::kHybrid, 15, 18, 1800, 18000);
  // In-band from the sparse side: stays sparse forever.
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(policy.UseDense(600, 1000)) << i;
  }
  // Cross into dense, then hold the same in-band point: stays dense.
  EXPECT_TRUE(policy.UseDense(600, 6000));
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(policy.UseDense(600, 1000)) << i;
  }
  // Only dropping below n/beta releases it.
  EXPECT_FALSE(policy.UseDense(99, 1000));
}

TEST(FrontierPolicyTest, NonPositiveThresholdsFallBackToDefaults) {
  FrontierPolicy policy(FrontierMode::kHybrid, 0, -3, 1800, 18000);
  // Same numbers as HybridGrowsDenseAndShrinksSparse (defaults 15/18).
  EXPECT_FALSE(policy.UseDense(30, 300));
  EXPECT_TRUE(policy.UseDense(200, 2000));
  EXPECT_FALSE(policy.UseDense(50, 500));
}

TEST(FrontierModeTest, NamesRoundTrip) {
  for (const FrontierMode mode :
       {FrontierMode::kSparse, FrontierMode::kDense, FrontierMode::kHybrid}) {
    FrontierMode parsed;
    ASSERT_TRUE(ParseFrontierMode(FrontierModeName(mode), &parsed));
    EXPECT_EQ(parsed, mode);
  }
  FrontierMode parsed;
  EXPECT_FALSE(ParseFrontierMode("beamer", &parsed));
}

sim::Cluster MakeCluster(FrontierMode mode, double beta = 0) {
  sim::ClusterConfig config;
  config.num_machines = 4;
  config.threads_per_machine = 2;
  config.frontier.mode = mode;
  if (beta > 0) config.frontier.beta = beta;
  return sim::Cluster(config);
}

TEST(FrontierPullTest, PullMatchesPushOnPinnedGraph) {
  // Same graph, all three modes: identical coreness and iteration
  // count, while the dense run replaces per-vertex lookup trips with
  // bitmap broadcasts (the whole point of the pull representation).
  graph::Graph g =
      graph::BuildGraph(graph::GenerateErdosRenyi(600, 3600, 7));

  // Sparse mode is the same engine with every round pinned to push:
  // each h-index round is counted, and counted sparse.
  sim::Cluster sparse = MakeCluster(FrontierMode::kSparse);
  const core::KCoreResult push = core::AmpcKCore(sparse, g);
  EXPECT_EQ(sparse.metrics().Get("frontier_dense_rounds"), 0);
  EXPECT_EQ(sparse.metrics().Get("frontier_sparse_rounds"), push.iterations);

  sim::Cluster dense = MakeCluster(FrontierMode::kDense);
  const core::KCoreResult pull = core::AmpcKCore(dense, g);
  EXPECT_EQ(pull.coreness, push.coreness);
  EXPECT_EQ(pull.iterations, push.iterations);
  EXPECT_GT(dense.metrics().Get("frontier_dense_rounds"), 0);
  EXPECT_GT(dense.metrics().Get("frontier_broadcast_bytes"), 0);
  EXPECT_LT(dense.metrics().Get("kv_lookup_trips"),
            sparse.metrics().Get("kv_lookup_trips"));

  // Peeling shrinks this frontier to 398 vertices at its smallest, so
  // widen the sparse threshold (below n/1.5 = 400) to make hybrid
  // genuinely exercise both representations on this graph.
  sim::Cluster hybrid = MakeCluster(FrontierMode::kHybrid, /*beta=*/1.5);
  const core::KCoreResult mixed = core::AmpcKCore(hybrid, g);
  EXPECT_EQ(mixed.coreness, push.coreness);
  EXPECT_EQ(mixed.iterations, push.iterations);
  EXPECT_GT(hybrid.metrics().Get("frontier_dense_rounds"), 0);
  EXPECT_GT(hybrid.metrics().Get("frontier_sparse_rounds"), 0);
}

}  // namespace
}  // namespace ampc

// The frontier engine: sparse/dense frontier representations and the
// Beamer-style direction policy that picks between them per round
// (the PaperWasp hybrid_bfs/bitmap pattern adapted to the AMPC cost
// model).
//
// A frontier-shaped core advances a set of active vertices each
// adaptive round. Two representations:
//
//  - *Sparse*: the active vertices as an explicit, ascending work list
//    (a plain std::vector<int64_t>). The round costs per-vertex remote
//    lookups through the batched/pipelined read path — cheap when the
//    frontier is small, latency-bound when it covers most of the graph.
//  - *Dense* (common/bitmap.h AtomicBitmap): one bit per vertex. The
//    round broadcasts the bitmap to every machine and each machine
//    sweeps its *local* shard against it (sim::Cluster::RunPullPhase),
//    replacing per-vertex round trips with one broadcast plus one
//    aggregate exchange — cheap when the frontier is large.
//
// FrontierPolicy implements the switch: go dense when the frontier's
// out-edges exceed total_edges / alpha, back to sparse when the
// frontier shrinks below num_vertices / beta. The two thresholds plus
// the sticky current state give hysteresis — sizes inside the band
// keep the previous representation, so a frontier hovering near one
// threshold never flaps. Decisions are a pure function of the
// (size, edges) sequence, preserving the determinism contract.
#pragma once

#include <cstdint>
#include <string>

namespace ampc {

/// Which frontier representation a cluster's frontier-shaped phases
/// use. Every mode runs the same frontier engine; the mode only pins
/// or frees its per-round policy. kSparse pins every round to the push
/// work list; kDense pins every round to the pull model; kHybrid lets
/// FrontierPolicy choose per round.
enum class FrontierMode {
  kSparse,
  kDense,
  kHybrid,
};

/// "sparse" / "dense" / "hybrid" — stable names used by the CLI flags
/// and bench JSON.
const char* FrontierModeName(FrontierMode mode);

/// Parses a FrontierModeName back; returns false (mode untouched) on
/// an unknown name.
bool ParseFrontierMode(const std::string& name, FrontierMode* mode);

/// Per-phase direction selector. Construct once per frontier-shaped
/// phase (so the sticky state carries across that phase's rounds) with
/// the graph's vertex and directed-edge totals, then ask UseDense once
/// per round with the current frontier's size and out-edge count.
class FrontierPolicy {
 public:
  /// Beamer's growing-frontier threshold: dense when
  /// frontier_edges > total_edges / alpha.
  static constexpr double kDefaultAlpha = 15.0;
  /// Beamer's shrinking-frontier threshold: back to sparse when
  /// frontier_size < num_vertices / beta.
  static constexpr double kDefaultBeta = 18.0;

  FrontierPolicy(FrontierMode mode, double alpha, double beta,
                 int64_t num_vertices, int64_t total_edges)
      : mode_(mode),
        alpha_(alpha > 0 ? alpha : kDefaultAlpha),
        beta_(beta > 0 ? beta : kDefaultBeta),
        num_vertices_(num_vertices),
        total_edges_(total_edges),
        dense_(mode == FrontierMode::kDense) {}

  /// Picks this round's representation and updates the sticky state.
  bool UseDense(int64_t frontier_size, int64_t frontier_edges);

 private:
  FrontierMode mode_;
  double alpha_;
  double beta_;
  int64_t num_vertices_;
  int64_t total_edges_;
  bool dense_;
};

}  // namespace ampc

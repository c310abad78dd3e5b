// The repository benchmark: one graph job on one stand-in dataset, run
// as a closed loop (one job at a time, no threads of the benchmark's
// own; the only parallelism is the Cluster's pool).
//
//   perfbench --workload <name> [--seed <n>] --seconds <s> --trace <0|1>
//
// A run sets the input up several times (setup_s is the median), runs
// one untimed warm-up job, then runs timed jobs while the next one is
// expected to end within --seconds. Every job, the warm-up included, is checked against the
// src/seq oracle and its exact cost counters against the warm-up's,
// outside the timed region. With --trace 0 it prints the end-to-end
// metrics; with --trace 1 it alternates untraced and traced jobs,
// keeps spans in memory, writes them to --trace-out at the end, and
// prints the per-layer metrics. The last line of standard output is
// the result object; the exit code is 1 if any job failed a check.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "baselines/boruvka.h"
#include "checks.h"
#include "common/frontier.h"
#include "common/metrics.h"
#include "core/kcore.h"
#include "core/msf.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "kv/network_model.h"
#include "seq/kcore.h"
#include "seq/msf.h"
#include "sim/cluster.h"

namespace perfbench {
namespace {

using ampc::FrontierMode;
using ampc::MetricsSnapshot;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// Workloads.

/// A bench_common stand-in dataset: RMAT over 2^log2_nodes vertices.
struct Dataset {
  const char* name;
  int log2_nodes;
  int64_t edges;
  double rmat_a;
};

constexpr Dataset kOK{"OK'", 15, 500'000, 0.57};
constexpr Dataset kTW{"TW'", 16, 1'200'000, 0.60};
constexpr Dataset kFS{"FS'", 17, 2'000'000, 0.57};

enum class Job { kMpcMsf, kAmpcMsf, kKCore };

/// What the workload seed shuffles. The graph stays the dataset, up to
/// isomorphism, so every seed asks for the same work: the h-index
/// fixpoint's round count varies 48-122 across RMAT seeds of OK', but
/// not under a renaming of the vertices. The MSF algorithms draw their
/// random choices from vertex ids (Boruvka's 91-139 phases over
/// renamings of FS'), so for them the seed shuffles the edge order,
/// which only moves ties between equal weights.
enum class Shuffle { kVertexIds, kEdgeOrder };

struct Workload {
  const char* name;
  Dataset data;
  Job job;
  FrontierMode frontier;
  Shuffle shuffle;
};

/// BENCHMARK.json tracks all but mpc-msf-fs, whose phase count is not
/// steady across seeds (README.md gives the numbers).
constexpr Workload kWorkloads[] = {
    {"mpc-msf-fs", kFS, Job::kMpcMsf, FrontierMode::kSparse,
     Shuffle::kEdgeOrder},
    {"ampc-msf-fs", kFS, Job::kAmpcMsf, FrontierMode::kSparse,
     Shuffle::kEdgeOrder},
    {"kcore-push-ok", kOK, Job::kKCore, FrontierMode::kSparse,
     Shuffle::kVertexIds},
    {"kcore-hybrid-tw", kTW, Job::kKCore, FrontierMode::kHybrid,
     Shuffle::kVertexIds},
};

bool IsMsf(const Workload& w) { return w.job != Job::kKCore; }

/// bench_common's per-dataset generator seed, so the graph is the one
/// the paper-figure benches run on.
uint64_t DatasetSeed(const Dataset& d) { return 0x5eed0 + d.log2_nodes; }

/// The algorithms' own seed, fixed like the benches' kSeed.
constexpr uint64_t kAlgorithmSeed = 42;

/// Setups per run, at least this many and for at least this long;
/// setup_s is their median.
constexpr int kMinSetups = 3;
constexpr double kMinSetupSeconds = 2.0;

/// The paper-figure benches' cluster (bench_common's BenchConfig):
/// 8 machines x 8 workers, RDMA, caching and multithreading on, the
/// in-memory threshold proportional to the graph. Kept here so that a
/// change to the benches does not change the benchmark's workloads.
ampc::sim::ClusterConfig MakeConfig(const Workload& w, int64_t num_arcs) {
  ampc::sim::ClusterConfig config;
  config.num_machines = 8;
  config.threads_per_machine = 8;
  config.query_cache.enabled = true;
  config.multithreading = true;
  config.network = ampc::kv::NetworkModel::Rdma();
  config.in_memory_threshold_arcs = std::max<int64_t>(10'000, num_arcs / 100);
  config.frontier.mode = w.frontier;
  return config;
}

// ---------------------------------------------------------------------
// Host measurements.

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

Clock::duration FromSeconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // KiB on Linux
}

double CurrentRssMib() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0, resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) * sysconf(_SC_PAGESIZE) / (1 << 20);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2;
}

// ---------------------------------------------------------------------
// Spans, held in memory by traced runs only and written at the end.

struct Span {
  std::string name;
  int parent = -1;
  double start_s = 0;  // since the run started; 0 for aggregated spans
  double dur_s = 0;
  const char* clock = "host";  // "sim" for simulated-clock phase totals
  bool aggregated = false;     // a phase timer's total over the job
};

class Trace {
 public:
  explicit Trace(Clock::time_point origin) : origin_(origin) {}

  int Add(std::string name, int parent, Clock::time_point start,
          double dur_s) {
    spans_.push_back({std::move(name), parent, Seconds(start - origin_),
                      dur_s, "host", false});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Ends span `id` now.
  void End(int id) {
    spans_[id].dur_s = Seconds(Clock::now() - origin_) - spans_[id].start_s;
  }

  void AddAggregated(std::string name, int parent, double dur_s,
                     const char* clock) {
    spans_.push_back({std::move(name), parent, 0, dur_s, clock, true});
  }

  bool Write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

std::string JsonNumber(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

bool Trace::Write(const std::string& path) const {
  std::ofstream out(path);
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"name\":" << JsonString(s.name)
        << ",\"start_s\":" << JsonNumber(s.start_s)
        << ",\"dur_s\":" << JsonNumber(s.dur_s) << ",\"clock\":\"" << s.clock
        << "\",\"aggregated\":" << (s.aggregated ? "true" : "false") << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------
// Setup and jobs.

struct Input {
  ampc::graph::EdgeList edges;
  ampc::graph::Graph graph;
  ampc::graph::WeightedEdgeList weighted;  // MSF workloads only
};

struct SetupTimes {
  double generate_s = 0;
  double build_s = 0;
  double build_cpu_s = 0;
  double weight_s = 0;
  double total_s = 0;
};

/// Fisher-Yates with a fixed generator, so a seed gives the same order
/// under every standard library.
template <typename T>
void ShuffleVector(std::vector<T>& v, uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng() % i]);
}

void ApplySeed(ampc::graph::EdgeList& list, Shuffle shuffle, uint64_t seed) {
  if (shuffle == Shuffle::kEdgeOrder) {
    ShuffleVector(list.edges, seed);
    return;
  }
  std::vector<ampc::graph::NodeId> name(list.num_nodes);
  std::iota(name.begin(), name.end(), 0);
  ShuffleVector(name, seed);
  for (ampc::graph::Edge& e : list.edges) {
    e.u = name[e.u];
    e.v = name[e.v];
  }
}

/// Generates the dataset, shuffled by the workload seed when one is
/// given, and builds the job's input.
Input Setup(const Workload& w, const std::optional<uint64_t>& seed,
            SetupTimes& times, Trace* trace, int parent) {
  Input in;
  const Clock::time_point t0 = Clock::now();
  ampc::graph::RmatOptions options;
  options.a = w.data.rmat_a;
  options.b = (1.0 - w.data.rmat_a) / 3.0;
  options.c = (1.0 - w.data.rmat_a) / 3.0;
  in.edges = ampc::graph::GenerateRmat(w.data.log2_nodes, w.data.edges,
                                       DatasetSeed(w.data), options);
  if (seed) ApplySeed(in.edges, w.shuffle, *seed);
  const Clock::time_point t1 = Clock::now();
  const double cpu1 = CpuSeconds();
  in.graph = ampc::graph::BuildGraph(in.edges);
  const Clock::time_point t2 = Clock::now();
  times.build_cpu_s = CpuSeconds() - cpu1;
  if (IsMsf(w)) {
    in.weighted = ampc::graph::MakeDegreeWeighted(in.edges, in.graph);
  }
  const Clock::time_point t3 = Clock::now();
  times.generate_s = Seconds(t1 - t0);
  times.build_s = Seconds(t2 - t1);
  times.weight_s = IsMsf(w) ? Seconds(t3 - t2) : 0;
  times.total_s = Seconds(t3 - t0);
  if (trace != nullptr) {
    const int setup = trace->Add("setup", parent, t0, times.total_s);
    trace->Add("setup.generate", setup, t0, times.generate_s);
    trace->Add("setup.build", setup, t1, times.build_s);
    if (IsMsf(w)) trace->Add("setup.weight", setup, t2, times.weight_s);
  }
  return in;
}

/// The oracle's answer for one input, computed once per run.
struct Reference {
  std::vector<ampc::graph::EdgeId> forest;
  std::vector<int32_t> coreness;
};

struct JobResult {
  Clock::time_point start;
  double wall_s = 0;
  double cpu_s = 0;
  int pool_threads = 0;
  MetricsSnapshot metrics;  // the job's own: each job has a fresh Cluster
  std::vector<ampc::graph::EdgeId> forest;
  std::vector<int32_t> coreness;
};

JobResult RunJob(const Workload& w, const Input& in) {
  ampc::sim::Cluster cluster(MakeConfig(w, in.graph.num_arcs()));
  JobResult r;
  const double cpu0 = CpuSeconds();
  r.start = Clock::now();
  switch (w.job) {
    case Job::kMpcMsf:
      r.forest = ampc::baselines::MpcBoruvkaMsf(cluster, in.weighted,
                                                kAlgorithmSeed)
                     .edges;
      break;
    case Job::kAmpcMsf: {
      ampc::core::MsfOptions options;
      options.seed = kAlgorithmSeed;
      r.forest = ampc::core::AmpcMsf(cluster, in.weighted, options).edges;
      break;
    }
    case Job::kKCore:
      r.coreness = ampc::core::AmpcKCore(cluster, in.graph).coreness;
      break;
  }
  r.wall_s = Seconds(Clock::now() - r.start);
  r.cpu_s = CpuSeconds() - cpu0;
  r.metrics = cluster.metrics().Snapshot();
  r.pool_threads = cluster.pool().num_threads();
  return r;
}

std::string CheckOutput(const Workload& w, const Input& in,
                        const Reference& ref, const JobResult& r) {
  return IsMsf(w) ? CheckForest(in.weighted, ref.forest, r.forest)
                  : CheckCoreness(ref.coreness, r.coreness);
}

int64_t Counter(const MetricsSnapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

double Timer(const MetricsSnapshot& s, const std::string& name) {
  const auto it = s.timers_sec.find(name);
  return it == s.timers_sec.end() ? 0 : it->second;
}

// ---------------------------------------------------------------------
// Metrics.

/// The Cluster phases the four jobs run. Any other phase is summed into
/// "other", so a renamed or new phase still shows.
const std::vector<std::string>& KnownPhases() {
  static const std::vector<std::string> kPhases = {
      "SortGraph",      "KV-Write",     "PrimSearch",     "Combine",
      "PointerJumpBuild", "PointerJump", "Contract",      "InMemoryMSF",
      "BoruvkaMark",    "BoruvkaRelabel", "BoruvkaRebuild", "WriteGraph",
      "ValueWrite",     "HIndex"};
  return kPhases;
}

/// Phase totals of one clock ("wall" or "sim"), keyed by known phase
/// name plus "other".
std::map<std::string, double> PhaseTotals(const MetricsSnapshot& s,
                                          const std::string& clock) {
  std::map<std::string, double> totals;
  for (const std::string& p : KnownPhases()) totals[p] = 0;
  totals["other"] = 0;
  const std::string prefix = clock + ":";
  for (const auto& [name, sec] : s.timers_sec) {
    if (name.rfind(prefix, 0) != 0) continue;
    const std::string phase = name.substr(prefix.size());
    (totals.count(phase) ? totals[phase] : totals["other"]) += sec;
  }
  return totals;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Per-job values whose median is a per-layer metric.
std::vector<Metric> JobLayerMetrics(const JobResult& r) {
  const MetricsSnapshot& s = r.metrics;
  const std::map<std::string, double> wall = PhaseTotals(s, "wall");
  const std::map<std::string, double> sim = PhaseTotals(s, "sim");
  double phase_wall = 0;
  for (const auto& [phase, sec] : wall) phase_wall += sec;
  const double hits = Counter(s, "cache_hits");
  const double misses = Counter(s, "cache_misses");
  std::vector<Metric> m = {
      {"graph.contract_wall_s",
       wall.at("BoruvkaMark") + wall.at("BoruvkaRelabel") +
           wall.at("BoruvkaRebuild") + wall.at("Contract"),
       "s"},
      {"graph.sort_wall_s", wall.at("SortGraph"), "s"},
      {"job.unattributed_s", r.wall_s - phase_wall, "s"},
      {"job.cpu_util", r.cpu_s / (r.wall_s * r.pool_threads), "ratio"},
      {"kv.cache_hits", hits, "count"},
      {"kv.cache_misses", misses, "count"},
      {"kv.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
       "ratio"},
      {"kv.cache_ops_per_wall_s", (hits + misses) / r.wall_s, "1/s"},
      {"kv.lookup_trips", double(Counter(s, "kv_lookup_trips")), "count"},
      {"kv.batches", double(Counter(s, "kv_batches")), "count"},
      {"kv.peak_inflight_keys", double(Counter(s, "kv_peak_inflight_keys")),
       "count"},
      {"kv.read_bytes", double(Counter(s, "kv_read_bytes")), "B"},
      {"kv.write_bytes", double(Counter(s, "kv_write_bytes")), "B"},
      {"sim.frontier_dense_rounds",
       double(Counter(s, "frontier_dense_rounds")), "count"},
      {"sim.frontier_sparse_rounds",
       double(Counter(s, "frontier_sparse_rounds")), "count"},
      {"sim.frontier_exchange_bytes",
       double(Counter(s, "frontier_exchange_bytes")), "B"},
      {"sim.frontier_broadcast_bytes",
       double(Counter(s, "frontier_broadcast_bytes")), "B"},
      {"mpc.shuffle_bytes", double(Counter(s, "shuffle_bytes")), "B"},
  };
  for (const auto& [phase, sec] : wall) {
    m.push_back({"sim.wall." + phase, sec, "s"});
  }
  for (const auto& [phase, sec] : sim) {
    m.push_back({"sim.sim." + phase, sec, "s"});
  }
  return m;
}

/// Medians, name by name, of per-job metric lists of equal layout.
std::vector<Metric> MedianMetrics(const std::vector<std::vector<Metric>>& jobs) {
  std::vector<Metric> out = jobs.front();
  for (size_t i = 0; i < out.size(); ++i) {
    std::vector<double> values;
    for (const std::vector<Metric>& job : jobs) values.push_back(job[i].value);
    out[i].value = Median(values);
  }
  return out;
}

/// The highest sample with at least ten samples above it (the lowest
/// sample when there are fewer than eleven), and how many lie above it.
std::pair<double, int> Tail(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t i = v.size() > 10 ? v.size() - 11 : 0;
  return {v[i], static_cast<int>(v.size() - 1 - i)};
}

double Spread(const std::vector<JobResult>& jobs, const std::string& counter) {
  int64_t lo = Counter(jobs.front().metrics, counter), hi = lo;
  for (const JobResult& j : jobs) {
    lo = std::min(lo, Counter(j.metrics, counter));
    hi = std::max(hi, Counter(j.metrics, counter));
  }
  return static_cast<double>(hi - lo);
}

// ---------------------------------------------------------------------

struct Args {
  std::string workload;
  std::optional<uint64_t> seed;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      a.trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

int Main(int argc, char** argv) {
  // A fixed mmap threshold turns off glibc's adaptive one, under which
  // freed blocks of setup and earlier jobs stay resident or not by
  // chance (peak RSS of mpc-msf-fs read 252 or 298 MiB for one input).
  // Blocks of 4 MiB and more now go back on free, so peak RSS is steady.
  mallopt(M_MMAP_THRESHOLD, 4 << 20);
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> [--seed <n>] "
                 "--seconds <s> --trace <0|1> [--trace-out <path>]\n");
    return 2;
  }
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;

  const Clock::time_point run_start = Clock::now();
  std::unique_ptr<Trace> trace;
  int run_span = -1, workload_span = -1;
  if (args.trace) {
    trace = std::make_unique<Trace>(run_start);
    run_span = trace->Add("run", -1, run_start, 0);
    workload_span = trace->Add(w.name, run_span, run_start, 0);
  }

  // Setup, several times; the last input is kept.
  Input in;
  std::vector<SetupTimes> setups;
  double setup_total_s = 0;
  while (static_cast<int>(setups.size()) < kMinSetups ||
         setup_total_s < kMinSetupSeconds) {
    in = Input{};  // so that setups do not add up in RSS
    SetupTimes& t = setups.emplace_back();
    in = Setup(w, args.seed, t, trace.get(), workload_span);
    setup_total_s += t.total_s;
  }
  const double rss_after_setup = CurrentRssMib();

  // The oracle's answer, once; its cost is part of seq.check_s.
  const Clock::time_point ref_start = Clock::now();
  Reference ref;
  if (IsMsf(w)) {
    ref.forest = ampc::seq::KruskalMsf(in.weighted);
  } else {
    ref.coreness = ampc::seq::CoreDecomposition(in.graph);
  }
  double check_s = Seconds(Clock::now() - ref_start);
  if (trace) trace->Add("check.reference", workload_span, ref_start, check_s);

  // Warm-up, then timed jobs while the next one is expected to end by
  // the deadline. A traced run alternates untraced and traced jobs, so
  // both medians come from one process; it times at least one of each.
  Tally tally;
  std::vector<JobResult> jobs;  // jobs[0] is the warm-up
  std::vector<double> untraced_wall, traced_wall;
  std::vector<std::vector<Metric>> traced_layers;
  const auto run_one = [&](bool timed, bool traced) {
    JobResult r = RunJob(w, in);
    const Clock::time_point check_start = Clock::now();
    tally.Record({CheckOutput(w, in, ref, r),
                  jobs.empty() ? "" : CheckExactCounters(jobs[0].metrics,
                                                         r.metrics)});
    const double this_check_s = Seconds(Clock::now() - check_start);
    check_s += this_check_s;
    if (traced) {
      const int job = trace->Add("job", workload_span, r.start, r.wall_s);
      for (const char* clock : {"wall", "sim"}) {
        for (const auto& [phase, sec] : PhaseTotals(r.metrics, clock)) {
          if (sec > 0) {
            trace->AddAggregated(std::string(clock) + ":" + phase, job, sec,
                                 std::strcmp(clock, "sim") ? "host" : "sim");
          }
        }
      }
      trace->Add("check", workload_span, check_start, this_check_s);
      traced_layers.push_back(JobLayerMetrics(r));
    }
    if (timed) (traced ? traced_wall : untraced_wall).push_back(r.wall_s);
    r.forest.clear();
    r.coreness.clear();
    jobs.push_back(std::move(r));
  };
  run_one(/*timed=*/false, /*traced=*/false);
  const Clock::time_point deadline = Clock::now() + FromSeconds(args.seconds);
  for (int i = 0;; ++i) {
    const bool enough =
        !untraced_wall.empty() && (!args.trace || !traced_wall.empty());
    if (enough && Clock::now() + FromSeconds(jobs.back().wall_s) > deadline) {
      break;
    }
    run_one(/*timed=*/true, /*traced=*/args.trace && i % 2 == 1);
  }

  std::vector<double> timed_wall = untraced_wall;
  timed_wall.insert(timed_wall.end(), traced_wall.begin(), traced_wall.end());
  std::vector<double> sim_s, comm_bytes;
  for (size_t i = 1; i < jobs.size(); ++i) {
    const MetricsSnapshot& m = jobs[i].metrics;
    sim_s.push_back(Timer(m, "sim_total"));
    comm_bytes.push_back(double(Counter(m, "shuffle_bytes") +
                                Counter(m, "kv_read_bytes") +
                                Counter(m, "kv_write_bytes")));
  }
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::vector<double> setup_s, generate_s, build_s, weight_s, build_util;
  for (const SetupTimes& t : setups) {
    setup_s.push_back(t.total_s);
    generate_s.push_back(t.generate_s);
    build_s.push_back(t.build_s);
    weight_s.push_back(t.weight_s);
    build_util.push_back(t.build_cpu_s / (t.build_s * nproc));
  }
  const MetricsSnapshot& exact = jobs[0].metrics;  // equal on every job
  const double peak_rss = PeakRssMib();

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"job_wall_s", Median(untraced_wall), "s"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mib", peak_rss, "MiB"},
        {"sim_s", Median(sim_s), "s"},
        {"rounds", double(Counter(exact, "rounds")), "count"},
        {"shuffles", double(Counter(exact, "shuffles")), "count"},
        {"comm_bytes", Median(comm_bytes), "B"},
    };
  } else {
    const auto [tail, beyond] = Tail(timed_wall);
    metrics = {
        {"graph.generate_s", Median(generate_s), "s"},
        {"graph.build_s", Median(build_s), "s"},
        {"graph.weight_s", Median(weight_s), "s"},
        {"graph.build_cpu_util", Median(build_util), "ratio"},
        {"job.samples", double(timed_wall.size()), "count"},
        {"job.wall_tail_s", tail, "s"},
        {"job.wall_tail_beyond", double(beyond), "count"},
        {"mem.rss_after_setup_mib", rss_after_setup, "MiB"},
        {"mem.rss_job_growth_mib", peak_rss - rss_after_setup, "MiB"},
        {"seq.check_s", check_s, "s"},
        {"trace.overhead_s", Median(traced_wall) - Median(untraced_wall), "s"},
        {"kv.trips_spread", Spread(jobs, "kv_lookup_trips"), "count"},
        {"kv.cache_hits_spread", Spread(jobs, "cache_hits"), "count"},
        {"check.fail_frac", double(tally.failed) / tally.attempted, "ratio"},
    };
    for (const Metric& m : MedianMetrics(traced_layers)) metrics.push_back(m);
  }

  // Self-description, then every metric by name with its unit.
  std::printf(
      "# workload %s  dataset %s  dataset_seed %llu  seed %s  n %lld  "
      "arcs %lld  max_degree %lld  nproc %u  pool_threads %d  build %s  "
      "trace %d\n",
      w.name, w.data.name,
      static_cast<unsigned long long>(DatasetSeed(w.data)),
      args.seed ? std::to_string(*args.seed).c_str() : "none",
      static_cast<long long>(in.graph.num_nodes()),
      static_cast<long long>(in.graph.num_arcs()),
      static_cast<long long>(in.graph.max_degree()), nproc,
      jobs[0].pool_threads, PERFBENCH_BUILD_TYPE, args.trace ? 1 : 0);
  std::printf("# jobs %zu timed + 1 warm-up  failed %lld  attempted %lld\n",
              timed_wall.size(), static_cast<long long>(tally.failed),
              static_cast<long long>(tally.attempted));
  std::printf("# timed job wall seconds:");
  for (const double sec : timed_wall) std::printf(" %.4f", sec);
  std::printf("\n");
  for (const std::string& reason : tally.reasons) {
    std::printf("# FAILED: %s\n", reason.c_str());
  }
  bool finite = true;
  for (const Metric& m : metrics) {
    std::printf("# %-36s %s %s\n", m.name.c_str(), JsonNumber(m.value).c_str(),
                m.unit);
    finite = finite && std::isfinite(m.value);
  }
  if (trace && !args.trace_out.empty()) {
    trace->End(workload_span);
    trace->End(run_span);
    if (!trace->Write(args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
    std::printf("# spans written to %s\n", args.trace_out.c_str());
  }
  if (!finite) {
    std::fprintf(stderr, "a metric is not a finite number\n");
    return 1;
  }

  std::string json = "{\"correct\": ";
  json += tally.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", " : "") + JsonString(metrics[i].name) +
            ": {\"value\": " + JsonNumber(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

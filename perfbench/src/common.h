// common.h — shared harness of the repository benchmark (teal_perfbench).
//
// Everything a workload needs besides its own loop: the command line, the
// result report (exact percentiles over raw samples, the final JSON line),
// output checks that abort the run, setup spans timed around calls into the
// program's public functions, and bench-instance construction. Nothing here
// reaches inside the library: every span brackets a public call.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/coma.h"
#include "core/model.h"
#include "te/problem.h"
#include "traffic/traffic.h"

namespace perfbench {

namespace core = teal::core;
namespace te = teal::te;
namespace traffic = teal::traffic;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double rate = 0.0;         // b4-open offered requests per second
  double limit_ms = 0.0;     // b4-open response latency limit
  int setups = 1;            // setup repetitions (setup_s is their median)
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A failed output check: the run exits non-zero and reports no metrics.
struct CheckFailed : std::runtime_error {
  using std::runtime_error::runtime_error;
};
void check(bool ok, const std::string& what);

// Exact percentile (linear interpolation) over raw samples.
double pct(const std::vector<double>& xs, double q);

// Collects the run's metrics and human-readable lines. Metric names and
// units are printed as they are recorded; emit() writes the JSON line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  // Prints p10 to p99 and the max with n for a raw sample (ms), no metric.
  static void describe(const std::string& name, const std::vector<double>& ms);
  void count_op(std::uint64_t attempted, std::uint64_t failed);
  // The final stdout line: {"correct", "attempted", "failed", "metrics"}.
  void emit() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// Accumulates named setup spans (seconds) across setup repetitions; the
// traced run reports each span's median over the repetitions.
class Spans {
 public:
  // Times fn() and books it under `name` for the current repetition.
  template <typename Fn>
  auto time(const std::string& name, Fn&& fn) {
    const double t0 = now_s();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      add(name, now_s() - t0);
    } else {
      auto r = fn();
      add(name, now_s() - t0);
      return r;
    }
  }
  void add(const std::string& name, double seconds) { cur_[name] += seconds; }
  void next_repetition();  // closes the current repetition
  // Median over closed repetitions (0 when the span never ran).
  double median(const std::string& name) const;

 private:
  std::map<std::string, double> cur_;
  std::map<std::string, std::vector<double>> reps_;
};

// Every setup span name, reported by every workload's traced run.
extern const char* const kSetupSpans[6];
void report_setup_spans(Report& r, const Spans& spans);

// One of the repository's bench instances (bench/common.cpp's make_instance
// at seed 1, its default scale), rebuilt here stage by stage so each stage
// is its own span: topo.build_s, te.paths_s, traffic.trace_s (demand
// sampling + trace generation) and traffic.calibrate_s.
struct Instance {
  std::unique_ptr<te::Problem> pb;
  traffic::TraceSplit split;
};
Instance build_instance(const std::string& topo, Spans& spans);

// The bench model settings (bench::make_teal: COMA*, 10 epochs, lr 3e-3,
// 4 MC samples, validation-snapshot selection, rollout batch 4, workers
// auto), trained from its fixed seed on every call — never loaded from a
// cache, so setup measures the same work on every run.
core::ComaConfig bench_coma_config(const Instance& inst);
std::unique_ptr<core::TealModel> train_bench_model(const Instance& inst, Spans& spans);

// Deep copy of a model's weights into a fresh TealModel (same config).
std::unique_ptr<core::TealModel> clone_model(core::TealModel& m);

// Every parameter value of a model, in params() order (for bit-identity checks).
std::vector<std::vector<double>> model_weights(core::Model& m);

// Byte equality of two allocations (f64 bit patterns).
bool same_bytes(const te::Allocation& a, const te::Allocation& b);

// Deterministic helpers on the workload seed.
std::vector<int> seeded_permutation(int n, std::uint64_t seed, std::uint64_t tag);

// Workload entry points (one per file).
void run_asn_solve(const Args& args, Report& report);
void run_b4_open(const Args& args, Report& report);
void run_swan_train(const Args& args, Report& report);

}  // namespace perfbench

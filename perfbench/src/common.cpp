#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "core/coma.h"
#include "topo/topology.h"
#include "util/rng.h"
#include "util/stats.h"

namespace perfbench {

void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailed(what);
}

double pct(const std::vector<double>& xs, double q) {
  check(!xs.empty(), "percentile of an empty sample");
  return teal::util::percentile(xs, q);
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  check(std::isfinite(value), "metric " + name + " is not finite");
  for (const auto& m : metrics_) check(m.first != name, "metric " + name + " reported twice");
  metrics_.push_back({name, {value, unit}});
  std::printf("  %-28s %.6g %s\n", name.c_str(), value, unit.c_str());
}

void Report::describe(const std::string& name, const std::vector<double>& ms) {
  if (ms.empty()) {
    std::printf("  %-28s n=0\n", name.c_str());
    return;
  }
  std::printf("  %-28s p10 %.4f  p25 %.4f  p50 %.4f  p90 %.4f  p99 %.4f  max %.4f ms"
              "  (exact, n=%zu)\n",
              name.c_str(), pct(ms, 10), pct(ms, 25), pct(ms, 50), pct(ms, 90), pct(ms, 99),
              *std::max_element(ms.begin(), ms.end()), ms.size());
}

void Report::count_op(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::emit() const {
  std::string out = "{\"correct\": true, \"attempted\": " + std::to_string(attempted_) +
                    ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", vu.first);
    out += (first ? "" : ", ") + ("\"" + name + "\": {\"value\": ") + num +
           ", \"unit\": \"" + vu.second + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void Spans::next_repetition() {
  for (const auto& [name, s] : cur_) reps_[name].push_back(s);
  cur_.clear();
}

double Spans::median(const std::string& name) const {
  auto it = reps_.find(name);
  return it == reps_.end() ? 0.0 : teal::util::median(it->second);
}

const char* const kSetupSpans[6] = {"topo.build_s",        "te.paths_s",   "traffic.trace_s",
                                    "traffic.calibrate_s", "core.model_s", "serve.start_s"};

void report_setup_spans(Report& r, const Spans& spans) {
  for (const char* name : kSetupSpans) r.metric(name, spans.median(name), "s");
}

Instance build_instance(const std::string& topo, Spans& spans) {
  // bench::default_scale (full, not fast mode) and make_instance(topo, 1).
  int n_demands = 0, n_intervals = 0;
  if (topo == "B4") n_demands = 1 << 20, n_intervals = 60;
  else if (topo == "SWAN") n_demands = 4000, n_intervals = 50;
  else if (topo == "ASN") n_demands = 6000, n_intervals = 40;
  else throw std::invalid_argument("build_instance: no bench scale for " + topo);
  const std::uint64_t seed = 1;
  const double target_sp_sat = 72.0;

  auto g = spans.time("topo.build_s", [&] { return teal::topo::make_topology(topo, seed); });
  auto demands = spans.time("traffic.trace_s", [&] {
    return teal::traffic::sample_demands(g, n_demands, seed + 1);
  });
  Instance inst;
  inst.pb = spans.time("te.paths_s", [&] {
    return std::make_unique<teal::te::Problem>(std::move(g), std::move(demands), 4);
  });
  teal::traffic::TraceConfig tcfg;
  tcfg.n_intervals = n_intervals;
  tcfg.seed = seed + 2;
  auto trace = spans.time("traffic.trace_s",
                          [&] { return teal::traffic::generate_trace(*inst.pb, tcfg); });
  spans.time("traffic.calibrate_s", [&] {
    teal::traffic::calibrate_capacities_to_satisfied(*inst.pb, trace, target_sp_sat);
  });
  inst.split = teal::traffic::split_trace(trace);
  return inst;
}

teal::core::ComaConfig bench_coma_config(const Instance& inst) {
  teal::core::ComaConfig cfg;
  cfg.epochs = 10;
  cfg.lr = 3e-3;
  cfg.mc_samples = 4;
  cfg.validation = &inst.split.val;
  cfg.rollout_batch = 4;
  cfg.workers = 0;  // auto
  return cfg;
}

std::unique_ptr<teal::core::TealModel> train_bench_model(const Instance& inst, Spans& spans) {
  return spans.time("core.model_s", [&] {
    auto model = std::make_unique<teal::core::TealModel>(teal::core::TealModelConfig{},
                                                         inst.pb->k_paths());
    teal::core::train_coma(*model, *inst.pb, inst.split.train, teal::te::Objective::kTotalFlow,
                           bench_coma_config(inst));
    return model;
  });
}

std::unique_ptr<teal::core::TealModel> clone_model(teal::core::TealModel& m) {
  auto copy = std::make_unique<teal::core::TealModel>(m.config(), m.k_paths());
  auto src = m.params();
  auto dst = copy->params();
  check(src.size() == dst.size(), "clone_model: parameter count mismatch");
  for (std::size_t i = 0; i < src.size(); ++i) dst[i]->w = src[i]->w;
  return copy;
}

std::vector<std::vector<double>> model_weights(core::Model& m) {
  std::vector<std::vector<double>> w;
  for (auto* p : m.params()) w.emplace_back(p->w.data().begin(), p->w.data().end());
  return w;
}

bool same_bytes(const teal::te::Allocation& a, const teal::te::Allocation& b) {
  return a.split.size() == b.split.size() &&
         (a.split.empty() ||
          std::memcmp(a.split.data(), b.split.data(), a.split.size() * sizeof(double)) == 0);
}

std::vector<int> seeded_permutation(int n, std::uint64_t seed, std::uint64_t tag) {
  std::vector<int> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = i;
  teal::util::Rng rng(teal::util::Rng::mix_seed(seed, tag));
  rng.shuffle(v);
  return v;
}

}  // namespace perfbench

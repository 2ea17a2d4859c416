// Precision suite for the f32/SIMD compute backend: tolerance comparison of
// f32 vs f64 solves on all five bundled topologies (flow-allocation error
// bound + objective delta), determinism and shard-invariance of the narrowed
// path, knob semantics, and bit-stability of the f64 reference kernels
// against strictly ordered scalar re-implementations (which is what pins the
// f64 path to the seed arithmetic under TEAL_SIMD=ON).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "baselines/lp_schemes.h"
#include "core/teal_scheme.h"
#include "core/variants.h"
#include "nn/mat.h"
#include "nn/packed.h"
#include "sim/online.h"
#include "sim/served.h"
#include "te/objective.h"
#include "topo/topology.h"
#include "traffic/traffic.h"
#include "util/alloc_hook.h"
#include "util/arena.h"

namespace teal {
namespace {

// Error bounds for the f32 narrowed forward. The solve's split ratios come
// out of an f64 softmax over f32-rounded logits, then ADMM (all f64) pulls
// them toward feasibility, so per-path split perturbations stay within a few
// float ulps of the logit scale. The bounds are deliberately slack (10-100x
// the observed error, recorded in the EXPERIMENTS.md Precision/SIMD ledger)
// so the test pins the *contract*, not one compiler's rounding.
constexpr double kSplitAbsBound = 5e-3;
constexpr double kObjectiveRelBound = 2e-3;

// bf16 bounds are wider: the stored weights carry 8 mantissa bits (relative
// rounding ~2^-9 per weight under RNE), which perturbs the logits by orders
// of magnitude more than f32's 24-bit rounding. Activations and accumulation
// stay f32, so the error does not compound beyond the weight rounding. As
// with the f32 bounds these are deliberately slack vs. the observed errors
// in the EXPERIMENTS.md ledger.
constexpr double kBf16SplitAbsBound = 5e-2;
constexpr double kBf16ObjectiveRelBound = 2e-2;

struct SmallInstance {
  std::string name;
  te::Problem pb;
  te::TrafficMatrix tm;
};

SmallInstance make_small(const std::string& topo, int n_demands) {
  auto g = topo::make_topology(topo);
  auto demands = traffic::sample_demands(g, n_demands, 7);
  te::Problem pb(std::move(g), std::move(demands), 4);
  traffic::TraceConfig tc;
  tc.n_intervals = 1;
  auto trace = traffic::generate_trace(pb, tc);
  traffic::calibrate_capacities(pb, trace, 1.6);
  return {topo, std::move(pb), trace.at(0)};
}

core::TealScheme make_untrained(const te::Problem& pb, std::uint64_t seed = 42) {
  return core::TealScheme(
      pb, std::make_unique<core::TealModel>(core::TealModelConfig{}, pb.k_paths(), seed),
      core::TealSchemeConfig{});
}

bool bytes_equal(const te::Allocation& a, const te::Allocation& b) {
  return a.split.size() == b.split.size() &&
         (a.split.empty() ||
          std::memcmp(a.split.data(), b.split.data(),
                      a.split.size() * sizeof(double)) == 0);
}

TEST(Precision, F32WithinBoundsOnAllTopologies) {
  // The five bundled WANs (Table 1), scaled to small demand sets so the
  // whole suite stays fast; every code path matches full scale.
  const std::vector<std::pair<std::string, int>> topos = {
      {"B4", 40}, {"SWAN", 80}, {"UsCarrier", 80}, {"Kdl", 50}, {"ASN", 50}};
  for (const auto& [name, nd] : topos) {
    SCOPED_TRACE(name);
    auto inst = make_small(name, nd);
    auto scheme = make_untrained(inst.pb);

    te::Allocation a64 = scheme.solve(inst.pb, inst.tm);
    scheme.set_precision(te::Precision::f32);
    ASSERT_EQ(scheme.precision(), te::Precision::f32);
    te::Allocation a32 = scheme.solve(inst.pb, inst.tm);

    ASSERT_EQ(a32.split.size(), a64.split.size());
    double max_abs = 0.0;
    for (std::size_t i = 0; i < a64.split.size(); ++i) {
      max_abs = std::max(max_abs, std::abs(a64.split[i] - a32.split[i]));
    }
    EXPECT_LE(max_abs, kSplitAbsBound) << "max split error " << max_abs;

    const double f64_obj = te::total_feasible_flow(inst.pb, inst.tm, a64);
    const double f32_obj = te::total_feasible_flow(inst.pb, inst.tm, a32);
    ASSERT_GT(f64_obj, 0.0);
    EXPECT_LE(std::abs(f64_obj - f32_obj) / f64_obj, kObjectiveRelBound)
        << "f64 " << f64_obj << " vs f32 " << f32_obj;

    // Switching back restores the reference path bit-for-bit: the f32 run
    // must not have perturbed any f64 state.
    scheme.set_precision(te::Precision::f64);
    te::Allocation again = scheme.solve(inst.pb, inst.tm);
    EXPECT_TRUE(bytes_equal(a64, again));
  }
}

TEST(Precision, Bf16WithinBoundsOnAllTopologies) {
  // Same contract as the f32 sweep, at the bf16 storage bounds, and the f64
  // reference must come back byte-identical after the bf16 run (toggling the
  // knob must not perturb any f64 state).
  const std::vector<std::pair<std::string, int>> topos = {
      {"B4", 40}, {"SWAN", 80}, {"UsCarrier", 80}, {"Kdl", 50}, {"ASN", 50}};
  for (const auto& [name, nd] : topos) {
    SCOPED_TRACE(name);
    auto inst = make_small(name, nd);
    auto scheme = make_untrained(inst.pb);

    te::Allocation a64 = scheme.solve(inst.pb, inst.tm);
    scheme.set_precision(te::Precision::bf16);
    ASSERT_EQ(scheme.precision(), te::Precision::bf16);
    te::Allocation a16 = scheme.solve(inst.pb, inst.tm);

    ASSERT_EQ(a16.split.size(), a64.split.size());
    double max_abs = 0.0;
    for (std::size_t i = 0; i < a64.split.size(); ++i) {
      max_abs = std::max(max_abs, std::abs(a64.split[i] - a16.split[i]));
    }
    EXPECT_LE(max_abs, kBf16SplitAbsBound) << "max split error " << max_abs;

    const double f64_obj = te::total_feasible_flow(inst.pb, inst.tm, a64);
    const double b16_obj = te::total_feasible_flow(inst.pb, inst.tm, a16);
    ASSERT_GT(f64_obj, 0.0);
    EXPECT_LE(std::abs(f64_obj - b16_obj) / f64_obj, kBf16ObjectiveRelBound)
        << "f64 " << f64_obj << " vs bf16 " << b16_obj;

    scheme.set_precision(te::Precision::f64);
    te::Allocation again = scheme.solve(inst.pb, inst.tm);
    EXPECT_TRUE(bytes_equal(a64, again));
  }
}

TEST(Precision, Bf16SolveDeterministicAndShardInvariant) {
  auto inst = make_small("SWAN", 80);
  auto scheme = make_untrained(inst.pb);
  scheme.set_precision(te::Precision::bf16);

  scheme.set_shard_count(1);
  te::Allocation seq = scheme.solve(inst.pb, inst.tm);
  te::Allocation seq2 = scheme.solve(inst.pb, inst.tm);
  EXPECT_TRUE(bytes_equal(seq, seq2)) << "bf16 solve must be deterministic";

  for (int shards : {2, 3, 5}) {
    SCOPED_TRACE(shards);
    scheme.set_shard_count(shards);
    te::Allocation sharded = scheme.solve(inst.pb, inst.tm);
    EXPECT_TRUE(bytes_equal(seq, sharded));
  }
}

TEST(Precision, Bf16DiffersFromBothF64AndF32) {
  // bf16 must be a genuinely third arithmetic: not silently f64, and not
  // silently the f32 path with unrounded weights.
  auto inst = make_small("SWAN", 80);
  auto scheme = make_untrained(inst.pb);
  te::Allocation a64 = scheme.solve(inst.pb, inst.tm);
  scheme.set_precision(te::Precision::f32);
  te::Allocation a32 = scheme.solve(inst.pb, inst.tm);
  scheme.set_precision(te::Precision::bf16);
  te::Allocation a16 = scheme.solve(inst.pb, inst.tm);
  EXPECT_FALSE(bytes_equal(a64, a16));
  EXPECT_FALSE(bytes_equal(a32, a16));
}

TEST(Precision, F32SolveDeterministicAndShardInvariant) {
  auto inst = make_small("SWAN", 80);
  auto scheme = make_untrained(inst.pb);
  scheme.set_precision(te::Precision::f32);

  scheme.set_shard_count(1);
  te::Allocation seq = scheme.solve(inst.pb, inst.tm);
  te::Allocation seq2 = scheme.solve(inst.pb, inst.tm);
  EXPECT_TRUE(bytes_equal(seq, seq2)) << "f32 solve must be deterministic";

  // The sharding bit-identity contract extends to the narrowed path: shards
  // write disjoint rows and reductions stay sequential, in f32 exactly as in
  // f64.
  for (int shards : {2, 3, 5}) {
    SCOPED_TRACE(shards);
    scheme.set_shard_count(shards);
    te::Allocation sharded = scheme.solve(inst.pb, inst.tm);
    EXPECT_TRUE(bytes_equal(seq, sharded));
  }
}

TEST(Precision, F32ActuallyDiffersFromF64) {
  // Guard against the f32 path silently degrading to f64 (e.g. a future
  // refactor dropping the narrowed kernels): logits pass through float
  // rounding, so on a real topology at least one split must move.
  auto inst = make_small("SWAN", 80);
  auto scheme = make_untrained(inst.pb);
  te::Allocation a64 = scheme.solve(inst.pb, inst.tm);
  scheme.set_precision(te::Precision::f32);
  te::Allocation a32 = scheme.solve(inst.pb, inst.tm);
  EXPECT_FALSE(bytes_equal(a64, a32));
}

TEST(Precision, KnobSemantics) {
  auto inst = make_small("B4", 30);
  auto scheme = make_untrained(inst.pb);
  EXPECT_TRUE(scheme.supports_precision(te::Precision::f64));
  EXPECT_TRUE(scheme.supports_precision(te::Precision::f32));
  EXPECT_TRUE(scheme.supports_precision(te::Precision::bf16));
  EXPECT_EQ(scheme.precision(), te::Precision::f64);

  // LP baselines are f64-only and ignore the knob.
  baselines::LpAllScheme lp_all;
  EXPECT_TRUE(lp_all.supports_precision(te::Precision::f64));
  EXPECT_FALSE(lp_all.supports_precision(te::Precision::f32));
  EXPECT_FALSE(lp_all.supports_precision(te::Precision::bf16));
  lp_all.set_precision(te::Precision::f32);
  EXPECT_EQ(lp_all.precision(), te::Precision::f64);
  lp_all.set_precision(te::Precision::bf16);
  EXPECT_EQ(lp_all.precision(), te::Precision::f64);

  EXPECT_STREQ(te::precision_name(te::Precision::f32), "f32");
  EXPECT_STREQ(te::precision_name(te::Precision::f64), "f64");
  EXPECT_STREQ(te::precision_name(te::Precision::bf16), "bf16");
}

TEST(Precision, SchemeOverVariantModelReportsNoF32) {
  // Regression: a TealScheme wrapping a Figure 14 ablation model (no
  // narrowed forward) must not claim f32 support — otherwise an f32-vs-f64
  // comparison against it would silently measure f64 twice. set_precision
  // follows the knob contract: unsupported values are ignored, so
  // precision() stays honest about what solves actually run.
  auto inst = make_small("B4", 30);
  core::TealScheme scheme(
      inst.pb, std::make_unique<core::NaiveDnnModel>(core::NaiveDnnConfig{}, inst.pb),
      core::TealSchemeConfig{}, "Teal-DNN");
  EXPECT_FALSE(scheme.supports_precision(te::Precision::f32));
  EXPECT_FALSE(scheme.supports_precision(te::Precision::bf16));
  scheme.set_precision(te::Precision::f32);
  EXPECT_EQ(scheme.precision(), te::Precision::f64);
  scheme.set_precision(te::Precision::bf16);
  EXPECT_EQ(scheme.precision(), te::Precision::f64);
  EXPECT_NO_THROW(scheme.solve(inst.pb, inst.tm));
}

TEST(Precision, OnlineConfigAppliesAndRestoresPrecision) {
  // The config knob is scoped: the run executes at f32, the scheme's own
  // setting comes back afterwards (same discipline as the shard knob).
  auto g = topo::make_b4();
  auto demands = traffic::sample_demands(g, 30, 7);
  te::Problem pb(std::move(g), std::move(demands), 4);
  traffic::TraceConfig tc;
  tc.n_intervals = 3;
  auto trace = traffic::generate_trace(pb, tc);
  auto scheme = make_untrained(pb);

  sim::OnlineConfig cfg;
  cfg.precision = te::Precision::f32;
  auto res = sim::run_online(scheme, pb, trace, cfg);
  EXPECT_EQ(static_cast<int>(res.intervals.size()), trace.size());
  EXPECT_EQ(scheme.precision(), te::Precision::f64) << "knob must be restored";

  // Default config leaves a scheme-level f32 setting untouched.
  scheme.set_precision(te::Precision::f32);
  (void)sim::run_online(scheme, pb, trace, sim::OnlineConfig{});
  EXPECT_EQ(scheme.precision(), te::Precision::f32);
}

TEST(Precision, ServedConfigAppliesAndRestoresPrecision) {
  auto g = topo::make_b4();
  auto demands = traffic::sample_demands(g, 30, 7);
  te::Problem pb(std::move(g), std::move(demands), 4);
  traffic::TraceConfig tc;
  tc.n_intervals = 4;
  auto trace = traffic::generate_trace(pb, tc);
  auto scheme = make_untrained(pb);

  sim::ServedFleetConfig cfg;
  cfg.total_replicas = 1;
  sim::ServedFleetResult::Tenant res;
  {
    te::Scheme::ScopedPrecision f32(scheme, te::Precision::f32);
    res = sim::run_served_fleet({{"B4", &pb, &trace, &scheme}}, cfg).tenants[0];
  }
  EXPECT_EQ(res.stats.completed, res.stats.accepted);
  EXPECT_EQ(scheme.precision(), te::Precision::f64) << "knob must be restored";

  // The served f32 allocations match a direct f32 solve (same narrowed
  // path through a replica workspace).
  scheme.set_precision(te::Precision::f32);
  for (int t = 0; t < trace.size(); ++t) {
    if (res.accepted[static_cast<std::size_t>(t)] == 0) continue;
    te::Allocation direct = scheme.solve(pb, trace.at(t));
    EXPECT_TRUE(bytes_equal(direct, res.allocs[static_cast<std::size_t>(t)]));
  }
}

TEST(Precision, OnlineAndServedConfigsPlumbBf16) {
  // The scoped-precision discipline of the PR 4 f32 knob carries to bf16
  // unchanged: the run executes narrowed, the scheme's own setting returns.
  auto g = topo::make_b4();
  auto demands = traffic::sample_demands(g, 30, 7);
  te::Problem pb(std::move(g), std::move(demands), 4);
  traffic::TraceConfig tc;
  tc.n_intervals = 3;
  auto trace = traffic::generate_trace(pb, tc);
  auto scheme = make_untrained(pb);

  sim::OnlineConfig ocfg;
  ocfg.precision = te::Precision::bf16;
  auto ores = sim::run_online(scheme, pb, trace, ocfg);
  EXPECT_EQ(static_cast<int>(ores.intervals.size()), trace.size());
  EXPECT_EQ(scheme.precision(), te::Precision::f64) << "knob must be restored";

  sim::ServedFleetConfig scfg;
  scfg.total_replicas = 1;
  sim::ServedFleetResult::Tenant sres;
  {
    te::Scheme::ScopedPrecision bf16(scheme, te::Precision::bf16);
    sres = sim::run_served_fleet({{"B4", &pb, &trace, &scheme}}, scfg).tenants[0];
  }
  EXPECT_EQ(sres.stats.completed, sres.stats.accepted);
  EXPECT_EQ(scheme.precision(), te::Precision::f64) << "knob must be restored";

  // Served bf16 allocations match a direct bf16 solve through the same
  // narrowed path.
  scheme.set_precision(te::Precision::bf16);
  for (int t = 0; t < trace.size(); ++t) {
    if (sres.accepted[static_cast<std::size_t>(t)] == 0) continue;
    te::Allocation direct = scheme.solve(pb, trace.at(t));
    EXPECT_TRUE(bytes_equal(direct, sres.allocs[static_cast<std::size_t>(t)]));
  }
}

TEST(Precision, WarmNarrowedSolvesAllocateNothing) {
  // The blocked kernels and the packed panels live inside the workspace
  // allocation contract: once warm, f32 and bf16 solves must not touch the
  // heap at all (panels are model-side snapshots built at set_precision
  // time, outside any solve).
  auto inst = make_small("B4", 30);
  auto scheme = make_untrained(inst.pb);
  te::Allocation out;
  for (te::Precision p : {te::Precision::f32, te::Precision::bf16}) {
    SCOPED_TRACE(te::precision_name(p));
    scheme.set_precision(p);
    scheme.solve_into(inst.pb, inst.tm, out);
    scheme.solve_into(inst.pb, inst.tm, out);  // second pass: steady state
    util::AllocCounter allocs;
    scheme.solve_into(inst.pb, inst.tm, out);
    EXPECT_EQ(allocs.count(), 0u)
        << "warm narrowed solve_into must not touch the heap";
  }
}

TEST(Precision, ColdArenaNarrowedSolveStaysO1Allocations) {
  // Replica cold-start with the narrowed forward: a fresh workspace against
  // a bound arena grows everything — including the blocked activations in
  // fwd32 — in O(1) heap allocations, same budget as the f64 contract in
  // tests/workspace_test.cpp. set_precision runs before the window: weight
  // packing is a model-side, once-per-process cost, not a replica cost.
  auto inst = make_small("B4", 30);
  auto scheme = make_untrained(inst.pb);
  for (te::Precision p : {te::Precision::f32, te::Precision::bf16}) {
    SCOPED_TRACE(te::precision_name(p));
    scheme.set_precision(p);
    te::Allocation ref, out;
    {
      core::SolveWorkspace heap_ws;
      scheme.solve_replica(heap_ws, inst.pb, inst.tm, ref);
    }
    out = ref;  // pre-sized output, as in the f64 cold-start test
    util::Arena arena;
    arena.reserve(1u << 20);
    util::ArenaScope bind(&arena);
    core::SolveWorkspace ws;
    util::AllocCounter allocs;
    scheme.solve_replica(ws, inst.pb, inst.tm, out);
    EXPECT_LE(allocs.count(), 5u)
        << "cold narrowed solve against a bound arena must stay O(1) heap allocations";
    EXPECT_GT(arena.used(), 0u);
    EXPECT_TRUE(bytes_equal(ref, out)) << "arena must not change the arithmetic";
    allocs.reset();
    scheme.solve_replica(ws, inst.pb, inst.tm, out);
    EXPECT_EQ(allocs.count(), 0u);
  }
}

TEST(Precision, ForwardF32RequiresPreparedWeights) {
  auto inst = make_small("B4", 30);
  core::TealModel model({}, inst.pb.k_paths(), 42);
  core::ModelForward fwd;
  const core::ShardPlan plan = core::ShardPlan::sequential(inst.pb.num_demands());
  EXPECT_THROW(
      model.forward_narrowed(inst.pb, inst.tm, nullptr, fwd, te::Precision::f32, plan),
      std::logic_error);
  model.prepare(te::Precision::f32);
  EXPECT_NO_THROW(
      model.forward_narrowed(inst.pb, inst.tm, nullptr, fwd, te::Precision::f32, plan));
}

TEST(Precision, ForwardBf16RequiresPreparedWeights) {
  auto inst = make_small("B4", 30);
  core::TealModel model({}, inst.pb.k_paths(), 42);
  core::ModelForward fwd;
  const core::ShardPlan plan = core::ShardPlan::sequential(inst.pb.num_demands());
  EXPECT_THROW(
      model.forward_narrowed(inst.pb, inst.tm, nullptr, fwd, te::Precision::bf16, plan),
      std::logic_error);
  // prepare(f32) alone is not enough — the bf16 snapshots are separate state.
  model.prepare(te::Precision::f32);
  EXPECT_THROW(
      model.forward_narrowed(inst.pb, inst.tm, nullptr, fwd, te::Precision::bf16, plan),
      std::logic_error);
  model.prepare(te::Precision::bf16);
  EXPECT_NO_THROW(
      model.forward_narrowed(inst.pb, inst.tm, nullptr, fwd, te::Precision::bf16, plan));
}

TEST(Precision, F32LogitsTrackF64Logits) {
  auto inst = make_small("B4", 30);
  core::TealModel model({}, inst.pb.k_paths(), 42);
  model.prepare(te::Precision::f32);
  const core::ShardPlan plan = core::ShardPlan::sequential(inst.pb.num_demands());
  core::ModelForward f64fwd, f32fwd;
  model.forward_ws(inst.pb, inst.tm, nullptr, f64fwd, plan);
  model.forward_narrowed(inst.pb, inst.tm, nullptr, f32fwd, te::Precision::f32, plan);
  ASSERT_EQ(f32fwd.logits.rows(), f64fwd.logits.rows());
  ASSERT_EQ(f32fwd.logits.cols(), f64fwd.logits.cols());
  for (std::size_t i = 0; i < f64fwd.logits.data().size(); ++i) {
    EXPECT_NEAR(f32fwd.logits.data()[i], f64fwd.logits.data()[i], 1e-3);
  }
  // The mask is precision-oblivious: identical bytes.
  ASSERT_EQ(f32fwd.mask.data().size(), f64fwd.mask.data().size());
  EXPECT_EQ(0, std::memcmp(f32fwd.mask.data().data(), f64fwd.mask.data().data(),
                           f64fwd.mask.data().size() * sizeof(double)));
}

TEST(Precision, BackwardRejectsF32Cache) {
  // An f32 inference cache holds float activations; back-propagating through
  // it would reinterpret garbage. The boundary throws instead.
  auto inst = make_small("B4", 30);
  core::TealModel model({}, inst.pb.k_paths(), 42);
  model.prepare(te::Precision::f32);
  core::ModelForward fwd;
  model.forward_narrowed(inst.pb, inst.tm, nullptr, fwd, te::Precision::f32,
                         core::ShardPlan::sequential(inst.pb.num_demands()));
  nn::Mat grad(fwd.logits.rows(), fwd.logits.cols(), 1.0);
  EXPECT_THROW(model.backward_m(inst.pb, fwd, grad), std::logic_error);
}

// ---- f64 kernel bit-stability (the TEAL_SIMD=ON identity guard) ----------

// Strictly ordered scalar references, written independently of mat.cpp. The
// f64 kernels must match them to the bit under every build flag — this is
// what "TEAL_SIMD only vectorizes f32 reductions" means operationally.
void ref_linear_forward(const nn::Mat& x, const nn::Mat& w, const std::vector<double>& b,
                        nn::Mat& y) {
  y.resize(x.rows(), w.rows());
  for (int r = 0; r < x.rows(); ++r) {
    for (int o = 0; o < w.rows(); ++o) {
      double acc = b[static_cast<std::size_t>(o)];
      for (int i = 0; i < x.cols(); ++i) acc += x.at(r, i) * w.at(o, i);
      y.at(r, o) = acc;
    }
  }
}

TEST(Precision, F64LinearForwardBitIdenticalToOrderedReference) {
  util::Rng rng(17);
  const int n = 600, in = 24, out = 24;  // above the pool-parallel threshold
  nn::Mat x(n, in), w(out, in);
  std::vector<double> b(out);
  for (auto& v : x.data()) v = rng.normal();
  for (auto& v : w.data()) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  nn::Mat y, ref;
  nn::linear_forward(x, w, b, y);
  ref_linear_forward(x, w, b, ref);
  ASSERT_EQ(y.data().size(), ref.data().size());
  EXPECT_EQ(0, std::memcmp(y.data().data(), ref.data().data(),
                           y.data().size() * sizeof(double)));
}

// Fills `m` with normals, every third entry an exact zero and every seventh
// a -0.0: the values the zero-skip and the +0.0 seeds must treat exactly as
// the ordered reference does.
void fill_with_zeros(nn::Mat& m, util::Rng& rng) {
  for (std::size_t i = 0; i < m.size(); ++i) {
    const double v = rng.normal();
    m.data()[i] = i % 7 == 0 ? -0.0 : i % 3 == 0 ? 0.0 : v;
  }
}

// Ordered backward reference: gx(r, i) sums over o ascending from +0.0,
// gw(o, i) and gb(o) add over r ascending onto their current values, and
// gradient entries equal to 0.0 contribute nothing.
void ref_linear_backward(const nn::Mat& x, const nn::Mat& w, const nn::Mat& gy, nn::Mat& gx,
                         nn::Mat& gw, std::vector<double>& gb) {
  gx.resize(x.rows(), x.cols());
  for (int r = 0; r < x.rows(); ++r) {
    for (int i = 0; i < x.cols(); ++i) {
      double acc = 0.0;
      for (int o = 0; o < w.rows(); ++o) {
        if (gy.at(r, o) != 0.0) acc += gy.at(r, o) * w.at(o, i);
      }
      gx.at(r, i) = acc;
    }
  }
  for (int o = 0; o < w.rows(); ++o) {
    for (int i = 0; i < x.cols(); ++i) {
      double acc = gw.at(o, i);
      for (int r = 0; r < x.rows(); ++r) {
        if (gy.at(r, o) != 0.0) acc += gy.at(r, o) * x.at(r, i);
      }
      gw.at(o, i) = acc;
    }
    double acc = gb[static_cast<std::size_t>(o)];
    for (int r = 0; r < x.rows(); ++r) {
      if (gy.at(r, o) != 0.0) acc += gy.at(r, o);
    }
    gb[static_cast<std::size_t>(o)] = acc;
  }
}

bool same_bytes(const nn::Mat& a, const nn::Mat& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data().data(), b.data().data(), a.size() * sizeof(double)) == 0;
}

// Every input width the kernels specialize, plus 7 and 300, which run the
// runtime-width body; row counts on both sides of the pool-parallel
// threshold (512 rows).
constexpr int kKernelWidths[] = {2, 4, 6, 8, 10, 12, 16, 20, 24, 7, 300};
constexpr int kKernelRows[] = {37, 600};

TEST(Precision, F64LinearBackwardBitIdenticalToOrderedReference) {
  util::Rng rng(37);
  const double inf = std::numeric_limits<double>::infinity();
  for (int in : kKernelWidths) {
    for (int n : kKernelRows) {
      const int out = 9;
      nn::Mat x(n, in), w(out, in), gy(n, out), gw(out, in);
      std::vector<double> gb(out);
      fill_with_zeros(x, rng);
      fill_with_zeros(w, rng);
      fill_with_zeros(gy, rng);
      for (auto& v : gw.data()) v = rng.normal();
      for (auto& v : gb) v = rng.normal();
      // Output 4's gradient is zero on every row, so its inf weight must be
      // skipped, never multiplied (0 * inf would be NaN).
      for (int r = 0; r < n; ++r) gy.at(r, 4) = r % 2 == 0 ? 0.0 : -0.0;
      w.at(4, in / 2) = inf;

      nn::Mat gx(n, in, std::numeric_limits<double>::quiet_NaN());  // must be overwritten
      nn::Mat ref_gx, ref_gw = gw;
      std::vector<double> ref_gb = gb;
      nn::linear_backward(x, w, gy, gx, gw, gb);
      ref_linear_backward(x, w, gy, ref_gx, ref_gw, ref_gb);
      const std::string at = "in=" + std::to_string(in) + " n=" + std::to_string(n);
      EXPECT_TRUE(same_bytes(gx, ref_gx)) << at;
      EXPECT_TRUE(same_bytes(gw, ref_gw)) << at;
      EXPECT_EQ(0, std::memcmp(gb.data(), ref_gb.data(), gb.size() * sizeof(double))) << at;
    }
  }
}

TEST(Precision, F64LinearForwardRowsBitIdenticalToOrderedReferenceAtEveryWidth) {
  // The forward at every specialized width and the runtime-width body, as a
  // full call and as two row ranges.
  util::Rng rng(41);
  for (int in : kKernelWidths) {
    for (int n : kKernelRows) {
      const int out = 11;
      nn::Mat x(n, in), w(out, in);
      std::vector<double> b(out);
      fill_with_zeros(x, rng);
      fill_with_zeros(w, rng);
      for (auto& v : b) v = rng.normal();
      nn::Mat full, ranged(n, out), ref;
      nn::linear_forward(x, w, b, full);
      nn::linear_forward_rows(x, w, b, ranged, 0, n / 3);
      nn::linear_forward_rows(x, w, b, ranged, n / 3, n);
      ref_linear_forward(x, w, b, ref);
      const std::string at = "in=" + std::to_string(in) + " n=" + std::to_string(n);
      EXPECT_TRUE(same_bytes(full, ref)) << at;
      EXPECT_TRUE(same_bytes(ranged, ref)) << at;
    }
  }
}

TEST(Precision, F64LeakyReluBitIdenticalToOrderedReference) {
  util::Rng rng(19);
  nn::Mat x(64, 48);
  for (auto& v : x.data()) v = rng.normal();
  nn::Mat y;
  nn::leaky_relu_forward(x, y, 0.01);
  for (std::size_t i = 0; i < x.data().size(); ++i) {
    const double expect = x.data()[i] >= 0.0 ? x.data()[i] : 0.01 * x.data()[i];
    EXPECT_EQ(y.data()[i], expect);
  }
}

TEST(Precision, F64SoftmaxBitIdenticalToOrderedReference) {
  util::Rng rng(23);
  const int n = 40, k = 4;
  nn::Mat logits(n, k), mask(n, k, 1.0);
  for (auto& v : logits.data()) v = rng.normal();
  mask.at(3, 1) = 0.0;
  nn::Mat probs;
  nn::softmax_rows(logits, mask, probs);
  for (int r = 0; r < n; ++r) {
    double mx = std::numeric_limits<double>::lowest();
    for (int c = 0; c < k; ++c) {
      if (mask.at(r, c) != 0.0) mx = std::max(mx, logits.at(r, c));
    }
    double denom = 0.0;
    std::vector<double> e(static_cast<std::size_t>(k), 0.0);
    for (int c = 0; c < k; ++c) {
      if (mask.at(r, c) != 0.0) {
        e[static_cast<std::size_t>(c)] = std::exp(logits.at(r, c) - mx);
        denom += e[static_cast<std::size_t>(c)];
      }
    }
    for (int c = 0; c < k; ++c) {
      EXPECT_EQ(probs.at(r, c), denom > 0.0 ? e[static_cast<std::size_t>(c)] / denom : 0.0);
    }
  }
}

// ---- f32 kernels ---------------------------------------------------------

TEST(Precision, F32LinearForwardMatchesF64WithinTolerance) {
  util::Rng rng(29);
  const int n = 600, in = 24, out = 24;
  nn::Mat x(n, in), w(out, in);
  std::vector<double> b(out);
  for (auto& v : x.data()) v = rng.normal();
  for (auto& v : w.data()) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  nn::MatF xf(n, in), wf(out, in);
  std::vector<float> bf(b.size());
  for (std::size_t i = 0; i < x.data().size(); ++i) xf.data()[i] = static_cast<float>(x.data()[i]);
  for (std::size_t i = 0; i < w.data().size(); ++i) wf.data()[i] = static_cast<float>(w.data()[i]);
  for (std::size_t i = 0; i < b.size(); ++i) bf[i] = static_cast<float>(b[i]);
  nn::PackedMatF wp;
  nn::pack_weights(wf, wp);
  nn::Mat y;
  nn::MatF yf;
  nn::linear_forward(x, w, b, y);
  nn::linear_forward_blocked(xf, wp, bf, yf);
  for (std::size_t i = 0; i < y.data().size(); ++i) {
    EXPECT_NEAR(static_cast<double>(yf.data()[i]), y.data()[i], 1e-4)
        << "i=" << i;
  }
}

}  // namespace
}  // namespace teal

// asn-solve — closed loop, one caller, in process, on the ASN bench instance
// (the paper's headline setting). Timed: TealScheme::solve_into calls
// cycling the held-out (test) matrices in a seeded order, first at the
// default shard knob (auto: demand shards fanned over the pool), then at
// knob 1 (demand stages sequential on the caller), then solve_batch over a
// fixed seeded list of them. The knob-1 solve carries the bound: the sharded
// solve's ~19 fork-joins wait on idle vCPUs being scheduled, so on a shared
// host its latency follows the neighbours' load. The traced run interleaves each sharded solve with a
// stage-by-stage replay of it (TealScheme::solve_with) through the public
// calls it is made of, with the same shard plan and its own workspace.
#include <algorithm>
#include <cstdio>
#include <span>

#include "common.h"
#include "core/policy_net.h"
#include "core/teal_scheme.h"
#include "te/objective.h"
#include "util/alloc_hook.h"
#include "util/stats.h"

namespace perfbench {

namespace {

constexpr int kBatchCopies = 2;  // each test matrix appears twice in the batch list

struct StageTimes {
  double forward = 0, softmax = 0, admm = 0, total = 0;  // seconds
  double busy = 0, idle = 0;                             // shard seconds
  double balance = 1.0;                                  // mean/max shard busy
  double residual_ratio = 0.0;
  std::uint64_t stages = 0;
};

// TealScheme::solve_with, one public call per stage, timed from outside.
StageTimes replay_solve(core::TealScheme& scheme, const te::Problem& pb,
                        const te::TrafficMatrix& tm, core::SolveWorkspace& ws,
                        te::Allocation& out) {
  const core::Model& model = scheme.model();
  const int nd = pb.num_demands();
  const int n = scheme.shard_count() != 0 ? scheme.shard_count()
                                          : core::auto_shard_count(nd, pb.total_paths());
  const core::ShardPlan plan = core::ShardPlan::make(nd, n);
  StageTimes st;
  const double t0 = now_s();
  ws.prepare_shards(plan);
  core::ShardStat* stats = ws.shard_stats.data();
  auto busy_sum = [&] {
    double b = 0;
    for (int s = 0; s < plan.n_shards; ++s) b += stats[s].busy_seconds;
    return b;
  };
  pb.capacities_into(ws.caps);
  model.forward_ws(pb, tm, &ws.caps, ws.fwd, plan, stats);
  const double t1 = now_s();
  const double b1 = busy_sum();
  ws.splits.resize(ws.fwd.logits.rows(), ws.fwd.logits.cols());
  out.split.resize(static_cast<std::size_t>(pb.total_paths()));
  core::run_sharded(plan, stats, [&](int /*shard*/, int d0, int d1) {
    core::check_policy_mask_rows(pb, ws.fwd.mask, d0, d1);
    teal::nn::softmax_rows_range(ws.fwd.logits, ws.fwd.mask, ws.splits, d0, d1);
    core::allocation_from_splits_rows(pb, ws.splits, out, d0, d1);
  });
  const double t2 = now_s();
  const double b2 = busy_sum();
  const core::Admm::Residuals r =
      scheme.admm().fine_tune(tm, ws.caps, out, ws.admm, plan, stats);
  const double t3 = now_s();
  const double b3 = busy_sum();

  const double shards = plan.n_shards;
  st.forward = t1 - t0;
  st.softmax = t2 - t1;
  st.admm = t3 - t2;
  st.total = t3 - t0;
  st.busy = b3;
  st.idle = shards * (t1 - t0) - b1 + shards * (t2 - t1) - (b2 - b1) +
            shards * (t3 - t2) - (b3 - b2);
  double max_busy = 0;
  for (int s = 0; s < plan.n_shards; ++s) max_busy = std::max(max_busy, stats[s].busy_seconds);
  st.balance = max_busy > 0 ? (b3 / shards) / max_busy : 1.0;
  st.residual_ratio = r.before > 0 ? r.after / r.before : 0.0;
  st.stages = stats[0].stages;
  return st;
}

struct Setup {
  Instance inst;
  std::unique_ptr<core::TealScheme> scheme;
  std::vector<te::TrafficMatrix> batch;  // the fixed solve_batch list
  std::vector<int> order;                // seeded cycle over the test matrices
};

void build(Setup& s, const Args& args, Spans& spans) {
  s.inst = build_instance("ASN", spans);
  auto model = train_bench_model(s.inst, spans);
  s.scheme = std::make_unique<core::TealScheme>(*s.inst.pb, std::move(model),
                                                core::TealSchemeConfig{});
  const auto& test = s.inst.split.test;
  s.order = seeded_permutation(test.size(), args.seed, 1);
  s.batch.clear();
  for (int c = 0; c < kBatchCopies; ++c) {
    for (int t : seeded_permutation(test.size(), args.seed, 2 + c)) s.batch.push_back(test.at(t));
  }
  // Warm-up: the single-solve workspace (both shard plans) and every batch
  // worker workspace.
  te::Allocation out;
  s.scheme->set_shard_count(1);
  s.scheme->solve_into(*s.inst.pb, test.at(0), out);
  s.scheme->set_shard_count(0);
  s.scheme->solve_into(*s.inst.pb, test.at(0), out);
  s.scheme->solve_batch(*s.inst.pb, std::span<const te::TrafficMatrix>(s.batch));
}

}  // namespace

void run_asn_solve(const Args& args, Report& report) {
  Spans spans;
  Setup s;
  std::vector<double> setup_s;
  std::vector<std::vector<double>> first_weights;
  for (int rep = 0; rep < args.setups; ++rep) {
    // Free the previous repetition first (untimed); the scheme references
    // the instance, so it goes first.
    s.scheme.reset();
    s.inst = Instance{};
    const double t0 = now_s();
    build(s, args, spans);
    setup_s.push_back(now_s() - t0);
    spans.next_repetition();
    std::printf("  setup %d: %.3f s\n", rep, setup_s.back());
    if (rep == 0) first_weights = model_weights(s.scheme->model());
    check(model_weights(s.scheme->model()) == first_weights,
          "asn-solve: training is not deterministic across setups");
  }
  const te::Problem& pb = *s.inst.pb;
  const auto& test = s.inst.split.test;
  std::printf("  ASN: %d demands, %d paths, %d test matrices, shard knob %d (auto)\n",
              pb.num_demands(), pb.total_paths(), test.size(), s.scheme->shard_count());

  // --- timed: solve_into sharded, solve_into at knob 1, solve_batch ---------
  const double shard_budget = 0.4 * args.seconds, seq_budget = 0.3 * args.seconds,
               batch_budget = 0.3 * args.seconds;
  te::Allocation out, replay_out;
  core::SolveWorkspace replay_ws;
  std::vector<double> solve_ms, stage_total_ms, fwd_ms, soft_ms, admm_ms, busy_ms, idle_ms,
      balance, resid, allocs;
  std::uint64_t stages = 0;
  std::uint64_t n_solves = 0;
  const double shard_start = now_s();
  while (now_s() - shard_start < shard_budget || solve_ms.size() < 100) {
    const te::TrafficMatrix& tm = test.at(s.order[n_solves % s.order.size()]);
    teal::util::AllocCounter counter;
    const double t0 = now_s();
    s.scheme->solve_into(pb, tm, out);
    solve_ms.push_back((now_s() - t0) * 1e3);
    if (args.trace) {
      allocs.push_back(static_cast<double>(counter.count()));
      const StageTimes st = replay_solve(*s.scheme, pb, tm, replay_ws, replay_out);
      check(same_bytes(out, replay_out),
            "asn-solve: traced stage replay differs from solve_into");
      stage_total_ms.push_back(st.total * 1e3);
      fwd_ms.push_back(st.forward * 1e3);
      soft_ms.push_back(st.softmax * 1e3);
      admm_ms.push_back(st.admm * 1e3);
      busy_ms.push_back(st.busy * 1e3);
      idle_ms.push_back(st.idle * 1e3);
      balance.push_back(st.balance);
      resid.push_back(st.residual_ratio);
      stages = st.stages;
    }
    ++n_solves;
  }

  std::vector<double> seq_ms;
  s.scheme->set_shard_count(1);
  const double seq_start = now_s();
  while (now_s() - seq_start < seq_budget || seq_ms.size() < 50) {
    const te::TrafficMatrix& tm = test.at(s.order[n_solves % s.order.size()]);
    const double t0 = now_s();
    s.scheme->solve_into(pb, tm, out);
    seq_ms.push_back((now_s() - t0) * 1e3);
    ++n_solves;
  }
  s.scheme->set_shard_count(0);

  std::vector<double> batch_rate, batch_solve_ms;
  std::vector<te::Allocation> batch_allocs;
  const double batch_start = now_s();
  while (now_s() - batch_start < batch_budget || batch_rate.size() < 5) {
    const double t0 = now_s();
    te::BatchSolve b = s.scheme->solve_batch(pb, std::span<const te::TrafficMatrix>(s.batch));
    batch_rate.push_back(static_cast<double>(s.batch.size()) / (now_s() - t0));
    for (double x : b.solve_seconds) batch_solve_ms.push_back(x * 1e3);
    batch_allocs = std::move(b.allocs);
  }

  // --- output checks (untimed) ----------------------------------------------
  std::vector<te::Allocation> ref(static_cast<std::size_t>(test.size()));
  std::vector<double> sat, sp_sat;
  for (int t = 0; t < test.size(); ++t) {
    auto& a = ref[static_cast<std::size_t>(t)];
    s.scheme->solve_into(pb, test.at(t), a);
    try {
      pb.validate_allocation(a);
    } catch (const std::exception& e) {
      check(false, std::string("asn-solve: infeasible allocation: ") + e.what());
    }
    replay_solve(*s.scheme, pb, test.at(t), replay_ws, replay_out);
    check(same_bytes(a, replay_out), "asn-solve: stage replay differs from solve_into");
    sat.push_back(te::satisfied_demand_pct(pb, test.at(t), a));
    sp_sat.push_back(te::satisfied_demand_pct(pb, test.at(t), pb.shortest_path_allocation()));
  }
  for (int c = 0; c < kBatchCopies; ++c) {
    const auto perm = seeded_permutation(test.size(), args.seed, 2 + c);
    for (int i = 0; i < test.size(); ++i) {
      check(same_bytes(batch_allocs[static_cast<std::size_t>(c * test.size() + i)],
                       ref[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])]),
            "asn-solve: solve_batch differs from solve_into");
    }
  }
  const double satisfied = teal::util::mean(sat);
  check(satisfied > teal::util::mean(sp_sat),
        "asn-solve: Teal satisfies less demand than shortest-path routing");
  report.count_op(n_solves + batch_rate.size() * s.batch.size(), 0);

  // --- metrics ----------------------------------------------------------------
  Report::describe("solve_into (solve_ms)", solve_ms);
  Report::describe("solve_into, shard knob 1", seq_ms);
  Report::describe("solve_batch per matrix", batch_solve_ms);
  std::printf("  solve_batch calls n=%zu, %zu matrices each\n", batch_rate.size(),
              s.batch.size());
  std::printf("  setup repetitions n=%zu\n", setup_s.size());
  if (!args.trace) {
    report.metric("setup_s", teal::util::median(setup_s), "s");
    report.metric("ops_per_s", teal::util::median(batch_rate), "1/s");
    report.metric("quality_pct", satisfied, "%");
    return;
  }
  report_setup_spans(report, spans);
  report.metric("bench.op_ms_p25", pct(seq_ms, 25), "ms");
  report.metric("bench.op_ms_p50", pct(seq_ms, 50), "ms");
  report.metric("bench.op_ms_p90", pct(seq_ms, 90), "ms");
  report.metric("bench.op_ms_p99", pct(seq_ms, 99), "ms");
  report.metric("te.solve_into_ms_p50", pct(solve_ms, 50), "ms");
  report.metric("te.solve_into_ms_p90", pct(solve_ms, 90), "ms");
  report.metric("core.shard_speedup", pct(seq_ms, 50) / pct(solve_ms, 50), "ratio");
  report.metric("core.forward_ms", pct(fwd_ms, 50), "ms");
  report.metric("core.softmax_ms", pct(soft_ms, 50), "ms");
  report.metric("core.admm_ms", pct(admm_ms, 50), "ms");
  report.metric("core.admm_residual_ratio", pct(resid, 50), "ratio");
  report.metric("core.shard_busy_ms", pct(busy_ms, 50), "ms");
  report.metric("core.shard_idle_ms", pct(idle_ms, 50), "ms");
  report.metric("core.shard_balance", pct(balance, 50), "ratio");
  report.metric("core.shard_stages", static_cast<double>(stages), "count");
  report.metric("util.warm_allocs", pct(allocs, 50), "count");
  report.metric("te.batch_solve_ms_p50", pct(batch_solve_ms, 50), "ms");
  report.metric("trace.overhead_pct",
                (pct(stage_total_ms, 50) / pct(solve_ms, 50) - 1.0) * 100.0, "%");
}

}  // namespace perfbench

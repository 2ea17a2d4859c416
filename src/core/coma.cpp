#include "core/coma.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "core/train_context.h"
#include "util/alloc_hook.h"
#include "util/thread_pool.h"

namespace teal::core {

namespace {

// Masked softmax of one row of k logits into `out` (entries at invalid slots
// are zeroed).
void row_softmax(const double* z, const double* mask, int k, double* out) {
  double mx = -1e300;
  for (int c = 0; c < k; ++c) {
    if (mask[c] != 0.0) mx = std::max(mx, z[c]);
  }
  double denom = 0.0;
  for (int c = 0; c < k; ++c) {
    if (mask[c] != 0.0) {
      out[c] = std::exp(z[c] - mx);
      denom += out[c];
    } else {
      out[c] = 0.0;
    }
  }
  if (denom > 0.0) {
    for (int c = 0; c < k; ++c) out[c] /= denom;
  }
}

// Per-lane counterfactual scratch. A "lane" is whichever unit of the step
// runs concurrently: a rollout chunk when the batch fans out, an inner
// demand shard when a lone rollout fans its advantage pass over the pool —
// never both at once, so one array serves both shapes.
struct CfLane {
  RewardSimulator::Scratch scratch;
  std::vector<double> zc;    // candidate logits
  std::vector<double> cand;  // candidate splits
};

}  // namespace

std::uint64_t coma_noise_seed(std::uint64_t seed, int epoch, int t, std::uint64_t tag) {
  // Domain-separated stream tree: the root is seed ^ domain so COMA's
  // exploration noise is decorrelated from any other consumer of the same
  // root seed, then one mix per level — epoch, rollout, demand-phase tag
  // (epoch/rollout tags offset by 1 to keep tag 0 distinct from the root).
  constexpr std::uint64_t kComaNoiseDomain = 5;
  const std::uint64_t per_epoch =
      util::Rng::mix_seed(seed ^ kComaNoiseDomain, static_cast<std::uint64_t>(epoch) + 1);
  const std::uint64_t per_rollout =
      util::Rng::mix_seed(per_epoch, static_cast<std::uint64_t>(t) + 1);
  return util::Rng::mix_seed(per_rollout, tag);
}

double evaluate_model(const Model& model, const te::Problem& pb,
                      const traffic::Trace& trace, te::Objective obj) {
  // The matrices fan out over the pool, one ModelForward per chunk; the
  // per-matrix scores are summed in matrix order afterwards, so the result
  // is bit-identical to a sequential loop for every pool size. Only the
  // 4-argument forward_ws is called: the sharded overload is the trainer's.
  const std::vector<double> caps = pb.capacities();
  std::vector<double> scores(static_cast<std::size_t>(trace.size()));
  util::ThreadPool::global().parallel_chunks(
      scores.size(), [&](std::size_t t0, std::size_t t1) {
        ModelForward fwd;
        for (std::size_t t = t0; t < t1; ++t) {
          const auto& tm = trace.at(static_cast<int>(t));
          model.forward_ws(pb, tm, &caps, fwd);
          auto alloc = allocation_from_splits(pb, splits_from_logits(fwd.logits, fwd.mask));
          scores[t] = te::objective_score(pb, tm, alloc, obj, &caps) / std::max(1e-9, tm.total());
        }
      });
  double total = 0.0;
  for (double s : scores) total += s;
  return total / std::max(1, trace.size());
}

TrainStats train_coma(Model& model, const te::Problem& pb, const traffic::Trace& train,
                      te::Objective obj, const ComaConfig& cfg) {
  const int k = model.k_paths();
  const int nd = pb.num_demands();
  nn::Adam adam(model.params(), cfg.lr);
  const std::vector<double> caps = pb.capacities();

  TrainContext ctx;
  ctx.prepare(model, pb, cfg.rollout_batch, cfg.workers);
  const int batch = ctx.rollout_batch();

  // Inner per-rollout demand plan: when the step's rollouts run concurrently
  // the outer fan-out owns the threads and each rollout stays sequential;
  // a lone rollout instead fans its per-demand stages (sampling, advantages,
  // gradient fill) over the otherwise-idle pool — the same axis-composition
  // rule as TealScheme::solve_batch. Either way results are bit-identical:
  // every per-demand value depends only on (rollout, demand)-keyed streams.
  const ShardPlan inner_auto =
      ShardPlan::make(nd, auto_shard_count(nd, pb.total_paths()));
  const ShardPlan inner_seq = ShardPlan::sequential(nd);

  // One RewardSimulator per rollout chunk (set_state is per-rollout mutable
  // state); one CfLane per concurrent lane.
  std::vector<RewardSimulator> sims;
  sims.reserve(static_cast<std::size_t>(ctx.workers()));
  for (int c = 0; c < ctx.workers(); ++c) sims.emplace_back(pb, obj);
  const int n_lanes = std::max(ctx.workers(), inner_auto.n_shards);
  std::vector<CfLane> lanes(static_cast<std::size_t>(n_lanes));
  for (auto& l : lanes) {
    l.scratch = sims.front().make_scratch();
    l.zc.resize(static_cast<std::size_t>(k));
    l.cand.resize(static_cast<std::size_t>(k));
  }

  TrainStats stats;
  double best_val = -std::numeric_limits<double>::infinity();
  std::vector<nn::Mat> best_params;
  int step_index = 0;
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    double reward_sum = 0.0;
    for (int t0 = 0; t0 < train.size(); t0 += batch) {
      const int n_active = std::min(batch, train.size() - t0);
      const ShardPlan& plan = ctx.chunks_for(n_active) > 1 ? inner_seq : inner_auto;
      util::AllocCounter step_allocs;

      adam.zero_grad();
      ctx.for_slots(n_active, [&](int s, int chunk) {
        const int t = t0 + s;
        const te::TrafficMatrix& tm = train.at(t);
        auto& slot = ctx.slot(s);

        // Forward through the slot's workspace (allocation-free once warm).
        model.forward_ws(pb, tm, &caps, slot.ws.fwd, plan, nullptr);
        const nn::Mat& logits = slot.ws.fwd.logits;
        const nn::Mat& mask = slot.ws.fwd.mask;

        // Sample the joint action z ~ N(mu, sigma^2) on valid slots and
        // squash to splits — per-demand streams, disjoint rows.
        slot.z.resize(nd, k);
        slot.ws.splits.resize(nd, k);
        run_sharded(plan, nullptr, [&](int /*shard*/, int d0, int d1) {
          for (int d = d0; d < d1; ++d) {
            util::CounterRng rng(coma_noise_seed(cfg.seed, epoch, t,
                                                 2 * static_cast<std::uint64_t>(d)));
            for (int c = 0; c < k; ++c) {
              slot.z.at(d, c) =
                  logits.at(d, c) +
                  (mask.at(d, c) != 0.0 ? cfg.sigma * rng.normal() : 0.0);
            }
            row_softmax(slot.z.row_ptr(d), mask.row_ptr(d), k,
                        slot.ws.splits.row_ptr(d));
          }
        });

        // Joint state + exact global reward (reported, not differentiated).
        RewardSimulator& sim = sims[static_cast<std::size_t>(chunk)];
        sim.set_state(tm, caps, slot.ws.splits);
        slot.stat = sim.global_reward() / std::max(1e-9, tm.total());

        // Counterfactual advantages, one agent at a time (Equation 2).
        slot.advantage.assign(static_cast<std::size_t>(nd), 0.0);
        run_sharded(plan, nullptr, [&](int shard, int d0, int d1) {
          CfLane& lane =
              lanes[static_cast<std::size_t>(plan.sharded() ? shard : chunk)];
          for (int d = d0; d < d1; ++d) {
            util::CounterRng rng(coma_noise_seed(cfg.seed, epoch, t,
                                                 2 * static_cast<std::uint64_t>(d) + 1));
            const double base =
                sim.value_of(d, slot.ws.splits.row_ptr(d), lane.scratch);
            double baseline = 0.0;
            for (int m = 0; m < cfg.mc_samples; ++m) {
              for (int c = 0; c < k; ++c) {
                lane.zc[static_cast<std::size_t>(c)] =
                    logits.at(d, c) +
                    (mask.at(d, c) != 0.0 ? cfg.sigma * rng.normal() : 0.0);
              }
              row_softmax(lane.zc.data(), mask.row_ptr(d), k, lane.cand.data());
              baseline += sim.value_of(d, lane.cand.data(), lane.scratch);
            }
            baseline /= std::max(1, cfg.mc_samples);
            slot.advantage[static_cast<std::size_t>(d)] = base - baseline;
          }
        });

        // Scale-normalize the advantages (keeps gradients comparable across
        // topologies without destroying per-agent sign information).
        double sq = 0.0;
        for (double a : slot.advantage) sq += a * a;
        const double scale = 1.0 / (std::sqrt(sq / std::max(1, nd)) + cfg.adv_norm_eps);

        // Policy gradient on the Gaussian mean: dlogpi/dmu = (z - mu)/sigma^2.
        // We minimize -J, hence the leading minus.
        slot.grad_logits.resize(nd, k);
        slot.grad_logits.zero();
        const double inv_var = 1.0 / (cfg.sigma * cfg.sigma);
        run_sharded(plan, nullptr, [&](int /*shard*/, int d0, int d1) {
          for (int d = d0; d < d1; ++d) {
            const double a = slot.advantage[static_cast<std::size_t>(d)] * scale;
            for (int c = 0; c < k; ++c) {
              if (mask.at(d, c) != 0.0) {
                slot.grad_logits.at(d, c) =
                    -a * (slot.z.at(d, c) - logits.at(d, c)) * inv_var;
              }
            }
          }
        });

        slot.grads.zero();
        model.backward_ws(pb, slot.ws.fwd, slot.grad_logits, ctx.bws(chunk),
                          slot.grads.refs());
      });

      ctx.reduce(n_active);
      adam.clip_grad_norm(cfg.grad_clip);
      adam.step();
      for (int s = 0; s < n_active; ++s) reward_sum += ctx.slot(s).stat;

      if (step_index > 0) stats.warm_step_allocs += step_allocs.count();
      ++step_index;
    }
    double mean_reward = reward_sum / std::max(1, train.size());
    stats.epoch_reward.push_back(mean_reward);

    if (cfg.validation && cfg.validation->size() > 0) {
      double score = evaluate_model(model, pb, *cfg.validation, obj);
      stats.epoch_validation.push_back(score);
      if (score > best_val) {
        best_val = score;
        stats.best_epoch = epoch;
        best_params.clear();
        for (nn::Param* p : ctx.params()) best_params.push_back(p->w);
      }
    }
    if (cfg.verbose) {
      std::printf("[coma] epoch %d mean normalized reward %.4f%s\n", epoch, mean_reward,
                  stats.epoch_validation.empty()
                      ? ""
                      : (" val " + std::to_string(stats.epoch_validation.back())).c_str());
    }
  }
  // Restore the best validation snapshot.
  if (!best_params.empty()) {
    auto& params = ctx.params();
    for (std::size_t i = 0; i < params.size(); ++i) params[i]->w = best_params[i];
  }
  return stats;
}

}  // namespace teal::core

// teal_perfbench — one workload of the repository benchmark per invocation.
//
//   teal_perfbench --workload <asn-solve|b4-open|swan-train> --seed <n>
//                  --seconds <s> --trace <0|1> [--rate <rps>] [--limit-ms <ms>]
//                  [--git-sha <sha>] [--src-digest <hex>]
//
// Prints a provenance header, human-readable lines, and as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones (every per-layer name appears in every workload; a layer the
// workload never calls into reports 0). A failed output check prints the
// reason to stderr, exits 3 and prints no metrics. perfbench/run.py builds
// this binary and is the documented entry point.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.h"
#include "util/thread_pool.h"

namespace {

using perfbench::Args;

// Per-layer names of the workload-specific spans and counters, by workload.
// The setup spans (common.h kSetupSpans) are reported by every workload.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* workload;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"core.forward_ms", "ms", "asn-solve"},
    {"core.softmax_ms", "ms", "asn-solve"},
    {"core.admm_ms", "ms", "asn-solve"},
    {"core.admm_residual_ratio", "ratio", "asn-solve"},
    {"core.shard_busy_ms", "ms", "asn-solve"},
    {"core.shard_idle_ms", "ms", "asn-solve"},
    {"core.shard_balance", "ratio", "asn-solve"},
    {"core.shard_stages", "count", "asn-solve"},
    {"util.warm_allocs", "count", "asn-solve"},
    {"te.batch_solve_ms_p50", "ms", "asn-solve"},
    {"te.solve_into_ms_p50", "ms", "asn-solve"},
    {"te.solve_into_ms_p90", "ms", "asn-solve"},
    {"core.shard_speedup", "ratio", "asn-solve"},
    {"trace.overhead_pct", "%", "asn-solve"},
    {"net.client_encode_us", "us", "b4-open"},
    {"net.client_decode_us", "us", "b4-open"},
    {"serve.reply_solve_ms_p50", "ms", "b4-open"},
    {"net.outside_solve_ms_p50", "ms", "b4-open"},
    {"serve.queue_wait_ms_p50_hist", "ms", "b4-open"},
    {"serve.replica_busy_pct", "%", "b4-open"},
    {"serve.shed_admission", "count", "b4-open"},
    {"serve.shed_queue_full", "count", "b4-open"},
    {"net.dropped_responses", "count", "b4-open"},
    {"core.publish_ms", "ms", "b4-open"},
    {"core.publishes", "count", "b4-open"},
    {"bench.gen_late_ms_p99", "ms", "b4-open"},
    {"bench.miss_pct", "%", "b4-open"},
    {"core.train_fwd_ms", "ms", "swan-train"},
    {"core.train_bwd_ms", "ms", "swan-train"},
    {"core.eval_s", "s", "swan-train"},
    {"util.warm_step_allocs", "count", "swan-train"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "teal_perfbench: %s\n", why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v, have_workload = true;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--rate") a.rate = std::stod(v);
      else if (k == "--limit-ms") a.limit_ms = std::stod(v);
      else if (k == "--git-sha") a.git_sha = v;
      else if (k == "--src-digest") a.src_digest = v;
      else usage("unknown flag " + k);
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (a.seconds <= 0) usage("--seconds must be positive");
  // ASN setup trains a model for ~15 s, so two set-ups keep a run near a
  // minute; the other set-ups take under a second.
  a.setups = a.workload == "asn-solve" ? 2 : 9;
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const Args args = parse(argc, argv);
  std::printf("# teal_perfbench provenance\n");
  std::printf("#   git sha          %s\n", args.git_sha.c_str());
  std::printf("#   src digest       %s\n", args.src_digest.c_str());
  std::printf("#   nproc            %u\n", std::thread::hardware_concurrency());
  std::printf("#   pool threads     %zu\n", teal::util::ThreadPool::global().size());
  std::printf("#   build type       %s\n", PERFBENCH_BUILD_TYPE);
  std::printf("#   TEAL_SIMD        %s\n", PERFBENCH_TEAL_SIMD);
  std::printf("#   workload         %s  seed %llu  seconds %g  trace %d  setups %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.setups);

  perfbench::Report report;
  try {
    if (args.workload == "asn-solve") {
      perfbench::run_asn_solve(args, report);
    } else if (args.workload == "b4-open") {
      perfbench::run_b4_open(args, report);
    } else if (args.workload == "swan-train") {
      perfbench::run_swan_train(args, report);
    } else {
      usage("unknown workload " + args.workload);
    }
    if (args.trace) {
      // Layers this workload never calls into did no work here.
      for (const auto& m : kLayerMetrics) {
        if (args.workload != m.workload) report.metric(m.name, 0.0, m.unit);
      }
    }
  } catch (const perfbench::CheckFailed& e) {
    std::fprintf(stderr, "OUTPUT CHECK FAILED: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "teal_perfbench: error: %s\n", e.what());
    return 4;
  }
  report.emit();
  return 0;
}

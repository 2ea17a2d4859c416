// net_serving — latency under load through the TCP serving front-end.
//
// Not a paper figure: this bench measures the repo's own network layer
// (src/net/), end to end over loopback TCP. A trained Teal scheme serves as
// the one tenant of a serve::Fleet behind net::Server; teal_slap's open-loop
// harness (net::run_slap) offers traffic matrices at a fixed rate across
// standing connections, which is the regime a WAN controller actually lives
// in — matrices keep arriving on the measurement schedule whether or not the
// last solve finished, so queueing delay and shedding become visible instead
// of being absorbed by a polite closed-loop client.
//
// Procedure: first a closed-loop calibration pass (one client, back-to-back
// solves) measures the service capacity of the replica pool through the full
// socket path; then an offered-rate sweep at {0.5, 1.0, 2.0}x that capacity
// runs against deadline admission control. Below capacity the response p99
// should sit near the solve time with ~no shedding; past capacity the
// admission bound holds the p99 down by shedding the excess at the socket.
//
// Output: a table on stdout, bench_out/net_serving.csv, and — when run from
// the repo root — a ledger entry in EXPERIMENTS.md ("Latency under load
// ledger").
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "net/client.h"
#include "net/server.h"
#include "net/slap.h"
#include "serve/fleet.h"

using namespace teal;

namespace {

struct SweepRow {
  double multiplier = 0.0;
  double target_rps = 0.0;
  double achieved_rps = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t responses = 0;
  double shed_pct = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t dropped = 0;
};

// The instance as the one tenant of a fleet whose replica budget is the
// bench's replica count.
serve::TenantConfig tenant_of(bench::Instance& inst, te::Scheme& teal,
                              const serve::ServeConfig& scfg) {
  serve::TenantConfig tc;
  tc.name = inst.name;
  tc.pb = &inst.pb;
  tc.scheme = &teal;
  tc.serve = scfg;
  return tc;
}

void append_experiments_ledger(const std::vector<SweepRow>& rows, double base_rps,
                               std::size_t n_replicas, int n_connections) {
  std::string entry;
  entry += "\n\n### Run " + bench::ledger_stamp();
  entry += " — B4, " + std::to_string(n_replicas) + " replicas, " +
           std::to_string(n_connections) + " connections, closed-loop capacity " +
           util::fmt(base_rps, 1) + " solves/s" +
           (bench::fast_mode() ? " (fast mode)" : "");
  entry += "\n\n| offered | target rps | achieved rps | responses | shed % | p50 (ms) | p99 (ms) | dropped |\n";
  entry += "|---|---|---|---|---|---|---|---|\n";
  for (const auto& r : rows) {
    entry += "| " + util::fmt(r.multiplier, 1) + "x | " + util::fmt(r.target_rps, 1) +
             " | " + util::fmt(r.achieved_rps, 1) + " | " + std::to_string(r.responses) +
             " | " + util::fmt(r.shed_pct, 1) + " | " + util::fmt(r.p50_ms, 3) + " | " +
             util::fmt(r.p99_ms, 3) + " | " + std::to_string(r.dropped) + " |\n";
  }
  bench::insert_ledger_entry("<!-- bench_net_serving appends runs below this line -->",
                             entry);
}

}  // namespace

int main() {
  bench::print_header("Latency under load",
                      "open-loop offered-rate sweep through the TCP serving front-end");
  auto inst = bench::make_instance("B4");
  auto teal = bench::make_teal(*inst);

  const std::size_t n_replicas = 2;
  const int n_connections = bench::fast_mode() ? 2 : 4;
  const double duration_s = bench::fast_mode() ? 1.0 : 3.0;

  // Request stream: cycle the test split so every sweep point serves the same
  // workload mix run_slap cycles through.
  std::vector<te::TrafficMatrix> requests;
  for (int i = 0; i < inst->split.test.size(); ++i) {
    requests.push_back(inst->split.test.at(i));
  }

  // --- closed-loop calibration: service capacity through the socket path ---
  double base_rps = 0.0;
  {
    serve::Fleet fleet(serve::FleetConfig{n_replicas, "load-proportional", nullptr});
    fleet.add_tenant(tenant_of(*inst, *teal, {}));
    fleet.start();
    net::Server server(fleet);
    net::Client client("127.0.0.1", server.port());
    const int warmup = 5, measured = bench::fast_mode() ? 40 : 160;
    for (int i = 0; i < warmup; ++i) {
      client.solve(requests[static_cast<std::size_t>(i) % requests.size()]);
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < measured; ++i) {
      client.solve(requests[static_cast<std::size_t>(i) % requests.size()]);
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    base_rps = elapsed > 0.0 ? static_cast<double>(measured) / elapsed : 0.0;
    server.stop();
    fleet.stop();
  }
  std::printf("  closed-loop capacity (1 client, %zu replicas): %.1f solves/s\n\n",
              n_replicas, base_rps);

  // --- open-loop sweep against deadline admission -------------------------
  util::Table table({"offered", "target rps", "achieved rps", "responses", "shed %",
                     "p50 ms", "p99 ms", "dropped"});
  util::Table csv({"multiplier", "target_rps", "achieved_rps", "offered", "responses",
                   "shed", "shed_pct", "p50_ms", "p99_ms", "dropped", "wall_seconds"});
  std::vector<SweepRow> rows;
  for (double mult : {0.5, 1.0, 2.0}) {
    serve::ServeConfig scfg;
    scfg.queue_capacity = 256;
    // Deadline worth ~2 mean service times: the depth bound is small, so past
    // capacity the excess is shed at the socket instead of queueing into a
    // latency cliff.
    scfg.expected_solve_seconds =
        base_rps > 0.0 ? static_cast<double>(n_replicas) / base_rps : 0.0;
    scfg.deadline_seconds = 2.0 * scfg.expected_solve_seconds;
    serve::Fleet fleet(serve::FleetConfig{n_replicas, "load-proportional", nullptr});
    fleet.add_tenant(tenant_of(*inst, *teal, scfg));
    fleet.start();
    net::Server server(fleet);

    net::SlapConfig cfg;
    cfg.port = server.port();
    cfg.connections = n_connections;
    cfg.target_rps = mult * base_rps;
    cfg.duration_seconds = duration_s;
    auto stats = net::run_slap(cfg, requests);
    server.stop();
    fleet.stop();

    SweepRow row;
    row.multiplier = mult;
    row.target_rps = cfg.target_rps;
    row.achieved_rps = stats.achieved_rps;
    row.offered = stats.offered;
    row.responses = stats.responses;
    row.shed_pct = stats.shed_pct();
    row.p50_ms = stats.latency.percentile(50.0) * 1e3;
    row.p99_ms = stats.latency.percentile(99.0) * 1e3;
    row.dropped = stats.dropped;
    rows.push_back(row);
    table.add_row({util::fmt(mult, 1) + "x", util::fmt(row.target_rps, 1),
                   util::fmt(row.achieved_rps, 1), std::to_string(row.responses),
                   util::fmt(row.shed_pct, 1), util::fmt(row.p50_ms, 3),
                   util::fmt(row.p99_ms, 3), std::to_string(row.dropped)});
    csv.add_row({util::fmt(mult, 2), util::fmt(row.target_rps, 2),
                 util::fmt(row.achieved_rps, 2), std::to_string(row.offered),
                 std::to_string(row.responses), std::to_string(stats.shed),
                 util::fmt(row.shed_pct, 2), util::fmt(row.p50_ms, 4),
                 util::fmt(row.p99_ms, 4), std::to_string(row.dropped),
                 util::fmt(stats.wall_seconds, 3)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("  expectation: sub-capacity rows shed ~0%% with p50 near the solve time;\n"
              "  the 2.0x row sheds the excess instead of letting p99 run away.\n");

  csv.write_csv(bench::out_dir() + "/net_serving.csv");
  append_experiments_ledger(rows, base_rps, n_replicas, n_connections);
  return 0;
}

// teal_serve — standalone TE serving daemon.
//
// Builds the same scaled-down instance the benches use (bench::make_instance,
// so the demand count is reproducible from the topology name + seed), trains
// or loads the cached Teal model, and serves solve requests over the wire
// protocol in src/net/wire.h until SIGINT/SIGTERM. The load generator half is
// tools/teal_slap.cpp; point it at the same --topo so its matrices match this
// server's demand count.
//
//   ./build/teal_serve --topo B4 --port 7419 --replicas 2 \
//       --deadline 0.05 --expected-solve 0.01
//
// Every run serves a serve::Fleet. --topo T alone is the one-tenant fleet
// T=T; repeat --tenant name=topo[:weight] instead to serve several topology
// slices from one process. The replica budget (--replicas, default 2, 0 =
// hardware concurrency) is split across tenants by --policy (static |
// round-robin | load-proportional); clients pick a slice with the wire tenant
// field (teal_slap --tenant), and the empty tenant is the first one. The
// optional :weight is the tenant's relative offered rate, the
// load-proportional policy's demand signal.
//
//   ./build/teal_serve --port 7419 --replicas 4 --policy load-proportional \
//       --tenant us=B4:3 --tenant eu=SWAN:1
//
// --deadline 0 (default) disables admission control: requests queue up to
// --queue and shed only when it overflows. With a deadline, the server sheds
// at the socket any request it cannot start within the deadline.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "net/server.h"
#include "serve/fleet.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: teal_serve [--topo B4|SWAN|UsCarrier|Kdl|ASN] [--port N]\n"
               "                  [--replicas N] [--queue N] [--deadline SEC]\n"
               "                  [--expected-solve SEC]\n"
               "                  [--tenant NAME=TOPO[:WEIGHT]]...  (instead of --topo)\n"
               "                  [--policy static|round-robin|load-proportional]\n");
  std::exit(2);
}

struct TenantArg {
  std::string name;
  std::string topo;
  double weight = 1.0;
};

// Parses "name=topo" or "name=topo:weight".
TenantArg parse_tenant(const char* arg) {
  TenantArg t;
  const std::string s(arg);
  const auto eq = s.find('=');
  if (eq == std::string::npos || eq == 0) usage();
  t.name = s.substr(0, eq);
  std::string rest = s.substr(eq + 1);
  const auto colon = rest.find(':');
  if (colon != std::string::npos) {
    t.weight = std::atof(rest.substr(colon + 1).c_str());
    if (t.weight <= 0.0) usage();
    rest = rest.substr(0, colon);
  }
  if (rest.empty()) usage();
  t.topo = rest;
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace teal;
  std::string topo = "B4";
  int port = 7419;
  std::size_t replicas = 2;
  std::string policy = "load-proportional";
  std::vector<TenantArg> tenant_args;
  serve::ServeConfig scfg;
  for (int i = 1; i < argc; ++i) {
    auto want = [&](const char* flag) {
      if (std::strcmp(argv[i], flag) != 0) return false;
      if (i + 1 >= argc) usage();
      ++i;
      return true;
    };
    if (want("--topo")) {
      topo = argv[i];
    } else if (want("--port")) {
      port = std::atoi(argv[i]);
    } else if (want("--replicas")) {
      replicas = static_cast<std::size_t>(std::atoi(argv[i]));
    } else if (want("--queue")) {
      scfg.queue_capacity = static_cast<std::size_t>(std::atoi(argv[i]));
    } else if (want("--deadline")) {
      scfg.deadline_seconds = std::atof(argv[i]);
    } else if (want("--expected-solve")) {
      scfg.expected_solve_seconds = std::atof(argv[i]);
    } else if (want("--tenant")) {
      tenant_args.push_back(parse_tenant(argv[i]));
    } else if (want("--policy")) {
      policy = argv[i];
    } else {
      usage();
    }
  }
  if (port <= 0 || port > 65535) usage();
  if (tenant_args.empty()) tenant_args.push_back(TenantArg{topo, topo, 1.0});

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  // One instance + trained scheme per tenant, replicas assigned by the
  // placement policy over the shared budget.
  std::vector<std::unique_ptr<bench::Instance>> instances;
  std::vector<std::unique_ptr<core::TealScheme>> schemes;
  serve::FleetConfig fcfg;
  fcfg.policy = policy;
  fcfg.total_replicas = replicas;  // 0 = hardware concurrency
  serve::Fleet fleet(std::move(fcfg));
  for (const TenantArg& ta : tenant_args) {
    auto inst = bench::make_instance(ta.topo);
    auto teal = bench::make_teal(*inst);
    serve::TenantConfig tc;
    tc.name = ta.name;
    tc.pb = &inst->pb;
    tc.scheme = teal.get();
    tc.serve = scfg;
    tc.offered_weight = ta.weight;
    fleet.add_tenant(std::move(tc));
    instances.push_back(std::move(inst));
    schemes.push_back(std::move(teal));
  }
  fleet.start();

  net::NetServerConfig ncfg;
  ncfg.port = static_cast<std::uint16_t>(port);
  net::Server server(fleet, ncfg);
  std::printf("teal_serve: fleet of %zu tenants (%s placement), port %u\n",
              fleet.n_tenants(), policy.c_str(), server.port());
  for (std::size_t t = 0; t < tenant_args.size(); ++t) {
    std::printf("  tenant %-12s %s (%d demands, k=%d), %zu replicas, weight %.1f\n",
                tenant_args[t].name.c_str(), tenant_args[t].topo.c_str(),
                instances[t]->pb.num_demands(), instances[t]->pb.k_paths(),
                fleet.replicas(tenant_args[t].name), tenant_args[t].weight);
  }
  std::fflush(stdout);

  while (!g_stop) std::this_thread::sleep_for(std::chrono::milliseconds(100));

  server.stop();
  auto net_stats = server.stats();
  auto fstats = fleet.stop();
  std::printf("\nteal_serve: stopped. connections %llu, requests %llu, responses %llu,\n"
              "  shed %llu, unknown tenants %llu, dropped responses %llu, protocol errors %llu\n",
              static_cast<unsigned long long>(net_stats.connections_accepted),
              static_cast<unsigned long long>(net_stats.sessions.requests),
              static_cast<unsigned long long>(net_stats.sessions.responses),
              static_cast<unsigned long long>(net_stats.sessions.shed),
              static_cast<unsigned long long>(net_stats.sessions.unknown_tenants),
              static_cast<unsigned long long>(net_stats.dropped_responses),
              static_cast<unsigned long long>(net_stats.sessions.protocol_errors));
  for (const auto& ts : fstats.tenants) {
    std::printf("  tenant %-12s offered %llu = accepted %llu + shed %llu; "
                "solve p50 %.3f ms (%zu replicas)\n",
                ts.name.c_str(), static_cast<unsigned long long>(ts.serve.offered),
                static_cast<unsigned long long>(ts.serve.accepted),
                static_cast<unsigned long long>(ts.serve.shed),
                ts.serve.solve.percentile(50.0) * 1e3, ts.replicas);
  }
  return 0;
}

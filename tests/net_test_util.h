// net_test_util.h — hermetic loopback fixtures for the net tests.
//
// Every fixture binds 127.0.0.1 port 0 (kernel-chosen ephemeral port), so
// any number of test binaries — and any number of fixtures within one binary
// — run in parallel under `ctest -j` without ever colliding on an address.
// Teardown order matters and the fixture owns it: the net server goes down
// first (member order: fleet before server → destruction joins the I/O
// thread before the replicas), so no session can submit into a destroyed
// backend.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "serve/fleet.h"
#include "serve/replica.h"
#include "serve/server.h"
#include "te/problem.h"
#include "topo/topology.h"
#include "traffic/traffic.h"

namespace teal::test {

// Problem + trace on any bundled topology, demand-capped the same way
// shard_test does it (DESIGN.md substitution #5 — identical code paths,
// test-sized instance).
struct NetSetup {
  te::Problem pb;
  traffic::Trace trace;
};

inline NetSetup net_setup(const std::string& topo_name, int n_demands = 120,
                          int n_intervals = 2) {
  auto g = topo::make_topology(topo_name);
  auto demands = traffic::sample_demands(g, n_demands, /*seed=*/7);
  te::Problem pb(std::move(g), std::move(demands), 4);
  traffic::TraceConfig cfg;
  cfg.n_intervals = n_intervals;
  cfg.seed = 11;
  auto trace = traffic::generate_trace(pb, cfg);
  traffic::calibrate_capacities(pb, trace, 1.5);
  return NetSetup{std::move(pb), std::move(trace)};
}

// A one-tenant serve::Fleet (tenant = the topology name, static placement of
// exactly the given replicas) + net::Server on an ephemeral loopback port.
// `backend` is that tenant's serve::Server.
struct NetFixture {
  const te::Problem& pb;
  serve::Fleet fleet;
  serve::Server& backend;
  net::Server server;

  NetFixture(const te::Problem& problem, std::vector<serve::ReplicaPtr> replicas,
             serve::ServeConfig serve_cfg = {}, net::NetServerConfig net_cfg = {})
      : pb(problem),
        fleet(serve::FleetConfig{0, "static", nullptr}),
        backend(start_one_tenant(fleet, problem, std::move(replicas), serve_cfg)),
        server(fleet, net_cfg) {}

  net::Client connect() { return net::Client("127.0.0.1", server.port()); }

 private:
  static serve::Server& start_one_tenant(serve::Fleet& fleet, const te::Problem& pb,
                                         std::vector<serve::ReplicaPtr> replicas,
                                         serve::ServeConfig serve_cfg) {
    serve::TenantConfig tc;
    tc.name = pb.graph().name();
    tc.pb = &pb;
    tc.serve = serve_cfg;
    tc.requested_replicas = replicas.size();
    auto built = std::make_shared<std::vector<serve::ReplicaPtr>>(std::move(replicas));
    tc.make_replicas_fn = [built](std::size_t) { return std::move(*built); };
    fleet.add_tenant(std::move(tc));
    fleet.start();
    return *fleet.route(pb.graph().name()).server;
  }
};

// Polls `pred` until it holds or ~2 s pass — for the few assertions that
// depend on the I/O thread noticing an event (e.g. an EOF) asynchronously.
inline bool eventually(const std::function<bool()>& pred,
                       double timeout_seconds = 2.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

}  // namespace teal::test

// served.h — open-loop trace replay through the serving layer.
//
// sim::run_online is closed-loop: the control loop itself decides when the
// next solve starts, so the scheme is never offered more work than it can
// do. run_served_fleet is the complementary driver: requests *arrive* on a
// fixed schedule (every arrival_interval_seconds, independent of completions
// — the open-loop discipline of real serving benchmarks), each tenant's
// server sheds what cannot meet the deadline, and the result records which
// matrices got fresh allocations and at what latency. At arrival interval 0
// the whole trace is offered as one burst, which turns the driver into a
// saturation/throughput harness — the mode the serve_scaling bench sweeps
// replica counts with.
//
// There is one replay path: several (problem, trace, scheme) slices served
// through one serve::Fleet, replicas split across tenants by the fleet's
// placement policy. A single-slice replay is the one-tenant case. Arrivals
// from all tenants are merged onto one open-loop schedule, round-robin across
// tenants that still have trace left — the simulated analogue of teal_slap's
// weighted multi-tenant mix, minus the wire.
#pragma once

#include <string>
#include <vector>

#include "serve/fleet.h"
#include "serve/replica.h"
#include "serve/server.h"
#include "te/problem.h"
#include "traffic/traffic.h"

namespace teal::sim {

// From trace interval `start` on, the tenant's links have `capacities`
// (indexed by edge id).
struct CapacityEpoch {
  int start = 0;
  std::vector<double> capacities;
};

// One tenant's slice of the replay. `pb`, `trace` and `scheme` must outlive
// the call; `factory` follows the serve::make_replicas contract for non-warm
// schemes.
struct ServedTenant {
  std::string name;
  te::Problem* pb = nullptr;
  const traffic::Trace* trace = nullptr;
  te::Scheme* scheme = nullptr;
  serve::SchemeFactory factory = nullptr;
  double offered_weight = 1.0;         // placement demand signal
  std::size_t requested_replicas = 0;  // static-policy count
  // Failure churn as data, ascending by start. Before submitting interval
  // `start`, the replay drains this tenant's server (other tenants keep
  // solving) and installs the epoch's capacities into *pb, so no solve ever
  // sees a capacity change mid-flight. *pb's capacities are restored when the
  // replay returns, also on error. Empty = *pb's capacities throughout.
  std::vector<CapacityEpoch> epochs{};
};

struct ServedFleetConfig {
  // Replica budget + placement policy by name (FleetConfig isn't copyable —
  // it can own a policy object — so the replay config carries the two plain
  // knobs; plug a custom policy through serve::Fleet directly).
  std::size_t total_replicas = 0;  // 0 = hardware concurrency
  std::string policy = "load-proportional";
  // Open-loop spacing between merged arrivals (across all tenants).
  // 0 = burst. The clock pauses while a tenant drains for a capacity epoch.
  double arrival_interval_seconds = 0.0;
  // Demand shards per replica solve (workspace replicas only): 0 = auto via
  // the serving cost model (serve::pick_replica_shards — shards engage only
  // when a lone replica would leave pool threads idle), 1 = sequential,
  // n = exact. Bit-identical results for every value; latency-only knob.
  int shard_count = 0;
  serve::ServeConfig serve;  // applied to every tenant's server
};

struct ServedFleetResult {
  struct Tenant {
    // Index-aligned with the tenant's trace. Shed requests leave an empty
    // Allocation and accepted[t] == 0.
    std::vector<te::Allocation> allocs;
    std::vector<char> accepted;
    serve::ServeStats stats;  // this tenant's entry of the fleet stats
  };
  std::vector<Tenant> tenants;  // registration order
  serve::FleetStats stats;
};

// Replays every tenant's trace through one Fleet. Blocks until every accepted
// request on every tenant completed. Throws std::invalid_argument when a
// tenant with capacity epochs shares its problem with another tenant.
ServedFleetResult run_served_fleet(const std::vector<ServedTenant>& tenants,
                                   const ServedFleetConfig& cfg);

}  // namespace teal::sim

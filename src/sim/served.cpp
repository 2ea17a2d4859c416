#include "sim/served.h"

#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

namespace teal::sim {

namespace {

void install_capacities(te::Problem& pb, const std::vector<double>& caps) {
  for (topo::EdgeId e = 0; e < pb.graph().num_edges(); ++e) {
    pb.mutable_graph().set_capacity(e, caps[static_cast<std::size_t>(e)]);
  }
}

// Restores, on scope exit, the capacities of every problem the replay
// re-capacitates, so a replay leaves its inputs reusable even when it throws.
// Constructed before the fleet, so it runs after the replica threads joined.
struct CapacityRestore {
  std::vector<std::pair<te::Problem*, std::vector<double>>> saved;
  CapacityRestore() = default;
  CapacityRestore(const CapacityRestore&) = delete;
  CapacityRestore& operator=(const CapacityRestore&) = delete;
  ~CapacityRestore() {
    for (auto& [pb, caps] : saved) install_capacities(*pb, caps);
  }
};

void validate_epochs(const std::vector<ServedTenant>& tenants) {
  for (const ServedTenant& t : tenants) {
    for (std::size_t k = 0; k < t.epochs.size(); ++k) {
      const auto n_edges = static_cast<std::size_t>(t.pb->graph().num_edges());
      if (t.epochs[k].capacities.size() != n_edges ||
          t.epochs[k].start < (k == 0 ? 0 : t.epochs[k - 1].start + 1)) {
        throw std::invalid_argument("run_served_fleet: tenant '" + t.name +
                                    "' has a mis-sized or out-of-order capacity epoch");
      }
    }
    for (const ServedTenant& other : tenants) {
      if (!t.epochs.empty() && &other != &t && other.pb == t.pb) {
        throw std::invalid_argument("run_served_fleet: tenant '" + t.name +
                                    "' has capacity epochs but shares its problem with '" +
                                    other.name + "'");
      }
    }
  }
}

}  // namespace

ServedFleetResult run_served_fleet(const std::vector<ServedTenant>& tenants,
                                   const ServedFleetConfig& cfg) {
  validate_epochs(tenants);
  ServedFleetResult res;
  res.tenants.resize(tenants.size());

  CapacityRestore restore;
  for (const ServedTenant& t : tenants) {
    if (!t.epochs.empty()) restore.saved.emplace_back(t.pb, t.pb->capacities());
  }

  serve::FleetConfig fcfg;
  fcfg.total_replicas = cfg.total_replicas;
  fcfg.policy = cfg.policy;
  serve::Fleet fleet(std::move(fcfg));
  for (const ServedTenant& t : tenants) {
    serve::TenantConfig tc;
    tc.name = t.name;
    tc.pb = t.pb;
    tc.scheme = t.scheme;
    tc.factory = t.factory;
    tc.serve = cfg.serve;
    tc.shard_count = cfg.shard_count;
    tc.offered_weight = t.offered_weight;
    tc.requested_replicas = t.requested_replicas;
    fleet.add_tenant(std::move(tc));
  }
  fleet.start();

  std::vector<serve::Fleet::Route> routes;
  std::vector<std::size_t> next(tenants.size(), 0);
  std::vector<std::size_t> next_epoch(tenants.size(), 0);
  std::size_t remaining = 0;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    routes.push_back(fleet.route(tenants[i].name));
    const auto n = static_cast<std::size_t>(tenants[i].trace->size());
    res.tenants[i].allocs.resize(n);
    res.tenants[i].accepted.assign(n, 0);
    remaining += n;
  }

  // Merged open-loop schedule: one global arrival clock, round-robin over the
  // tenants that still have trace left — different tenants' requests land in
  // different per-tenant queues, so this loop is the only cross-tenant
  // ordering that exists.
  using Clock = std::chrono::steady_clock;
  const auto offset = [&](std::size_t arrival) {
    return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
        static_cast<double>(arrival) * cfg.arrival_interval_seconds));
  };
  auto start = Clock::now();
  std::size_t arrival = 0;
  while (remaining > 0) {
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      const std::size_t t = next[i];
      if (t >= res.tenants[i].allocs.size()) continue;
      const auto& epochs = tenants[i].epochs;
      std::size_t& ep = next_epoch[i];
      if (ep < epochs.size() && epochs[ep].start == static_cast<int>(t)) {
        // Capacity epoch boundary: only this tenant drains. The arrival clock
        // pauses for the drain — this arrival is due the moment it ends, as
        // the first arrival of a fresh replay would be.
        routes[i].server->drain();
        install_capacities(*tenants[i].pb, epochs[ep].capacities);
        ++ep;
        start = Clock::now() - offset(arrival);
      }
      if (cfg.arrival_interval_seconds > 0.0) {
        std::this_thread::sleep_until(start + offset(arrival));
      }
      res.tenants[i].accepted[t] =
          routes[i].server->submit(tenants[i].trace->at(static_cast<int>(t)),
                                   res.tenants[i].allocs[t])
              ? 1
              : 0;
      ++next[i];
      ++arrival;
      --remaining;
    }
  }
  fleet.drain();
  res.stats = fleet.stop();
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    res.tenants[i].stats = res.stats.tenants[i].serve;
  }
  return res;
}

}  // namespace teal::sim

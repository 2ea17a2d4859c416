// Tests for fleet serving and live model hot-swap: the placement-policy seam
// (per-tenant replica counts, every tenant >= 1), the Fleet registry/routing
// contract (immutable after start, default tenant, unknown names refused),
// the ModelHub publication seam (versions, snapshot pinning, publish during
// sustained concurrent load with no torn reads — the TSan target), replica
// failover (in-flight request requeued to survivors, or failed truthfully
// when the last replica dies), and the multi-tenant wire path end to end
// (two tenants with different topologies behind one socket, plus the
// client-side read timeout).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/snapshot.h"
#include "core/teal_scheme.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "serve/fleet.h"
#include "serve/placement.h"
#include "serve/replica.h"
#include "serve/server.h"
#include "sim/served.h"
#include "net_test_util.h"
#include "util/socket.h"

namespace teal {
namespace {

core::TealScheme make_teal(const te::Problem& pb, std::uint64_t seed = 42) {
  return core::TealScheme(
      pb, std::make_unique<core::TealModel>(core::TealModelConfig{}, pb.k_paths(), seed),
      core::TealSchemeConfig{});
}

std::unique_ptr<core::TealModel> make_model(const te::Problem& pb, std::uint64_t seed) {
  return std::make_unique<core::TealModel>(core::TealModelConfig{}, pb.k_paths(), seed);
}

void expect_bit_identical(const te::Allocation& a, const te::Allocation& b) {
  ASSERT_EQ(a.split.size(), b.split.size());
  for (std::size_t i = 0; i < a.split.size(); ++i) {
    EXPECT_EQ(a.split[i], b.split[i]) << "split index " << i;
  }
}

bool allocs_equal(const te::Allocation& a, const te::Allocation& b) {
  if (a.split.size() != b.split.size()) return false;
  for (std::size_t i = 0; i < a.split.size(); ++i) {
    if (a.split[i] != b.split[i]) return false;
  }
  return true;
}

// ---- Placement policies -----------------------------------------------------

std::vector<serve::TenantDemand> three_tenants() {
  return {
      {"a", /*n_demands=*/10, /*total_paths=*/40, /*offered_weight=*/1.0, 0},
      {"b", 20, 80, 1.0, 0},
      {"c", 40, 160, 1.0, 0},
  };
}

TEST(Placement, StaticHonorsRequestedCountsAndFloorsAtOne) {
  auto tenants = three_tenants();
  tenants[0].requested_replicas = 3;
  tenants[1].requested_replicas = 0;  // 0 = one
  tenants[2].requested_replicas = 2;
  serve::StaticPolicy policy;
  const auto counts = policy.assign(tenants, /*total=*/100);  // budget ignored
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 3u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 2u);
}

TEST(Placement, RoundRobinDealsTheBudgetEvenly) {
  serve::RoundRobinPolicy policy;
  const auto counts = policy.assign(three_tenants(), 7);
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::size_t{0}), 7u);
  // Dealt one at a time in order: 3, 2, 2.
  EXPECT_EQ(counts[0], 3u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 2u);
}

TEST(Placement, BudgetBelowTenantCountStillGivesEveryoneOne) {
  serve::RoundRobinPolicy rr;
  serve::LoadProportionalPolicy lp;
  for (const serve::PlacementPolicy* policy :
       {static_cast<const serve::PlacementPolicy*>(&rr),
        static_cast<const serve::PlacementPolicy*>(&lp)}) {
    const auto counts = policy->assign(three_tenants(), /*total=*/1);
    ASSERT_EQ(counts.size(), 3u);
    for (const std::size_t c : counts) EXPECT_GE(c, 1u);
  }
}

TEST(Placement, LoadProportionalFollowsPathCountTimesWeight) {
  // Costs 40/80/160 at equal weight: budget 7 splits 1/2/4.
  serve::LoadProportionalPolicy policy;
  const auto counts = policy.assign(three_tenants(), 7);
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 4u);

  // Doubling one tenant's offered rate doubles its effective weight.
  auto tenants = three_tenants();
  tenants[0].offered_weight = 8.0;  // cost 320 vs 80 vs 160
  const auto skewed = policy.assign(tenants, 7);
  EXPECT_GT(skewed[0], skewed[2]);
  EXPECT_EQ(std::accumulate(skewed.begin(), skewed.end(), std::size_t{0}), 7u);
}

TEST(Placement, LoadProportionalAllZeroWeightsDegradesToRoundRobin) {
  auto tenants = three_tenants();
  for (auto& t : tenants) {
    t.offered_weight = 0.0;
    t.n_demands = 0;
    t.total_paths = 0;
  }
  serve::LoadProportionalPolicy policy;
  const auto counts = policy.assign(tenants, 6);
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 2u);
}

TEST(Placement, FactoryResolvesNamesAndRejectsUnknown) {
  EXPECT_EQ(serve::make_placement_policy("static")->name(), "static");
  EXPECT_EQ(serve::make_placement_policy("round-robin")->name(), "round-robin");
  EXPECT_EQ(serve::make_placement_policy("load-proportional")->name(),
            "load-proportional");
  EXPECT_THROW(serve::make_placement_policy("best-effort"), std::invalid_argument);
}

// ---- ModelHub / publish_model ----------------------------------------------

TEST(ModelHub, PublishBumpsVersionAndOldSnapshotsStayPinned) {
  auto g = topo::make_b4();
  te::Problem pb(std::move(g), te::all_pairs_demands(topo::make_b4()), 4);
  core::ModelHub hub(std::shared_ptr<core::Model>(make_model(pb, 42)));
  EXPECT_EQ(hub.version(), 1u);

  const core::ModelSnapshot pinned = hub.acquire();
  EXPECT_EQ(pinned.version, 1u);
  const core::Model* old_model = pinned.model.get();

  EXPECT_EQ(hub.publish(std::shared_ptr<core::Model>(make_model(pb, 43))), 2u);
  EXPECT_EQ(hub.version(), 2u);
  // The pre-publish snapshot is untouched: same version, same object, still
  // alive — the property in-flight solves rely on.
  EXPECT_EQ(pinned.version, 1u);
  EXPECT_EQ(pinned.model.get(), old_model);
  EXPECT_NE(hub.acquire().model.get(), old_model);

  EXPECT_THROW(hub.publish(nullptr), std::invalid_argument);
  EXPECT_THROW(core::ModelHub(nullptr), std::invalid_argument);
}

TEST(HotSwap, RepublishingIdenticalWeightsIsBitIdentical) {
  auto s = test::net_setup("B4", 40, 1);
  auto scheme = make_teal(s.pb, /*seed=*/42);
  EXPECT_EQ(scheme.model_version(), 1u);
  const auto baseline = scheme.solve(s.pb, s.trace.at(0));

  // A different model changes the answer...
  EXPECT_EQ(scheme.publish_model(make_model(s.pb, 43)), 2u);
  const auto swapped = scheme.solve(s.pb, s.trace.at(0));
  EXPECT_FALSE(allocs_equal(baseline, swapped));

  // ...and republishing the original weights (same deterministic init seed)
  // restores it exactly: the solve path depends only on the published model,
  // not on swap history or workspace reuse.
  EXPECT_EQ(scheme.publish_model(make_model(s.pb, 42)), 3u);
  const auto restored = scheme.solve(s.pb, s.trace.at(0));
  expect_bit_identical(baseline, restored);
}

// The hot-swap atomicity hammer (and the TSan target): solver threads hammer
// solve_replica while a publisher thread flips the model between two weight
// sets. Every result must equal exactly one of the two per-version baselines
// — a solve that observed the swap mid-flight (torn read of the model
// pointer, or forward passes split across versions) would match neither.
TEST(HotSwap, ConcurrentPublishNeverTearsASolve) {
  auto s = test::net_setup("B4", 40, 1);
  auto scheme = make_teal(s.pb, /*seed=*/42);
  const auto tm = s.trace.at(0);

  auto baseline_a = scheme.solve(s.pb, tm);  // version 1 (seed 42)
  scheme.publish_model(make_model(s.pb, 43));
  auto baseline_b = scheme.solve(s.pb, tm);  // version 2 (seed 43)
  ASSERT_FALSE(allocs_equal(baseline_a, baseline_b));

  constexpr int kSolvers = 3;
  constexpr int kSolvesPerThread = 12;
  std::atomic<bool> stop_publisher{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> solvers;
  for (int t = 0; t < kSolvers; ++t) {
    solvers.emplace_back([&] {
      core::SolveWorkspace ws;
      te::Allocation out;
      for (int i = 0; i < kSolvesPerThread; ++i) {
        scheme.solve_replica(ws, s.pb, tm, out);
        if (!allocs_equal(out, baseline_a) && !allocs_equal(out, baseline_b)) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread publisher([&] {
    std::uint64_t seed = 42;
    while (!stop_publisher.load(std::memory_order_acquire)) {
      scheme.publish_model(make_model(s.pb, seed));
      seed = (seed == 42) ? 43 : 42;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (auto& t : solvers) t.join();
  stop_publisher.store(true, std::memory_order_release);
  publisher.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_GE(scheme.model_version(), 2u);
}

// Publish during sustained serving load: every offered request is accepted
// and completes (zero shed, zero failures — a swap must never cost a
// request), and each allocation matches one of the two version baselines.
TEST(HotSwap, PublishUnderServingLoadLosesNothing) {
  auto s = test::net_setup("B4", 40, 2);
  auto scheme = make_teal(s.pb, /*seed=*/42);
  const auto tm = s.trace.at(0);
  auto baseline_a = scheme.solve(s.pb, tm);
  scheme.publish_model(make_model(s.pb, 43));
  auto baseline_b = scheme.solve(s.pb, tm);
  scheme.publish_model(make_model(s.pb, 42));  // start the run on version A

  constexpr int kRequests = 24;
  serve::ServeConfig cfg;
  cfg.queue_capacity = kRequests;  // no shedding: the ledger must stay clean
  serve::Server server(s.pb, serve::make_replicas(scheme, 2), cfg);

  std::atomic<bool> stop_publisher{false};
  std::thread publisher([&] {
    std::uint64_t seed = 43;
    while (!stop_publisher.load(std::memory_order_acquire)) {
      scheme.publish_model(make_model(s.pb, seed));
      seed = (seed == 42) ? 43 : 42;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<te::Allocation> out(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(server.submit(tm, out[static_cast<std::size_t>(i)]));
  }
  server.drain();
  stop_publisher.store(true, std::memory_order_release);
  publisher.join();
  const auto stats = server.stop();
  EXPECT_EQ(stats.offered, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kRequests));
  for (const auto& a : out) {
    EXPECT_TRUE(allocs_equal(a, baseline_a) || allocs_equal(a, baseline_b))
        << "allocation matches neither published version";
  }
}

// ---- Replica failover -------------------------------------------------------

// Throws on its first (and only) solve, after optionally signalling a gate.
class DyingReplica final : public serve::Replica {
 public:
  explicit DyingReplica(std::atomic<bool>* died_flag = nullptr) : died_(died_flag) {}
  void solve(const te::Problem&, const te::TrafficMatrix&, te::Allocation&,
             double*) override {
    if (died_ != nullptr) died_->store(true, std::memory_order_release);
    throw std::runtime_error("replica hardware gave out");
  }

 private:
  std::atomic<bool>* died_;
};

// Completes instantly, but holds its first solve until `gate` opens — so the
// dying replica is guaranteed to pick up a request of its own.
class GatedReplica final : public serve::Replica {
 public:
  explicit GatedReplica(std::atomic<bool>* gate) : gate_(gate) {}
  void solve(const te::Problem&, const te::TrafficMatrix& tm, te::Allocation& out,
             double* seconds) override {
    if (!first_done_) {
      while (!gate_->load(std::memory_order_acquire)) std::this_thread::yield();
      first_done_ = true;
    }
    out.split.assign(1, tm.volume.empty() ? 0.0 : tm.volume[0]);
    if (seconds != nullptr) *seconds = 0.0;
  }

 private:
  std::atomic<bool>* gate_;
  bool first_done_ = false;
};

TEST(Failover, DeadReplicasRequestIsRequeuedToSurvivors) {
  auto s = test::net_setup("B4", 20, 1);
  std::atomic<bool> thrower_died{false};
  std::vector<serve::ReplicaPtr> replicas;
  replicas.push_back(std::make_unique<GatedReplica>(&thrower_died));
  replicas.push_back(std::make_unique<DyingReplica>(&thrower_died));
  serve::ServeConfig cfg;
  cfg.queue_capacity = 16;
  serve::Server server(s.pb, std::move(replicas), cfg);

  constexpr int kRequests = 6;  // >= 2 so both replicas pop one concurrently
  std::vector<te::Allocation> out(kRequests);
  std::atomic<int> failures{0};
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_EQ(server.submit(s.trace.at(0), out[static_cast<std::size_t>(i)],
                            [&](double solve_s) {
                              if (solve_s < 0.0) {
                                failures.fetch_add(1, std::memory_order_relaxed);
                              }
                            }),
              serve::SubmitResult::kAccepted);
  }
  server.drain();
  const auto stats = server.stop();
  // The dying replica took exactly one request; it was requeued, not lost.
  EXPECT_EQ(stats.replica_deaths, 1u);
  EXPECT_EQ(stats.requeued, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kRequests));
  std::uint64_t solved = 0;
  for (const auto& r : stats.replicas) solved += r.solved;
  EXPECT_EQ(solved + stats.failed, stats.completed);
  for (const auto& a : out) EXPECT_FALSE(a.split.empty());
}

TEST(Failover, LastReplicaDeathFailsTheBacklogTruthfully) {
  auto s = test::net_setup("B4", 20, 1);
  std::vector<serve::ReplicaPtr> replicas;
  replicas.push_back(std::make_unique<DyingReplica>());
  serve::Server server(s.pb, std::move(replicas), {});

  constexpr int kRequests = 4;
  std::vector<te::Allocation> out(kRequests);
  std::atomic<int> failures{0};
  int accepted = 0;
  for (int i = 0; i < kRequests; ++i) {
    if (server.submit(s.trace.at(0), out[static_cast<std::size_t>(i)],
                      [&](double solve_s) {
                        if (solve_s < 0.0) {
                          failures.fetch_add(1, std::memory_order_relaxed);
                        }
                      }) == serve::SubmitResult::kAccepted) {
      ++accepted;
    }
  }
  ASSERT_GE(accepted, 1);
  server.drain();  // must terminate: failed requests count as completed
  const auto stats = server.stop();
  EXPECT_EQ(stats.replica_deaths, 1u);
  EXPECT_EQ(stats.requeued, 0u);
  EXPECT_EQ(stats.failed, static_cast<std::uint64_t>(accepted));
  EXPECT_EQ(stats.completed, stats.accepted);
  EXPECT_EQ(failures.load(), accepted);

  // With every replica dead the queue is closed: new work is refused, not
  // blackholed.
  te::Allocation refused;
  EXPECT_FALSE(server.submit(s.trace.at(0), refused));
}

// ---- Fleet registry & routing ----------------------------------------------

serve::TenantConfig instant_tenant(const std::string& name, const te::Problem& pb) {
  serve::TenantConfig tc;
  tc.name = name;
  tc.pb = &pb;
  tc.make_replicas_fn = [](std::size_t n) {
    struct Echo final : serve::Replica {
      void solve(const te::Problem&, const te::TrafficMatrix& tm, te::Allocation& out,
                 double* seconds) override {
        out.split.assign(1, tm.volume.empty() ? 0.0 : tm.volume[0]);
        if (seconds != nullptr) *seconds = 0.0;
      }
    };
    std::vector<serve::ReplicaPtr> replicas;
    for (std::size_t i = 0; i < n; ++i) replicas.push_back(std::make_unique<Echo>());
    return replicas;
  };
  return tc;
}

TEST(Fleet, RegistryValidatesAndFreezesAtStart) {
  auto a = test::net_setup("B4", 20, 1);
  auto b = test::net_setup("SWAN", 30, 1);
  serve::FleetConfig cfg;
  cfg.total_replicas = 2;
  cfg.policy = "round-robin";
  serve::Fleet fleet(std::move(cfg));

  serve::TenantConfig null_pb = instant_tenant("x", a.pb);
  null_pb.pb = nullptr;
  EXPECT_THROW(fleet.add_tenant(std::move(null_pb)), std::invalid_argument);
  serve::TenantConfig no_builder;
  no_builder.name = "y";
  no_builder.pb = &a.pb;
  EXPECT_THROW(fleet.add_tenant(std::move(no_builder)), std::invalid_argument);
  // "" is the wire's default tenant, never a name.
  EXPECT_THROW(fleet.add_tenant(instant_tenant("", a.pb)), std::invalid_argument);

  fleet.add_tenant(instant_tenant("wan-us", a.pb));
  EXPECT_THROW(fleet.add_tenant(instant_tenant("wan-us", b.pb)),
               std::invalid_argument);  // duplicate name
  fleet.add_tenant(instant_tenant("wan-eu", b.pb));
  EXPECT_FALSE(fleet.started());

  fleet.start();
  EXPECT_TRUE(fleet.started());
  EXPECT_EQ(fleet.n_tenants(), 2u);
  EXPECT_THROW(fleet.add_tenant(instant_tenant("late", a.pb)), std::logic_error);
  EXPECT_THROW(fleet.start(), std::logic_error);

  // Routing: named, default ("" = first registered), unknown.
  EXPECT_EQ(fleet.route("wan-us").pb, &a.pb);
  EXPECT_EQ(fleet.route("wan-eu").pb, &b.pb);
  EXPECT_EQ(fleet.route("").pb, &a.pb);
  EXPECT_EQ(fleet.route("wan-mars").server, nullptr);
  EXPECT_EQ(fleet.route("wan-mars").pb, nullptr);

  EXPECT_EQ(fleet.replicas("wan-us") + fleet.replicas("wan-eu"), 2u);
  EXPECT_EQ(fleet.replicas("wan-mars"), 0u);

  const auto stats = fleet.stop();
  EXPECT_EQ(stats.policy, "round-robin");
  ASSERT_EQ(stats.tenants.size(), 2u);
  const auto again = fleet.stop();  // idempotent
  EXPECT_EQ(again.tenants.size(), 2u);
}

TEST(Fleet, EmptyFleetRefusesToStart) {
  serve::Fleet fleet;
  EXPECT_THROW(fleet.start(), std::logic_error);
}

// Two tenants with different topologies replayed through one fleet: each
// tenant's results are bit-identical to its own scheme solving sequentially,
// and both per-tenant ledgers balance.
TEST(Fleet, TwoTopologyReplayMatchesSequentialPerTenant) {
  auto a = test::net_setup("B4", 30, 2);
  auto b = test::net_setup("SWAN", 50, 2);
  auto scheme_a = make_teal(a.pb, 42);
  auto scheme_b = make_teal(b.pb, 43);

  sim::ServedFleetConfig cfg;
  cfg.total_replicas = 2;
  cfg.policy = "load-proportional";
  cfg.serve.queue_capacity = 64;
  std::vector<sim::ServedTenant> tenants(2);
  tenants[0] = {"wan-us", &a.pb, &a.trace, &scheme_a, nullptr, 1.0, 0};
  tenants[1] = {"wan-eu", &b.pb, &b.trace, &scheme_b, nullptr, 1.0, 0};
  const auto res = sim::run_served_fleet(tenants, cfg);

  ASSERT_EQ(res.tenants.size(), 2u);
  ASSERT_EQ(res.stats.tenants.size(), 2u);
  EXPECT_EQ(res.stats.shed(), 0u);
  EXPECT_EQ(res.stats.completed(), res.stats.accepted());
  for (int t = 0; t < a.trace.size(); ++t) {
    ASSERT_TRUE(res.tenants[0].accepted[static_cast<std::size_t>(t)]);
    expect_bit_identical(scheme_a.solve(a.pb, a.trace.at(t)),
                         res.tenants[0].allocs[static_cast<std::size_t>(t)]);
  }
  for (int t = 0; t < b.trace.size(); ++t) {
    ASSERT_TRUE(res.tenants[1].accepted[static_cast<std::size_t>(t)]);
    expect_bit_identical(scheme_b.solve(b.pb, b.trace.at(t)),
                         res.tenants[1].allocs[static_cast<std::size_t>(t)]);
  }
}

// ---- Multi-tenant wire path -------------------------------------------------

// One teal_serve-shaped process serving two tenants with different
// topologies (different demand counts, so cross-routing would be caught by
// the demand-count validation): named routing, default-tenant routing,
// demand-count mismatch per tenant, and unknown-tenant refusal.
TEST(FleetNet, TwoTenantsBehindOneSocket) {
  auto a = test::net_setup("B4", 30, 1);
  auto b = test::net_setup("SWAN", 50, 1);
  ASSERT_NE(a.pb.num_demands(), b.pb.num_demands());
  auto scheme_a = make_teal(a.pb, 42);
  auto scheme_b = make_teal(b.pb, 43);
  const auto want_a = scheme_a.solve(a.pb, a.trace.at(0));
  const auto want_b = scheme_b.solve(b.pb, b.trace.at(0));

  serve::Fleet fleet;
  {
    serve::TenantConfig tc;
    tc.name = "wan-us";
    tc.pb = &a.pb;
    tc.scheme = &scheme_a;
    fleet.add_tenant(std::move(tc));
  }
  {
    serve::TenantConfig tc;
    tc.name = "wan-eu";
    tc.pb = &b.pb;
    tc.scheme = &scheme_b;
    fleet.add_tenant(std::move(tc));
  }
  fleet.start();
  net::Server server(fleet);  // declared after fleet: destroyed first
  net::Client client("127.0.0.1", server.port());

  // Named tenants solve on their own topology, bit-identical to sequential.
  auto ra = client.solve(a.trace.at(0), "wan-us");
  ASSERT_EQ(ra.kind, net::Client::Reply::Kind::kResponse);
  expect_bit_identical(want_a, ra.alloc);
  auto rb = client.solve(b.trace.at(0), "wan-eu");
  ASSERT_EQ(rb.kind, net::Client::Reply::Kind::kResponse);
  expect_bit_identical(want_b, rb.alloc);

  // The empty tenant is the first registered one.
  auto rd = client.solve(a.trace.at(0), "");
  ASSERT_EQ(rd.kind, net::Client::Reply::Kind::kResponse);
  expect_bit_identical(want_a, rd.alloc);

  // A matrix sized for tenant A sent to tenant B is a per-tenant
  // demand-count mismatch, not a crash or a wrong-topology answer.
  auto rx = client.solve(a.trace.at(0), "wan-eu");
  ASSERT_EQ(rx.kind, net::Client::Reply::Kind::kError);
  EXPECT_EQ(rx.error_code, net::ErrorCode::kBadDemandCount);

  // Unknown tenants are refused by name.
  auto ru = client.solve(a.trace.at(0), "wan-mars");
  ASSERT_EQ(ru.kind, net::Client::Reply::Kind::kError);
  EXPECT_EQ(ru.error_code, net::ErrorCode::kUnknownTenant);
  EXPECT_NE(ru.error_message.find("wan-mars"), std::string::npos);

  client.close();
  server.stop();
  const auto fstats = fleet.stop();
  EXPECT_EQ(fstats.completed(), 3u);  // the three accepted solves
}

// Single-tenant servers refuse named tenants rather than silently serving
// their only topology: a client asking for "wan-eu" must not get "wan-us"
// allocations.
TEST(FleetNet, SingleTenantServerRejectsNamedTenants) {
  auto s = test::net_setup("B4", 20, 1);
  auto scheme = make_teal(s.pb);
  test::NetFixture fx(s.pb, serve::make_replicas(scheme, 1));
  auto client = fx.connect();
  auto r = client.solve(s.trace.at(0), "wan-eu");
  ASSERT_EQ(r.kind, net::Client::Reply::Kind::kError);
  EXPECT_EQ(r.error_code, net::ErrorCode::kUnknownTenant);
  auto ok = client.solve(s.trace.at(0));
  EXPECT_EQ(ok.kind, net::Client::Reply::Kind::kResponse);
}

// A replica death behind the wire surfaces as an explicit kInternal error
// frame — the client is told, not left waiting for a dropped response.
TEST(FleetNet, ReplicaDeathSurfacesAsInternalError) {
  auto s = test::net_setup("B4", 20, 1);
  std::vector<serve::ReplicaPtr> replicas;
  replicas.push_back(std::make_unique<DyingReplica>());
  test::NetFixture fx(s.pb, std::move(replicas));
  auto client = fx.connect();
  auto r = client.solve(s.trace.at(0));
  ASSERT_EQ(r.kind, net::Client::Reply::Kind::kError);
  EXPECT_EQ(r.error_code, net::ErrorCode::kInternal);
}

// ---- Client read timeout ----------------------------------------------------

TEST(ClientTimeout, BoundedWaitGivesUpAgainstAWedgedServer) {
  // A listener that accepts and then never replies.
  std::uint16_t port = 0;
  util::Socket listener = util::listen_tcp("127.0.0.1", 0, &port);
  std::atomic<bool> stop{false};
  std::thread acceptor([&] {
    util::Socket peer;  // held open, never written to
    while (!stop.load(std::memory_order_acquire)) {
      if (!peer.valid()) peer = util::accept_tcp(listener);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  net::Client client("127.0.0.1", port);
  EXPECT_DOUBLE_EQ(client.read_timeout(), 0.0);  // default: block forever
  client.set_read_timeout(0.2);
  EXPECT_DOUBLE_EQ(client.read_timeout(), 0.2);

  te::TrafficMatrix tm;
  tm.volume.assign(4, 1.0);
  const auto before = std::chrono::steady_clock::now();
  client.send_solve(tm);
  EXPECT_THROW(client.wait_reply(), std::runtime_error);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - before).count();
  EXPECT_GE(waited, 0.15);
  EXPECT_LT(waited, 2.0);  // gave up near the timeout, not the test timeout

  EXPECT_FALSE(client.ping());  // ping times out instead of hanging

  stop.store(true, std::memory_order_release);
  client.close();
  acceptor.join();
}

}  // namespace
}  // namespace teal

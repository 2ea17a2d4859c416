// failures.h — rolling failure schedules (scenario factory, part c).
//
// fig08/fig09 fail a sampled link set once and measure the reaction. A
// rolling schedule generalizes that into continuous churn: every interval,
// each healthy physical link fails with a per-interval hazard (both
// directions together — a fiber cut), stays down for a deterministic
// repair time, and the number of concurrently failed links is capped so the
// graph never loses so much capacity the scenario degenerates.
//
// Determinism: the hazard draw is keyed per (seed, interval, link), so the
// schedule is a pure function of (graph, n_intervals, config). Events are
// emitted already sorted by (interval, repairs-before-failures, edge id),
// and FailureState applies them in exactly that order — application between
// solves is order-deterministic by construction (tests verify step == jump).
#pragma once

#include <cstdint>
#include <vector>

#include "topo/graph.h"

namespace teal::scenario {

struct FailureEvent {
  int interval = 0;   // takes effect at the start of this interval
  bool fail = true;   // false = repair
  topo::EdgeId fwd = topo::kInvalidEdge;  // forward direction of the link
  topo::EdgeId rev = topo::kInvalidEdge;  // reverse direction (fails together)
};

struct RollingFailureConfig {
  std::uint64_t seed = 13;
  double hazard = 0.02;    // per-link per-interval failure probability, [0, 1]
  int repair_after = 5;    // intervals a failed link stays down, >= 1
  int max_concurrent = 3;  // cap on simultaneously failed links, >= 1

  void validate() const;  // throws std::invalid_argument on out-of-range values
};

// Builds the churn schedule for `g` over `n_intervals`. Physical links are
// the edge pairs (e, reverse(e)) with e.src < e.dst; a repair is always
// emitted when it lands within the horizon, so a schedule replayed to its
// end leaves only the still-down tail failed.
std::vector<FailureEvent> make_rolling_failures(const topo::Graph& g, int n_intervals,
                                                const RollingFailureConfig& cfg);

// Applies a schedule to a capacity vector between solves. capacities_at(t)
// returns the vector with every event of interval <= t applied; calling with
// decreasing t replays from scratch (the schedule is cheap), so the state is
// usable for both forward sweeps and random access. Capacities are
// snapshotted at construction: repairs restore the construction-time value
// even when the caller writes epoch capacities (zeros included) back into
// the live graph between queries, as the fleet replay does.
class FailureState {
 public:
  FailureState(const topo::Graph& g, std::vector<FailureEvent> events);

  const std::vector<double>& capacities_at(int t);
  int failed_links() const { return failed_; }

 private:
  void reset();

  std::vector<FailureEvent> events_;
  std::vector<double> orig_;  // capacities at construction time
  std::vector<double> caps_;
  std::size_t next_ = 0;
  int cursor_ = -1;  // last interval applied
  int failed_ = 0;
};

// Distinct event intervals of a schedule, ascending — the epoch boundaries a
// served replay must re-apply capacities at.
std::vector<int> failure_epoch_starts(const std::vector<FailureEvent>& events);

}  // namespace teal::scenario

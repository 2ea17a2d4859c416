#include "scenario/failures.h"

#include <algorithm>
#include <stdexcept>

#include "util/rng.h"

namespace teal::scenario {

void RollingFailureConfig::validate() const {
  if (!(hazard >= 0.0 && hazard <= 1.0)) {
    throw std::invalid_argument("RollingFailureConfig: hazard must be in [0, 1]");
  }
  if (repair_after < 1) {
    throw std::invalid_argument("RollingFailureConfig: repair_after must be >= 1");
  }
  if (max_concurrent < 1) {
    throw std::invalid_argument("RollingFailureConfig: max_concurrent must be >= 1");
  }
}

std::vector<FailureEvent> make_rolling_failures(const topo::Graph& g, int n_intervals,
                                                const RollingFailureConfig& cfg) {
  cfg.validate();
  if (n_intervals < 0) {
    throw std::invalid_argument("make_rolling_failures: n_intervals must be >= 0");
  }

  // Physical links: (fwd, rev) pairs keyed by the src < dst direction, in
  // ascending fwd-edge order (the iteration order below — part of the
  // determinism contract).
  struct Link {
    topo::EdgeId fwd, rev;
  };
  std::vector<Link> links;
  for (topo::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& ed = g.edge(e);
    if (ed.src >= ed.dst) continue;
    const topo::EdgeId rev = g.find_edge(ed.dst, ed.src);
    if (rev != topo::kInvalidEdge) links.push_back({e, rev});
  }

  std::vector<FailureEvent> events;
  std::vector<char> down(links.size(), 0);
  // repairs_due[t] = link indices repairing at interval t, in failure order.
  std::vector<std::vector<std::size_t>> repairs_due(
      static_cast<std::size_t>(n_intervals) + 1);
  int failed = 0;

  for (int t = 0; t < n_intervals; ++t) {
    // Repairs first: a link repaired at t is eligible to fail again at t+1
    // (not at t — one transition per link per interval keeps the schedule
    // unambiguous).
    std::vector<char> repaired_now(links.size(), 0);
    for (std::size_t li : repairs_due[static_cast<std::size_t>(t)]) {
      events.push_back({t, /*fail=*/false, links[li].fwd, links[li].rev});
      down[li] = 0;
      repaired_now[li] = 1;
      --failed;
    }
    for (std::size_t li = 0; li < links.size(); ++li) {
      if (down[li] || repaired_now[li] || failed >= cfg.max_concurrent) continue;
      util::CounterRng rng(util::Rng::mix_seed(
          util::Rng::mix_seed(cfg.seed, static_cast<std::uint64_t>(t)),
          static_cast<std::uint64_t>(links[li].fwd)));
      if (rng.uniform() >= cfg.hazard) continue;
      events.push_back({t, /*fail=*/true, links[li].fwd, links[li].rev});
      down[li] = 1;
      ++failed;
      const int due = t + cfg.repair_after;
      if (due < n_intervals) {
        repairs_due[static_cast<std::size_t>(due)].push_back(li);
      }
    }
  }
  return events;
}

FailureState::FailureState(const topo::Graph& g, std::vector<FailureEvent> events)
    : events_(std::move(events)) {
  if (!std::is_sorted(events_.begin(), events_.end(),
                      [](const FailureEvent& a, const FailureEvent& b) {
                        return a.interval < b.interval;
                      })) {
    throw std::invalid_argument("FailureState: events must be sorted by interval");
  }
  // Snapshot the capacities now: the caller is free to mutate the graph
  // between queries (the fleet replay writes each epoch's capacities — zeros
  // for failed links included — back into the live graph), and a repair must
  // restore the pre-failure value, not whatever the graph holds by then.
  orig_.resize(static_cast<std::size_t>(g.num_edges()));
  for (topo::EdgeId e = 0; e < g.num_edges(); ++e) {
    orig_[static_cast<std::size_t>(e)] = g.edge(e).capacity;
  }
  reset();
}

void FailureState::reset() {
  caps_ = orig_;
  next_ = 0;
  cursor_ = -1;
  failed_ = 0;
}

const std::vector<double>& FailureState::capacities_at(int t) {
  if (t < cursor_) reset();
  while (next_ < events_.size() && events_[next_].interval <= t) {
    const FailureEvent& ev = events_[next_];
    caps_[static_cast<std::size_t>(ev.fwd)] =
        ev.fail ? 0.0 : orig_[static_cast<std::size_t>(ev.fwd)];
    caps_[static_cast<std::size_t>(ev.rev)] =
        ev.fail ? 0.0 : orig_[static_cast<std::size_t>(ev.rev)];
    failed_ += ev.fail ? 1 : -1;
    ++next_;
  }
  cursor_ = t;
  return caps_;
}

std::vector<int> failure_epoch_starts(const std::vector<FailureEvent>& events) {
  std::vector<int> starts;
  for (const FailureEvent& ev : events) {
    if (starts.empty() || starts.back() != ev.interval) starts.push_back(ev.interval);
  }
  return starts;
}

}  // namespace teal::scenario

// b4-open — open loop over loopback TCP. One tenant (B4, the smallest solve
// the repository serves) behind net::Server(serve::Fleet&) with 2 replicas
// and deadline admission. The generator is this thread alone: it drives 2
// standing connections through the wire codec at the fixed offered rate,
// times every request from when it was due to be sent, and republishes the
// model with identical weights at a fixed cadence (ModelHub writes beside
// the reads). Every reply must be byte-equal to the in-process solve_into
// result for its matrix, and the generator's ledger must balance.
#include <poll.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "common.h"
#include "core/teal_scheme.h"
#include "net/server.h"
#include "net/wire.h"
#include "serve/fleet.h"
#include "te/objective.h"
#include "util/socket.h"
#include "util/stats.h"

namespace perfbench {

namespace net = teal::net;
namespace serve = teal::serve;
namespace util = teal::util;

namespace {

constexpr int kConnections = 2;
constexpr std::size_t kReplicas = 2;
constexpr double kPublishPeriodS = 0.1;  // republish cadence
constexpr int kWarmupPerConn = 32;       // round trips per connection in setup
constexpr double kGraceS = 2.0;          // wait for stragglers after the last send

struct Conn {
  util::Socket sock;
  net::FrameDecoder dec;
  std::vector<std::uint8_t> out;  // bytes not yet accepted by the kernel
  std::size_t out_pos = 0;
};

struct Setup {
  Instance inst;
  std::unique_ptr<core::TealScheme> scheme;
  std::vector<te::Allocation> expected;  // in-process result per test matrix
  std::vector<double> expected_sat;      // satisfied demand % per test matrix
  std::vector<std::unique_ptr<core::TealModel>> publishes;  // identical copies
  std::unique_ptr<serve::Fleet> fleet;
  std::unique_ptr<net::Server> server;
  std::vector<Conn> conns;
  std::uint64_t warmup_requests = 0;

  // Closes the clients, the front door and the backend, in that order; the
  // scheme and instance go last (the fleet references both).
  void teardown() {
    conns.clear();
    if (server) server->stop();
    server.reset();
    if (fleet) fleet->stop();
    fleet.reset();
    scheme.reset();
  }
  Setup() = default;
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;
  ~Setup() { teardown(); }
};

// Blocking read of one frame (setup only, before the sockets go non-blocking).
net::Frame read_frame(Conn& c) {
  net::Frame f;
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const net::DecodeStatus st = c.dec.next(f);
    if (st == net::DecodeStatus::kFrame) return f;
    check(st == net::DecodeStatus::kNeedMore, "b4-open: malformed frame from server");
    const int n = util::read_some(c.sock, buf, sizeof(buf));
    check(n > 0, "b4-open: server closed a connection during warm-up");
    c.dec.feed(buf, static_cast<std::size_t>(n));
  }
}

void build(Setup& s, const Args& args, Spans& spans) {
  s.inst = build_instance("B4", spans);
  auto model = train_bench_model(s.inst, spans);
  s.scheme = std::make_unique<core::TealScheme>(*s.inst.pb, std::move(model),
                                                core::TealSchemeConfig{});
  const te::Problem& pb = *s.inst.pb;
  const auto& test = s.inst.split.test;
  s.expected.assign(static_cast<std::size_t>(test.size()), {});
  s.expected_sat.clear();
  for (int t = 0; t < test.size(); ++t) {
    s.scheme->solve_into(pb, test.at(t), s.expected[static_cast<std::size_t>(t)]);
    s.expected_sat.push_back(
        te::satisfied_demand_pct(pb, test.at(t), s.expected[static_cast<std::size_t>(t)]));
  }
  s.publishes.clear();
  const int n_pub = static_cast<int>(std::ceil(args.seconds / kPublishPeriodS)) + 1;
  for (int i = 0; i < n_pub; ++i) {
    s.publishes.push_back(clone_model(static_cast<core::TealModel&>(s.scheme->model())));
  }

  spans.time("serve.start_s", [&] {
    serve::FleetConfig fc;
    fc.total_replicas = kReplicas;
    fc.policy = "static";
    s.fleet = std::make_unique<serve::Fleet>(std::move(fc));
    serve::TenantConfig t;
    t.name = "B4";
    t.pb = &pb;
    t.scheme = s.scheme.get();
    t.requested_replicas = kReplicas;
    t.serve.deadline_seconds = args.limit_ms / 1e3;
    s.fleet->add_tenant(std::move(t));
    s.fleet->start();
    s.server = std::make_unique<net::Server>(*s.fleet);
    s.conns.resize(kConnections);
    for (auto& c : s.conns) c.sock = util::connect_tcp("127.0.0.1", s.server->port());
  });

  // Warm-up round trips: replica workspaces, session buffers, admission EWMA.
  std::vector<std::uint8_t> bytes;
  s.warmup_requests = 0;
  for (int i = 0; i < kWarmupPerConn; ++i) {
    for (auto& c : s.conns) {
      const int t = static_cast<int>(s.warmup_requests % s.expected.size());
      bytes.clear();
      net::encode_solve_request(bytes, static_cast<std::uint32_t>(s.warmup_requests),
                                test.at(t));
      check(util::write_all(c.sock, bytes.data(), bytes.size()), "b4-open: warm-up send failed");
      const net::Frame f = read_frame(c);
      te::Allocation a;
      double secs = 0;
      check(f.type == net::FrameType::kSolveResponse &&
                net::parse_solve_response(f.payload, a, secs) &&
                same_bytes(a, s.expected[static_cast<std::size_t>(t)]),
            "b4-open: warm-up reply differs from the in-process solve");
      ++s.warmup_requests;
    }
  }
  for (auto& c : s.conns) util::set_nonblocking(c.sock, true);
}

struct Sent {
  double due = 0;
  int matrix = 0;
};

}  // namespace

void run_b4_open(const Args& args, Report& report) {
  check(args.rate > 0 && args.limit_ms > 0, "b4-open needs --rate and --limit-ms");
  Spans spans;
  Setup s;
  std::vector<double> setup_s;
  for (int rep = 0; rep < args.setups; ++rep) {
    s.teardown();  // the previous repetition, untimed
    s.inst = Instance{};
    const double t0 = now_s();
    build(s, args, spans);
    setup_s.push_back(now_s() - t0);
    spans.next_repetition();
    std::printf("  setup %d: %.3f s\n", rep, setup_s.back());
  }
  const auto& test = s.inst.split.test;
  std::printf("  B4: %d demands, %d paths, offered %.1f req/s on %d connections, "
              "limit %.3f ms, %zu replicas\n",
              s.inst.pb->num_demands(), s.inst.pb->total_paths(), args.rate, kConnections,
              args.limit_ms, kReplicas);

  // Seeded request sequence over the held-out matrices.
  const auto n_total = static_cast<std::uint64_t>(std::llround(args.rate * args.seconds));
  std::vector<int> seq(n_total);
  {
    util::Rng rng(util::Rng::mix_seed(args.seed, 7));
    for (auto& m : seq) m = static_cast<int>(rng.uniform_int(0, test.size() - 1));
  }

  // --- timed: the open loop --------------------------------------------------
  std::unordered_map<std::uint32_t, Sent> in_flight;
  in_flight.reserve(n_total);
  std::vector<double> resp_ms, late_ms, reply_solve_ms, outside_ms, encode_us, decode_us,
      publish_ms;
  resp_ms.reserve(n_total);
  late_ms.reserve(n_total);
  std::uint64_t responses = 0, shed_adm = 0, shed_full = 0, shed_other = 0, errors = 0,
                wrong = 0, on_time = 0;
  double sat_sum = 0;
  std::size_t next_pub = 0;
  const double start = now_s() + 0.01;
  const double end_due = start + static_cast<double>(n_total) / args.rate;
  std::uint64_t next = 0;
  te::Allocation reply;
  net::Frame f;
  std::uint8_t buf[64 * 1024];
  const std::uint32_t id_base = static_cast<std::uint32_t>(s.warmup_requests);

  auto on_frame = [&](double arrived) {
    auto it = in_flight.find(f.request_id);
    if (it == in_flight.end()) {
      ++errors;  // an id never sent: counted, and the ledger check fails
      return;
    }
    const Sent sent = it->second;
    in_flight.erase(it);
    if (f.type == net::FrameType::kSolveResponse) {
      double solve_s = 0;
      const double d0 = now_s();
      const bool ok = net::parse_solve_response(f.payload, reply, solve_s);
      decode_us.push_back((now_s() - d0) * 1e6);
      ++responses;
      if (!ok || !same_bytes(reply, s.expected[static_cast<std::size_t>(sent.matrix)])) {
        ++wrong;
        return;
      }
      const double r = (arrived - sent.due) * 1e3;
      resp_ms.push_back(r);
      reply_solve_ms.push_back(solve_s * 1e3);
      outside_ms.push_back(r - solve_s * 1e3);
      if (r <= args.limit_ms) ++on_time;
      sat_sum += s.expected_sat[static_cast<std::size_t>(sent.matrix)];
    } else if (f.type == net::FrameType::kShed) {
      net::ShedReason why{};
      check(net::parse_shed(f.payload, why), "b4-open: malformed shed frame");
      if (why == net::ShedReason::kAdmission) ++shed_adm;
      else if (why == net::ShedReason::kQueueFull) ++shed_full;
      else ++shed_other;
    } else {
      ++errors;
    }
  };

  std::vector<pollfd> fds(kConnections);
  for (;;) {
    double now = now_s();
    // Send everything that is due (request i is due at start + i / rate).
    while (next < n_total && start + static_cast<double>(next) / args.rate <= now) {
      const double due = start + static_cast<double>(next) / args.rate;
      Conn& c = s.conns[next % kConnections];
      const std::uint32_t id = id_base + static_cast<std::uint32_t>(next);
      const double e0 = now_s();
      late_ms.push_back((e0 - due) * 1e3);
      net::encode_solve_request(c.out, id, test.at(seq[next]));
      encode_us.push_back((now_s() - e0) * 1e6);
      in_flight.emplace(id, Sent{due, seq[next]});
      while (c.out_pos < c.out.size()) {
        const int w = util::write_some(c.sock, c.out.data() + c.out_pos, c.out.size() - c.out_pos);
        check(w != 0, "b4-open: server closed a connection");
        if (w < 0) break;
        c.out_pos += static_cast<std::size_t>(w);
      }
      if (c.out_pos == c.out.size()) c.out.clear(), c.out_pos = 0;
      ++next;
      now = now_s();
    }
    // Republish identical weights at the fixed cadence.
    if (next_pub < s.publishes.size() && now >= start + kPublishPeriodS * (next_pub + 1) &&
        now < end_due) {
      const double p0 = now_s();
      s.scheme->publish_model(std::move(s.publishes[next_pub++]));
      publish_ms.push_back((now_s() - p0) * 1e3);
    }
    if (next == n_total && in_flight.empty()) break;
    if (next == n_total && now > end_due + kGraceS) break;  // the rest is dropped

    double wait = next < n_total ? start + static_cast<double>(next) / args.rate - now
                                 : end_due + kGraceS - now;
    if (next_pub < s.publishes.size()) {
      wait = std::min(wait, start + kPublishPeriodS * (next_pub + 1) - now);
    }
    for (int i = 0; i < kConnections; ++i) {
      fds[i] = {s.conns[i].sock.fd(),
                static_cast<short>(POLLIN | (s.conns[i].out.empty() ? 0 : POLLOUT)), 0};
    }
    const timespec ts{static_cast<time_t>(std::max(0.0, wait)),
                      static_cast<long>(std::fmod(std::max(0.0, wait), 1.0) * 1e9)};
    ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    for (int i = 0; i < kConnections; ++i) {
      Conn& c = s.conns[i];
      if (fds[i].revents & POLLOUT) {
        while (c.out_pos < c.out.size()) {
          const int w =
              util::write_some(c.sock, c.out.data() + c.out_pos, c.out.size() - c.out_pos);
          check(w != 0, "b4-open: server closed a connection");
          if (w < 0) break;
          c.out_pos += static_cast<std::size_t>(w);
        }
        if (c.out_pos == c.out.size()) c.out.clear(), c.out_pos = 0;
      }
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        for (;;) {
          const int n = util::read_some(c.sock, buf, sizeof(buf));
          check(n != 0, "b4-open: server closed a connection");
          if (n < 0) break;
          c.dec.feed(buf, static_cast<std::size_t>(n));
        }
        const double arrived = now_s();
        for (;;) {
          const net::DecodeStatus st = c.dec.next(f);
          check(st != net::DecodeStatus::kMalformed, "b4-open: malformed frame from server");
          if (st != net::DecodeStatus::kFrame) break;
          on_frame(arrived);
        }
      }
    }
  }
  const double gen_end = now_s();
  const std::uint64_t dropped = in_flight.size();
  const std::uint64_t shed = shed_adm + shed_full + shed_other;

  s.conns.clear();
  s.server->stop();
  const net::NetStats ns = s.server->stats();
  const serve::FleetStats fs = s.fleet->stop();
  const serve::ServeStats& ss = fs.tenants.at(0).serve;

  // --- output checks -----------------------------------------------------------
  check(wrong == 0, "b4-open: " + std::to_string(wrong) +
                        " replies differ from the in-process solve_into result");
  check(n_total == responses + shed + errors + dropped,
        "b4-open: generator ledger does not balance (offered " + std::to_string(n_total) +
            ", responses " + std::to_string(responses) + ", shed " + std::to_string(shed) +
            ", errors " + std::to_string(errors) + ", dropped " + std::to_string(dropped) + ")");
  check(dropped + errors > 0 || ss.offered == s.warmup_requests + n_total,
        "b4-open: server offered count disagrees with the generator");
  check(ss.shed == shed, "b4-open: server shed count disagrees with the shed frames received");
  check(responses > 0, "b4-open: no request was answered");
  // Shed and late replies are misses (ops_per_s, bench.miss_pct), not
  // failures: a failed request is one that errored or was never answered.
  const std::uint64_t missed = n_total - on_time;
  report.count_op(n_total, errors + dropped);

  // --- metrics -------------------------------------------------------------------
  const double window = end_due - start;
  Report::describe("response from due (resp_ms)", resp_ms);
  Report::describe("generator lateness", late_ms);
  Report::describe("reply solve_seconds", reply_solve_ms);
  std::printf("  offered %llu  responses %llu  shed %llu (admission %llu, queue %llu)  "
              "errors %llu  dropped %llu  on time %llu  (window %.3f s, drained %.3f s)\n",
              (unsigned long long)n_total, (unsigned long long)responses,
              (unsigned long long)shed, (unsigned long long)shed_adm,
              (unsigned long long)shed_full, (unsigned long long)errors,
              (unsigned long long)dropped, (unsigned long long)on_time, window,
              gen_end - start);
  std::printf("  resp_ms_p99 %.4f ms  miss_pct %.4f %%  (n=%zu)\n", pct(resp_ms, 99),
              100.0 * static_cast<double>(missed) / static_cast<double>(n_total),
              resp_ms.size());
  std::printf("  setup repetitions n=%zu\n", setup_s.size());
  if (!args.trace) {
    report.metric("setup_s", teal::util::median(setup_s), "s");
    report.metric("ops_per_s", static_cast<double>(on_time) / window, "1/s");
    report.metric("quality_pct", sat_sum / static_cast<double>(resp_ms.size()), "%");
    return;
  }
  double busy = 0;
  for (const auto& r : ss.replicas) busy += r.busy_seconds;
  report_setup_spans(report, spans);
  report.metric("bench.op_ms_p25", pct(resp_ms, 25), "ms");
  report.metric("bench.op_ms_p50", pct(resp_ms, 50), "ms");
  report.metric("bench.op_ms_p90", pct(resp_ms, 90), "ms");
  report.metric("bench.op_ms_p99", pct(resp_ms, 99), "ms");
  report.metric("net.client_encode_us", pct(encode_us, 50), "us");
  report.metric("net.client_decode_us", pct(decode_us, 50), "us");
  report.metric("serve.reply_solve_ms_p50", pct(reply_solve_ms, 50), "ms");
  report.metric("net.outside_solve_ms_p50", pct(outside_ms, 50), "ms");
  report.metric("serve.queue_wait_ms_p50_hist", ss.queue_wait.percentile(50) * 1e3, "ms");
  report.metric("serve.replica_busy_pct",
                100.0 * busy / (static_cast<double>(ss.replicas.size()) * ss.wall_seconds), "%");
  report.metric("serve.shed_admission", static_cast<double>(shed_adm), "count");
  report.metric("serve.shed_queue_full", static_cast<double>(shed_full), "count");
  report.metric("net.dropped_responses", static_cast<double>(ns.dropped_responses), "count");
  report.metric("core.publish_ms", publish_ms.empty() ? 0.0 : pct(publish_ms, 50), "ms");
  report.metric("core.publishes", static_cast<double>(publish_ms.size()), "count");
  report.metric("bench.gen_late_ms_p99", pct(late_ms, 99), "ms");
  report.metric("bench.miss_pct",
                100.0 * static_cast<double>(missed) / static_cast<double>(n_total), "%");
}

}  // namespace perfbench

// server.h — the TCP front door of the serving layer.
//
// net::Server turns a serve::Fleet into a network service: it accepts
// standing TCP connections, runs one Session per connection, and plumbs
// validated solve requests into the fleet, where each request's tenant field
// routes it to that tenant's server and problem. Serving one topology is the
// one-tenant fleet. The division of labour:
//
//   client ── TCP ──► Session (wire.h decode)
//                        │ submit(tenant, tm)      ▲ outbox
//                        ▼                         │
//                  route tenant ──► serve queue ──► replica solves ──► completion
//                        │ refuse /                (callback re-routes the
//                        ▼ unknown tenant           response to the session
//                  kShed / kError frame             by id, or drops it if
//                  back on the socket               the client is gone)
//
// Threading: ONE I/O thread owns the listener, every socket read, and every
// socket write (a poll() loop — sessions are level-triggered on POLLIN and
// on POLLOUT while their outbox is non-empty). Replica threads never touch a
// socket: a completed solve is encoded into the session's outbox and the I/O
// thread is woken through a self-pipe. This keeps replicas immune to slow
// clients — a stalled connection fills its own outbox (and is eventually
// dropped), never a replica thread's time.
//
// Lifetime: an in-flight request owns its buffers (a shared_ptr slot
// captured by the completion callback), so a client that disconnects
// mid-request costs nothing but a dropped response — the replica finishes
// into memory the slot keeps alive, the completion finds the session gone,
// and the server keeps serving (tests/net_serve_test.cpp pins this).
// Callbacks hold a weak_ptr to the server's shared core, so they also
// outlive the net::Server itself being destroyed while the fleet drains.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "net/session.h"
#include "net/wire.h"
#include "serve/fleet.h"

namespace teal::net {

struct NetServerConfig {
  std::string host = "127.0.0.1";
  // 0 = kernel-chosen ephemeral port (read it back via port()) — the
  // hermetic mode every test uses, so parallel ctest runs never collide.
  std::uint16_t port = 0;
  std::size_t max_payload = kDefaultMaxPayload;
  std::size_t max_connections = 1024;
  // Slow-reader bound: a session whose undelivered outbox exceeds this is
  // hard-closed immediately (0 = default cap). Tests shrink it to exercise
  // the disconnect cheaply.
  std::size_t max_outbox_bytes = kDefaultMaxOutboxBytes;
};

// Aggregated over every session, live and closed, plus server-level events.
struct NetStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  // Responses that completed after their client disconnected (dropped, not
  // written — the "no replica leaked" accounting of abrupt disconnects).
  std::uint64_t dropped_responses = 0;
  SessionStats sessions;
};

class Server {
 public:
  // Binds and starts the I/O thread immediately. Requests route by their
  // tenant field through fleet.route() ("" = the fleet's default tenant; an
  // unregistered name gets kUnknownTenant), and the routed problem's demand
  // count validates every request. The fleet must be started before the
  // first request arrives and must outlive the server. Throws
  // std::system_error when the address cannot be bound.
  Server(serve::Fleet& fleet, NetServerConfig cfg = {});
  ~Server();  // stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // The bound port (the ephemeral one when cfg.port was 0).
  std::uint16_t port() const { return port_; }

  // Closes the listener and every session, then joins the I/O thread.
  // Idempotent. Requests already handed to the fleet still complete there;
  // their responses are dropped (counted in NetStats::dropped_responses).
  void stop();

  NetStats stats() const;

 private:
  struct Core;  // shared with in-flight completion callbacks (weakly)

  void io_loop();
  SubmitOutcome submit_solve(Session& session, std::uint32_t request_id,
                             const std::string& tenant, te::TrafficMatrix&& tm,
                             ShedReason& reason, int& expected_demands);

  serve::Fleet& fleet_;
  NetServerConfig cfg_;
  util::Socket listener_;
  std::uint16_t port_ = 0;
  std::shared_ptr<Core> core_;
  std::mutex stop_mu_;  // serializes stop() (destructor vs explicit callers)
  std::thread io_thread_;
};

}  // namespace teal::net

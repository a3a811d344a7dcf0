// Live introspection plane for a serving process (DESIGN.md §16).
//
// A deliberately tiny HTTP/1.0 listener on its own port and thread — fully
// separate from the binary wire protocol, so an overloaded or draining data
// plane never blocks a health probe, and any stock tool (curl, a Prometheus
// scraper, a load balancer check) can talk to it:
//
//   GET /healthz   200 "ok" | 503 "draining" | 503 "degraded" (+ SLO JSON)
//   GET /metrics   Prometheus text from the live MetricsRegistry
//   GET /varz      MetricsRegistry JSON
//   GET /tracez    flight-recorder dump (32 slowest + 32 most recent), after
//                  flushing the Chrome-trace recorder if one is installed
//   GET /profilez  roofline profiler snapshot JSON
//
// Serving is sequential (accept → read → respond → close, one request at a
// time) with per-socket timeouts and an 8 KB request cap: an admin plane
// has single-digit clients and must be impossible to wedge — a slow or
// malicious peer is cut off by SO_RCVTIMEO/SO_SNDTIMEO, never holding the
// thread hostage. Anything malformed, oversized, or non-GET gets a typed
// 4xx and a closed connection.

#ifndef WIDEN_SERVE_NET_ADMIN_H_
#define WIDEN_SERVE_NET_ADMIN_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "obs/slo.h"
#include "util/status.h"

namespace widen::serve::net {

struct AdminOptions {
  std::string host = "127.0.0.1";
  /// In [0, 65535]; 0 asks the kernel for an ephemeral port (see
  /// AdminServer::port()).
  int port = 0;
  /// Liveness callback for /healthz: return false with a reason ("draining")
  /// to answer 503. Unset = always healthy (modulo SLO degradation).
  std::function<bool(std::string* reason)> health_fn;
  /// When set, /metrics ticks the engine before dumping (so scrape cadence
  /// drives the SLO windows) and /healthz reports 503 "degraded" while any
  /// short-window objective is missed. Not owned; must outlive the server.
  obs::SloEngine* slo = nullptr;
};

class AdminServer {
 public:
  /// /tracez dumps this many slowest and this many most recent records.
  static constexpr size_t kTracezRecords = 32;
  /// Per-connection socket recv/send timeout.
  static constexpr int64_t kSocketTimeoutMillis = 2000;

  /// Binds, listens, and starts the serving thread.
  static StatusOr<std::unique_ptr<AdminServer>> Start(
      const AdminOptions& options);

  /// Stops and joins.
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// The bound port (the kernel's pick when options.port was 0).
  int port() const { return port_; }

  /// Stops accepting and joins the serving thread. Idempotent.
  void Shutdown();

 private:
  AdminServer(AdminOptions options, int listen_fd, int port);

  void ServeLoop();
  void ServeOne(int fd);
  /// Routes one parsed request line; fills status/content_type/body.
  void Handle(const std::string& method, const std::string& path, int* status,
              std::string* content_type, std::string* body);

  const AdminOptions options_;
  const int port_;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::once_flag join_once_;
  std::thread thread_;  // last member: starts in the ctor body
};

/// Minimal blocking HTTP/1.0 GET, for the admin plane's own tools (load
/// benches, adminctl, tests) — connects, sends `GET <path>`, returns the
/// response body and, optionally, the status code. Not a general client.
StatusOr<std::string> AdminHttpGet(const std::string& host, int port,
                                   const std::string& path,
                                   int* status_code = nullptr);

}  // namespace widen::serve::net

#endif  // WIDEN_SERVE_NET_ADMIN_H_

// Socket front-end over InferenceSession + RequestBatcher (DESIGN.md §14).
//
// One epoll I/O thread owns every connection: it accepts, reads frames,
// decodes requests, and flushes response bytes. Embed/Predict requests are
// handed to a RequestBatcher (micro-batching across ALL connections, with
// per-request deadlines propagated from the wire); Ingest and Reload run on
// a single control thread (both take the session's exclusive paths); Health
// answers inline. Batcher/control completions serialize their response off
// the I/O thread, then park the bytes on a completion queue and wake the
// epoll loop through an eventfd — the I/O thread never blocks on compute,
// and no thread but the I/O thread touches a socket.
//
// Admission control: at most NetServer::kMaxInflightRequests decoded
// requests may be outstanding (queued in the batcher, running in a batch, or
// waiting on the control thread). Past the bound, new requests get an
// immediate kUnavailable response instead of a queue slot — overload fails
// fast and keeps p99 for admitted traffic honest.
//
// Hot reload: the serving session lives behind a mutex-guarded shared_ptr
// with a generation counter. Reload() installs a freshly loaded session;
// batches already in flight hold a shared_ptr to the OLD session and drain
// gracefully (the last reference frees it), while every batch formed after
// the swap re-validates its requests against the new session
// (serve/request_batcher.h).
//
// Graceful drain: SignalDrain() (safe to call from a signal-watcher thread)
// stops accepting connections and sets the draining flag on every response;
// clients wind down, the server answers everything already received, and
// Join() returns once the last connection closes (or NetServer::kDrainGrace
// expires). Nothing admitted is ever dropped.
//
// Admin plane: StartAdminPlane() puts the HTTP introspection listener
// (admin.h) and an SLO engine over the server's own request histograms next
// to a NetServer.

#ifndef WIDEN_SERVE_NET_SERVER_H_
#define WIDEN_SERVE_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/slo.h"
#include "serve/inference_session.h"
#include "serve/net/admin.h"
#include "serve/net/protocol.h"
#include "serve/request_batcher.h"

namespace widen::serve::net {

struct ServerOptions {
  /// Address to bind; the default loopback keeps the server private to the
  /// host unless explicitly exposed.
  std::string host = "127.0.0.1";
  /// TCP port in [0, 65535]; 0 asks the kernel for an ephemeral port (see
  /// port()).
  int port = 0;
  /// Loads a replacement session for hot reload. Reload requests (wire op or
  /// Reload()) fail with kFailedPrecondition when unset.
  std::function<StatusOr<std::shared_ptr<InferenceSession>>()> reload_fn;
  /// When > 0, an Embed/Predict request whose admission-to-completion time
  /// exceeds this many milliseconds logs a rate-limited (1/s) warning with
  /// its per-stage breakdown — the "dump on SLO violation" path; the full
  /// record is always in the flight recorder regardless.
  int64_t slo_warn_ms = 0;
  BatcherOptions batcher;
};

class NetServer {
 public:
  /// Admission bound: decoded requests outstanding across all connections.
  static constexpr int64_t kMaxInflightRequests = 256;
  /// How long a drain waits for clients to finish and hang up before
  /// force-closing what is left.
  static constexpr std::chrono::milliseconds kDrainGrace{5000};

  /// Binds, listens, and starts the I/O + control threads. `session` is the
  /// initial serving session (generation 0).
  static StatusOr<std::unique_ptr<NetServer>> Start(
      std::shared_ptr<InferenceSession> session, const ServerOptions& options);

  /// Drains and joins.
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound port (the kernel's pick when options.port was 0).
  int port() const { return port_; }

  /// Begins a graceful drain; returns immediately. Callable from any thread,
  /// including a sigwait()-style signal watcher. Idempotent.
  void SignalDrain();

  /// Blocks until the server has fully stopped (drain complete or grace
  /// expired) and every worker is joined. Idempotent.
  void Join();

  /// Hot checkpoint reload: runs options.reload_fn and swaps the session in.
  /// In-flight batches finish on the old session. Returns the new
  /// generation.
  StatusOr<uint64_t> Reload();

  std::shared_ptr<InferenceSession> session() const;
  uint64_t generation() const { return generation_.load(); }
  bool draining() const { return draining_.load(); }

  struct Stats {
    int64_t connections_accepted = 0;
    int64_t requests = 0;          // decoded and admitted
    int64_t responses = 0;         // completed (sent or dropped w/ conn)
    int64_t overload_rejections = 0;
    int64_t protocol_errors = 0;
    int64_t reloads = 0;
  };
  Stats stats() const;

 private:
  struct Conn {
    int fd = -1;
    uint64_t id = 0;
    std::string in;            // unparsed request bytes
    size_t in_consumed = 0;    // parsed prefix of `in` (compacted lazily)
    std::deque<std::string> out;
    size_t out_offset = 0;     // sent prefix of out.front()
    bool peer_closed = false;  // EOF read; flush + close once idle
    bool want_write = false;   // EPOLLOUT currently armed
    bool broken = false;       // fatal write error; close at next checkpoint
    int64_t awaiting = 0;      // admitted requests not yet answered
  };

  NetServer(std::shared_ptr<InferenceSession> session, ServerOptions options,
            int listen_fd, int port);

  void IoLoop();
  void ControlLoop();
  void PostControl(std::function<void()> task);

  void AcceptNew();
  void HandleReadable(Conn* conn);
  void HandleWritable(Conn* conn);
  void DispatchRequest(Conn* conn, NetRequest request);
  void DispatchIngest(uint64_t conn_id, NetRequest request);
  void DispatchReload(uint64_t conn_id, const NetRequest& request);
  /// Queues `response` for `conn_id` from any thread and wakes the loop.
  void Complete(uint64_t conn_id, const NetResponse& response);
  /// Same, from the I/O thread with the connection at hand.
  void Reply(Conn* conn, const NetResponse& response);
  void QueueBytes(Conn* conn, std::string frame);
  void UpdateEpoll(Conn* conn);
  void CloseConn(uint64_t conn_id);
  void WakeLoop();
  NetResponse ErrorResponse(const NetRequest& request, const Status& status);

  const ServerOptions options_;
  const int port_;

  mutable std::mutex session_mu_;
  std::shared_ptr<InferenceSession> session_;
  std::atomic<uint64_t> generation_{0};

  std::unique_ptr<RequestBatcher> batcher_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;

  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> inflight_{0};

  // Completions from batcher/control threads to the I/O thread.
  std::mutex completions_mu_;
  std::vector<std::pair<uint64_t, std::string>> completions_;

  // Control-thread task queue (ingest, reload).
  std::mutex control_mu_;
  std::condition_variable control_cv_;
  std::deque<std::function<void()>> control_tasks_;
  bool control_stop_ = false;

  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;  // I/O thread
  uint64_t next_conn_id_ = 16;

  mutable std::mutex stats_mu_;
  Stats stats_;

  std::once_flag join_once_;
  std::thread control_thread_;
  std::thread io_thread_;  // last: starts in Start() after state is ready
};

/// The admin plane of one NetServer (DESIGN.md §16). Members are destroyed
/// in reverse order, so the listener stops before the engine it reads.
struct AdminPlane {
  std::unique_ptr<obs::SloEngine> slo;
  std::unique_ptr<AdminServer> server;
};

/// Starts the admin plane for `net` on 127.0.0.1:`port` (0 asks the kernel;
/// see AdminPlane::server->port()). The SLO engine judges `net`'s embed and
/// predict request histograms against `slo_threshold_us`, and /healthz
/// answers 503 "draining" once `net` drains. `net` must outlive the plane.
StatusOr<AdminPlane> StartAdminPlane(NetServer* net, int port,
                                     double slo_threshold_us);

}  // namespace widen::serve::net

#endif  // WIDEN_SERVE_NET_SERVER_H_

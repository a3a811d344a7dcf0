#include "serve/net/server.h"

#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/stage.h"
#include "serve/net/sockets.h"
#include "serve/request_context.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace widen::serve::net {

namespace {

// epoll user-data tags for the two non-connection fds.
constexpr uint64_t kListenTag = 0;
constexpr uint64_t kWakeTag = 1;

constexpr int kListenBacklog = 64;

// Compact the parsed prefix of a connection's input buffer once it crosses
// this size — amortized O(1) erase instead of per-frame memmove.
constexpr size_t kCompactThreshold = 1u << 20;

struct NetMetrics {
  obs::Counter* requests;
  obs::Counter* responses;
  obs::Counter* overload;
  obs::Counter* protocol_errors;
  obs::Counter* reloads;
  obs::Gauge* connections;

  static const NetMetrics& Get() {
    static const NetMetrics m = {
        obs::MetricsRegistry::Get().GetCounter(
            "widen_net_requests_total",
            "Requests decoded and admitted by the socket front-end"),
        obs::MetricsRegistry::Get().GetCounter(
            "widen_net_responses_total",
            "Responses completed by the socket front-end"),
        obs::MetricsRegistry::Get().GetCounter(
            "widen_net_overload_total",
            "Requests fast-failed kUnavailable by admission control"),
        obs::MetricsRegistry::Get().GetCounter(
            "widen_net_protocol_errors_total",
            "Connections dropped for malformed frames"),
        obs::MetricsRegistry::Get().GetCounter(
            "widen_net_reloads_total", "Hot checkpoint reloads completed"),
        obs::MetricsRegistry::Get().GetGauge(
            "widen_net_connections", "Currently open client connections"),
    };
    return m;
  }
};

// Admission-to-completion wall time of an Embed or Predict request: the
// server-side latency the admin plane's SLO engine judges (client-side
// numbers include the network).
obs::Histogram* RequestHistogram(NetOp op) {
  WIDEN_METRIC_HISTOGRAM(embed, "widen_net_embed_request_us",
                         "Embed request wall time, admission to completion "
                         "(microseconds)");
  WIDEN_METRIC_HISTOGRAM(predict, "widen_net_predict_request_us",
                         "Predict request wall time, admission to completion "
                         "(microseconds)");
  return op == NetOp::kPredict ? predict : embed;
}

// Saturating narrowing for FlightRecord's compact fields.
template <typename To>
To Saturate(int64_t v) {
  if (v < 0) return 0;
  const int64_t cap = static_cast<int64_t>(std::numeric_limits<To>::max());
  return static_cast<To>(std::min(v, cap));
}

obs::FlightRecord ToFlightRecord(const RequestContext& ctx) {
  obs::FlightRecord record;
  record.trace_id = ctx.trace_id;
  record.request_id = ctx.request_id;
  record.admitted_us = ctx.admitted_us;
  record.replied_us = ctx.replied_us;
  record.queue_us =
      Saturate<uint32_t>(ctx.batch_formed_us > 0
                             ? ctx.batch_formed_us - ctx.admitted_us
                             : 0);
  record.encode_us = Saturate<uint32_t>(ctx.encode_us);
  record.op = ctx.op;
  record.batch_nodes = Saturate<uint16_t>(ctx.batch_nodes);
  record.store_hits = Saturate<uint16_t>(ctx.store_hits);
  record.cold_encodes = Saturate<uint16_t>(ctx.cold_encodes);
  return record;
}

// Completes a tracked request: stamps the reply time, records the
// server-side latency histogram, publishes the flight record, and — past
// options.slo_warn_ms — logs one stage-breakdown warning per second at most
// (a violation storm must not amplify itself through the logger).
void FinishTracked(RequestContext* ctx, int64_t slo_warn_ms) {
  if (ctx == nullptr || !obs::MetricsEnabled()) return;
  ctx->replied_us = obs::MonotonicMicros();
  const int64_t total_us = ctx->replied_us - ctx->admitted_us;
  RequestHistogram(static_cast<NetOp>(ctx->op))
      ->Record(static_cast<double>(total_us));
  obs::FlightRecorder::Get().Record(ToFlightRecord(*ctx));
  if (slo_warn_ms > 0 && total_us > slo_warn_ms * 1000) {
    static std::atomic<int64_t> last_warn_us{-1'000'000};
    int64_t last = last_warn_us.load(std::memory_order_relaxed);
    const int64_t now = ctx->replied_us;
    if (now - last >= 1'000'000 &&
        last_warn_us.compare_exchange_strong(last, now,
                                             std::memory_order_relaxed)) {
      WIDEN_LOG(Warning)
          << "SLO violation: " << NetOpName(static_cast<NetOp>(ctx->op))
          << " request " << ctx->request_id << " took " << total_us
          << " us (> " << slo_warn_ms << " ms): queue="
          << (ctx->batch_formed_us > 0
                  ? ctx->batch_formed_us - ctx->admitted_us
                  : 0)
          << " us encode=" << ctx->encode_us << " us batch_nodes="
          << ctx->batch_nodes << " store_hits=" << ctx->store_hits
          << " cold_encodes=" << ctx->cold_encodes;
    }
  }
}

}  // namespace

StatusOr<std::unique_ptr<NetServer>> NetServer::Start(
    std::shared_ptr<InferenceSession> session, const ServerOptions& options) {
  if (session == nullptr) {
    return Status::InvalidArgument("initial session must not be null");
  }
  WIDEN_ASSIGN_OR_RETURN(ListeningSocket listener,
                         ListenTcp(options.host, options.port, kListenBacklog,
                                   SOCK_NONBLOCK));
  return std::unique_ptr<NetServer>(new NetServer(
      std::move(session), options, listener.fd, listener.port));
}

NetServer::NetServer(std::shared_ptr<InferenceSession> session,
                     ServerOptions options, int listen_fd, int port)
    : options_(std::move(options)), port_(port), session_(std::move(session)),
      listen_fd_(listen_fd) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  WIDEN_CHECK_GE(epoll_fd_, 0);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  WIDEN_CHECK_GE(wake_fd_, 0);
  batcher_ = std::make_unique<RequestBatcher>(
      RequestBatcher::SessionProvider([this] { return this->session(); }),
      options_.batcher);
  control_thread_ = std::thread(&NetServer::ControlLoop, this);
  io_thread_ = std::thread(&NetServer::IoLoop, this);
  WIDEN_LOG(Info) << "net server listening on " << options_.host << ":"
                   << port_;
}

NetServer::~NetServer() {
  SignalDrain();
  Join();
}

std::shared_ptr<InferenceSession> NetServer::session() const {
  std::lock_guard<std::mutex> lock(session_mu_);
  return session_;
}

void NetServer::SignalDrain() {
  draining_.store(true);
  WakeLoop();
}

void NetServer::WakeLoop() {
  const int fd = wake_fd_;
  if (fd < 0) return;
  const uint64_t one = 1;
  // Retry-free best effort: a full eventfd counter already means a wake-up
  // is pending.
  [[maybe_unused]] ssize_t n = ::write(fd, &one, sizeof(one));
}

void NetServer::Join() {
  std::call_once(join_once_, [this] {
    io_thread_.join();
    // The I/O loop is gone: no new submissions. Shut the batcher down (its
    // queue is empty after a clean drain; anything left fails typed), then
    // let the control thread finish its admitted tasks.
    batcher_->Shutdown();
    {
      std::lock_guard<std::mutex> lock(control_mu_);
      control_stop_ = true;
    }
    control_cv_.notify_all();
    control_thread_.join();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    ::close(epoll_fd_);
    const int wake = wake_fd_;
    wake_fd_ = -1;
    ::close(wake);
  });
}

StatusOr<uint64_t> NetServer::Reload() {
  if (!options_.reload_fn) {
    return Status::FailedPrecondition(
        "server was started without a reload function");
  }
  obs::StageScope stage(obs::Stage::kReload);
  WIDEN_ASSIGN_OR_RETURN(std::shared_ptr<InferenceSession> fresh,
                         options_.reload_fn());
  if (fresh == nullptr) {
    return Status::Internal("reload_fn returned a null session");
  }
  {
    std::lock_guard<std::mutex> lock(session_mu_);
    session_ = std::move(fresh);
  }
  // In-flight batches hold a shared_ptr to the old session and drain
  // gracefully; the generation bump is what Health reports.
  const uint64_t generation = generation_.fetch_add(1) + 1;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.reloads;
  }
  NetMetrics::Get().reloads->Increment();
  WIDEN_LOG(Info) << "hot reload complete; serving generation "
                   << generation;
  return generation;
}

NetServer::Stats NetServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void NetServer::PostControl(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    control_tasks_.push_back(std::move(task));
  }
  control_cv_.notify_one();
}

void NetServer::ControlLoop() {
  std::unique_lock<std::mutex> lock(control_mu_);
  while (true) {
    control_cv_.wait(
        lock, [&] { return control_stop_ || !control_tasks_.empty(); });
    if (control_tasks_.empty()) {
      if (control_stop_) break;
      continue;
    }
    std::function<void()> task = std::move(control_tasks_.front());
    control_tasks_.pop_front();
    lock.unlock();
    task();
    lock.lock();
  }
}

void NetServer::IoLoop() {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenTag;
  WIDEN_CHECK_EQ(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev), 0);
  ev.data.u64 = kWakeTag;
  WIDEN_CHECK_EQ(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev), 0);

  bool drain_started = false;
  bool listen_open = true;
  std::chrono::steady_clock::time_point drain_deadline;
  epoll_event events[64];
  while (true) {
    int timeout_ms = -1;
    if (drain_started) {
      const auto left = drain_deadline - std::chrono::steady_clock::now();
      timeout_ms = static_cast<int>(std::max<int64_t>(
          0, std::chrono::duration_cast<std::chrono::milliseconds>(left)
                 .count()));
    }
    const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (n < 0 && errno != EINTR) {
      WIDEN_LOG(Error) << "epoll_wait: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < std::max(n, 0); ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kListenTag) {
        AcceptNew();
        continue;
      }
      if (tag == kWakeTag) {
        uint64_t drainv = 0;
        [[maybe_unused]] ssize_t r =
            ::read(wake_fd_, &drainv, sizeof(drainv));
        continue;
      }
      auto it = conns_.find(tag);
      if (it == conns_.end()) continue;  // closed earlier in this batch
      Conn* conn = it->second.get();
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConn(tag);
        continue;
      }
      if (events[i].events & EPOLLIN) HandleReadable(conn);
      // The conn may have been closed by the read path; re-look-up.
      it = conns_.find(tag);
      if (it == conns_.end()) continue;
      conn = it->second.get();
      if (events[i].events & EPOLLOUT) HandleWritable(conn);
    }

    // Deliver completions from batcher/control threads.
    std::vector<std::pair<uint64_t, std::string>> done;
    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      done.swap(completions_);
    }
    for (auto& [conn_id, frame] : done) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.responses;
      }
      NetMetrics::Get().responses->Increment();
      auto it = conns_.find(conn_id);
      if (it == conns_.end()) continue;  // client went away; drop the bytes
      Conn* conn = it->second.get();
      --conn->awaiting;
      QueueBytes(conn, std::move(frame));
      if (conn->broken ||
          (conn->peer_closed && conn->awaiting == 0 && conn->out.empty())) {
        CloseConn(conn_id);
      }
    }

    if (draining_.load()) {
      if (!drain_started) {
        drain_started = true;
        drain_deadline = std::chrono::steady_clock::now() + kDrainGrace;
        if (listen_open) {
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
          ::close(listen_fd_);
          listen_fd_ = -1;
          listen_open = false;
        }
        WIDEN_LOG(Info) << "drain started: " << conns_.size()
                         << " connection(s), " << inflight_.load()
                         << " request(s) in flight";
      }
      if (conns_.empty() && inflight_.load() == 0) break;
      if (std::chrono::steady_clock::now() >= drain_deadline) {
        WIDEN_LOG(Warning) << "drain grace expired with " << conns_.size()
                            << " connection(s) still open; force-closing";
        std::vector<uint64_t> ids;
        ids.reserve(conns_.size());
        for (const auto& [id, conn] : conns_) ids.push_back(id);
        for (uint64_t id : ids) CloseConn(id);
        break;
      }
    }
  }
}

void NetServer::AcceptNew() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      WIDEN_LOG(Warning) << "accept4: " << std::strerror(errno);
      return;
    }
    const int enable = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(conn->id, std::move(conn));
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.connections_accepted;
    }
    NetMetrics::Get().connections->Set(static_cast<double>(conns_.size()));
  }
}

void NetServer::CloseConn(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
  ::close(it->second->fd);
  conns_.erase(it);
  NetMetrics::Get().connections->Set(static_cast<double>(conns_.size()));
}

void NetServer::HandleReadable(Conn* conn) {
  char buf[65536];
  while (true) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->in.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      conn->peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConn(conn->id);
    return;
  }

  while (true) {
    const char* base = conn->in.data() + conn->in_consumed;
    const size_t avail = conn->in.size() - conn->in_consumed;
    size_t frame_bytes = 0;
    const Status peek = PeekFrame(base, avail, &frame_bytes);
    if (peek.code() == StatusCode::kOutOfRange) break;  // need more bytes
    if (!peek.ok()) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.protocol_errors;
      }
      NetMetrics::Get().protocol_errors->Increment();
      WIDEN_LOG(Warning) << "dropping connection: " << peek.ToString();
      CloseConn(conn->id);
      return;
    }
    NetRequest request;
    const Status decoded = DecodeRequestPayload(
        base + kFrameHeaderBytes, frame_bytes - kFrameHeaderBytes, &request);
    conn->in_consumed += frame_bytes;
    if (!decoded.ok()) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.protocol_errors;
      }
      NetMetrics::Get().protocol_errors->Increment();
      Reply(conn, ErrorResponse(request, decoded));
      if (conn->broken) break;
      continue;
    }
    DispatchRequest(conn, std::move(request));
    if (conn->broken) break;
  }

  if (conn->in_consumed == conn->in.size()) {
    conn->in.clear();
    conn->in_consumed = 0;
  } else if (conn->in_consumed > kCompactThreshold) {
    conn->in.erase(0, conn->in_consumed);
    conn->in_consumed = 0;
  }
  if (conn->broken ||
      (conn->peer_closed && conn->awaiting == 0 && conn->out.empty())) {
    CloseConn(conn->id);
  }
}

void NetServer::DispatchRequest(Conn* conn, NetRequest request) {
  if (request.op == NetOp::kHealth) {
    std::shared_ptr<InferenceSession> session = this->session();
    NetResponse response;
    response.id = request.id;
    response.op = NetOp::kHealth;
    response.graph_version = session->graph_version();
    response.generation = generation_.load();
    response.num_nodes = session->num_nodes();
    response.has_trace = request.has_trace;
    response.trace_id = request.trace_id;
    response.trace_flags = request.trace_flags;
    Reply(conn, response);
    return;
  }
  if (request.op == NetOp::kReload && !options_.reload_fn) {
    Reply(conn, ErrorResponse(request,
                              Status::FailedPrecondition(
                                  "server was started without a reload "
                                  "function")));
    return;
  }
  // Admission control: bounded in-flight work. fetch_add-then-check keeps
  // the bound exact under concurrent dispatch.
  if (inflight_.fetch_add(1) >= kMaxInflightRequests) {
    inflight_.fetch_sub(1);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.overload_rejections;
    }
    NetMetrics::Get().overload->Increment();
    Reply(conn, ErrorResponse(
                    request,
                    Status::Unavailable(StrCat(
                        "server over capacity (", kMaxInflightRequests,
                        " requests in flight); retry with backoff"))));
    return;
  }
  ++conn->awaiting;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.requests;
  }
  NetMetrics::Get().requests->Increment();

  const uint64_t conn_id = conn->id;
  const uint64_t request_id = request.id;
  RequestBatcher::SubmitOptions submit;
  if (request.deadline_ms > 0) {
    submit.deadline = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(request.deadline_ms);
  }
  // Trace every Embed/Predict (trailer or not — the server's flight
  // recorder wants untraced traffic too). The completion lambda owns the
  // context; the batcher sees a raw pointer whose stamps all happen-before
  // that lambda runs.
  std::shared_ptr<RequestContext> ctx;
  if (obs::MetricsEnabled() &&
      (request.op == NetOp::kEmbed || request.op == NetOp::kPredict)) {
    ctx = std::make_shared<RequestContext>();
    ctx->trace_id = request.trace_id;
    ctx->trace_flags = request.trace_flags;
    ctx->request_id = request.id;
    ctx->op = static_cast<uint8_t>(request.op);
    ctx->admitted_us = obs::MonotonicMicros();
    submit.context = ctx.get();
  }
  const bool has_trace = request.has_trace;
  const uint64_t trace_id = request.trace_id;
  const uint8_t trace_flags = request.trace_flags;
  const int64_t slo_warn_ms = options_.slo_warn_ms;
  switch (request.op) {
    case NetOp::kEmbed:
      batcher_->SubmitEmbed(
          std::move(request.nodes), submit,
          [this, conn_id, request_id, ctx, has_trace, trace_id, trace_flags,
           slo_warn_ms](StatusOr<tensor::Tensor> result) {
            NetResponse response;
            response.id = request_id;
            response.op = NetOp::kEmbed;
            if (result.ok()) {
              response.rows = result->rows();
              response.cols = result->cols();
              response.floats.assign(result->data(),
                                     result->data() + result->size());
            } else {
              response.code = result.status().code();
              response.error = result.status().message();
            }
            response.has_trace = has_trace;
            response.trace_id = trace_id;
            response.trace_flags = trace_flags;
            FinishTracked(ctx.get(), slo_warn_ms);
            Complete(conn_id, response);
          });
      break;
    case NetOp::kPredict:
      batcher_->SubmitPredict(
          std::move(request.nodes), submit,
          [this, conn_id, request_id, ctx, has_trace, trace_id, trace_flags,
           slo_warn_ms](StatusOr<std::vector<int32_t>> result) {
            NetResponse response;
            response.id = request_id;
            response.op = NetOp::kPredict;
            if (result.ok()) {
              response.labels = std::move(result.value());
            } else {
              response.code = result.status().code();
              response.error = result.status().message();
            }
            response.has_trace = has_trace;
            response.trace_id = trace_id;
            response.trace_flags = trace_flags;
            FinishTracked(ctx.get(), slo_warn_ms);
            Complete(conn_id, response);
          });
      break;
    case NetOp::kIngest:
      PostControl([this, conn_id, request = std::move(request)]() mutable {
        DispatchIngest(conn_id, std::move(request));
      });
      break;
    case NetOp::kReload:
      PostControl([this, conn_id, request]() { DispatchReload(conn_id, request); });
      break;
    case NetOp::kHealth:
      break;  // handled above
  }
}

void NetServer::DispatchIngest(uint64_t conn_id, NetRequest request) {
  NetResponse response;
  response.id = request.id;
  response.op = NetOp::kIngest;
  std::shared_ptr<InferenceSession> session = this->session();
  const IngestPayload& payload = request.ingest;
  GraphDelta delta = session->NewDelta();
  const graph::NodeId first_new =
      static_cast<graph::NodeId>(delta.first_new_id());
  const int64_t num_new = static_cast<int64_t>(payload.node_types.size());
  for (int64_t i = 0; i < num_new; ++i) {
    std::vector<float> features(
        payload.features.begin() + i * payload.feature_dim,
        payload.features.begin() + (i + 1) * payload.feature_dim);
    delta.AddNode(payload.node_types[static_cast<size_t>(i)],
                  std::move(features));
  }
  Status mapped = Status::OK();
  for (const WireEdge& e : payload.edges) {
    // Negative endpoints are relative references to this request's own new
    // nodes: -1-k names the k-th node added above.
    auto resolve = [&](int32_t raw) -> graph::NodeId {
      if (raw >= 0) return raw;
      const int64_t k = -1 - static_cast<int64_t>(raw);
      if (k >= num_new) {
        mapped = Status::InvalidArgument(
            StrCat("edge references new node ", k, " but the request adds ",
                   num_new));
        return -1;
      }
      return first_new + static_cast<graph::NodeId>(k);
    };
    const graph::NodeId u = resolve(e.u);
    const graph::NodeId v = resolve(e.v);
    if (!mapped.ok()) break;
    delta.AddEdge(u, v, e.type);
  }
  if (!mapped.ok()) {
    response.code = mapped.code();
    response.error = mapped.message();
    Complete(conn_id, response);
    return;
  }
  StatusOr<uint64_t> version = session->Ingest(delta);
  if (version.ok()) {
    response.value = *version;
  } else {
    response.code = version.status().code();
    response.error = version.status().message();
  }
  Complete(conn_id, response);
}

void NetServer::DispatchReload(uint64_t conn_id, const NetRequest& request) {
  NetResponse response;
  response.id = request.id;
  response.op = NetOp::kReload;
  StatusOr<uint64_t> generation = Reload();
  if (generation.ok()) {
    response.value = *generation;
  } else {
    response.code = generation.status().code();
    response.error = generation.status().message();
  }
  Complete(conn_id, response);
}

NetResponse NetServer::ErrorResponse(const NetRequest& request,
                                     const Status& status) {
  NetResponse response;
  response.id = request.id;
  response.op = request.op;
  response.code = status.code();
  response.error = status.message();
  response.has_trace = request.has_trace;
  response.trace_id = request.trace_id;
  response.trace_flags = request.trace_flags;
  return response;
}

void NetServer::Complete(uint64_t conn_id, const NetResponse& response) {
  NetResponse stamped = response;
  stamped.draining = draining_.load();
  std::string frame = EncodeResponse(stamped);
  inflight_.fetch_sub(1);
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    completions_.emplace_back(conn_id, std::move(frame));
  }
  WakeLoop();
}

void NetServer::Reply(Conn* conn, const NetResponse& response) {
  NetResponse stamped = response;
  stamped.draining = draining_.load();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.responses;
  }
  NetMetrics::Get().responses->Increment();
  QueueBytes(conn, EncodeResponse(stamped));
}

void NetServer::QueueBytes(Conn* conn, std::string frame) {
  conn->out.push_back(std::move(frame));
  HandleWritable(conn);
}

void NetServer::HandleWritable(Conn* conn) {
  while (!conn->out.empty()) {
    const std::string& front = conn->out.front();
    const ssize_t n = ::send(conn->fd, front.data() + conn->out_offset,
                             front.size() - conn->out_offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      conn->broken = true;
      break;
    }
    conn->out_offset += static_cast<size_t>(n);
    if (conn->out_offset == front.size()) {
      conn->out.pop_front();
      conn->out_offset = 0;
    }
  }
  const bool want_write = !conn->out.empty() && !conn->broken;
  if (want_write != conn->want_write) {
    conn->want_write = want_write;
    UpdateEpoll(conn);
  }
}

void NetServer::UpdateEpoll(Conn* conn) {
  epoll_event ev{};
  ev.events = EPOLLIN | (conn->want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  ev.data.u64 = conn->id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

StatusOr<AdminPlane> StartAdminPlane(NetServer* net, int port,
                                     double slo_threshold_us) {
  AdminPlane plane;
  plane.slo = std::make_unique<obs::SloEngine>(std::vector<obs::SloObjective>{
      {"embed", RequestHistogram(NetOp::kEmbed), slo_threshold_us},
      {"predict", RequestHistogram(NetOp::kPredict), slo_threshold_us}});
  AdminOptions options;
  options.port = port;
  options.slo = plane.slo.get();
  options.health_fn = [net](std::string* reason) {
    if (!net->draining()) return true;
    *reason = "draining";
    return false;
  };
  WIDEN_ASSIGN_OR_RETURN(plane.server, AdminServer::Start(options));
  return plane;
}

}  // namespace widen::serve::net

#include "selfcheck.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <thread>
#include <vector>

#include "loadgen.h"
#include "util/logging.h"

namespace perfbench {
namespace {

constexpr double kStallMs = 50.0;
constexpr double kStallAfterS = 0.25;  // after the first request arrives
constexpr double kRate = 2000.0;
constexpr double kSeconds = 0.6;

// Single-threaded poll() server speaking the wire protocol: answers every
// Embed with a 1x1 row and every Health inline, and sleeps kStallMs once.
class StubServer {
 public:
  StubServer() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    WIDEN_CHECK_GE(listen_fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    WIDEN_CHECK_EQ(
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
        0);
    WIDEN_CHECK_EQ(::listen(listen_fd_, 16), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Loop(); });
  }
  ~StubServer() {
    stop_.store(true);
    thread_.join();
    for (Peer& p : peers_) ::close(p.fd);
    ::close(listen_fd_);
  }
  StubServer(const StubServer&) = delete;
  StubServer& operator=(const StubServer&) = delete;

  int port() const { return port_; }

 private:
  struct Peer {
    int fd;
    std::string in;
  };

  void Loop() {
    while (!stop_.load()) {
      std::vector<pollfd> polls;
      polls.push_back({listen_fd_, POLLIN, 0});
      for (const Peer& p : peers_) polls.push_back({p.fd, POLLIN, 0});
      if (::poll(polls.data(), polls.size(), 10) <= 0) continue;
      if (polls[0].revents & POLLIN) {
        const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (fd >= 0) {
          const int one = 1;
          ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
          peers_.push_back({fd, {}});
        }
      }
      for (size_t i = 1; i < polls.size(); ++i) {
        if (polls[i].revents & (POLLIN | POLLHUP | POLLERR)) Serve(peers_[i - 1]);
      }
    }
  }

  void Serve(Peer& peer) {
    char buf[65536];
    const ssize_t n = ::read(peer.fd, buf, sizeof(buf));
    if (n <= 0) return;
    peer.in.append(buf, static_cast<size_t>(n));
    std::string out;
    size_t consumed = 0;
    size_t frame_bytes = 0;
    while (net::PeekFrame(peer.in.data() + consumed, peer.in.size() - consumed,
                          &frame_bytes)
               .ok()) {
      net::NetRequest request;
      const bool decoded =
          net::DecodeRequestPayload(
              peer.in.data() + consumed + net::kFrameHeaderBytes,
              frame_bytes - net::kFrameHeaderBytes, &request)
              .ok();
      consumed += frame_bytes;
      if (!decoded) continue;
      const Clock::time_point now = Clock::now();
      if (!seen_first_) {
        seen_first_ = true;
        stall_at_ = now + SecondsToDuration(kStallAfterS);
      }
      if (!stalled_ && now >= stall_at_) {
        stalled_ = true;
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(kStallMs));
      }
      net::NetResponse response;
      response.id = request.id;
      response.op = request.op;
      if (request.op == net::NetOp::kEmbed) {
        response.rows = 1;
        response.cols = 1;
        response.floats = {0.0f};
      }
      out += net::EncodeResponse(response);
    }
    peer.in.erase(0, consumed);
    size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t w =
          ::send(peer.fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (w <= 0) break;
      sent += static_cast<size_t>(w);
    }
  }

  int listen_fd_ = -1;
  int port_ = 0;
  std::vector<Peer> peers_;  // stub thread only
  bool seen_first_ = false;
  bool stalled_ = false;
  Clock::time_point stall_at_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after the members above exist
};

class StubTraffic final : public Traffic {
 public:
  void Make(int64_t seq, net::NetRequest* request) override {
    request->op = net::NetOp::kEmbed;
    request->nodes = {0};
  }
};

// {p99 latency, p99 lag} of one generator against a fresh stub.
std::pair<double, double> Drive(bool wait_for_reply) {
  StubServer stub;
  StubTraffic traffic;
  LoadOptions options;
  options.window = wait_for_reply ? 1 : 0;
  auto phase = RunOpenLoop("127.0.0.1", stub.port(), kRate, kSeconds, 1,
                           traffic, options);
  WIDEN_CHECK(phase.ok()) << phase.status().ToString();
  std::vector<double> latency;
  std::vector<double> lag;
  for (const Outcome& o : phase->outcomes) {
    latency.push_back(o.ok() ? o.LatencyMs() : 1e9);
    lag.push_back(o.LagMs());
  }
  return {Percentile(latency, 0.99), Percentile(lag, 0.99)};
}

// The stall must reach the p99, and the sends must have kept to the
// schedule through it.
bool Passes(double p99_ms, double lag_p99_ms) {
  return p99_ms >= 0.5 * kStallMs && lag_p99_ms < 0.5 * kStallMs;
}

}  // namespace

SelfCheckResult RunGeneratorSelfCheck() {
  SelfCheckResult result;
  result.stall_ms = kStallMs;
  // A host hiccup can delay the open-loop generator's sends too; the check
  // gets three attempts to see both generators behave as expected.
  for (int attempt = 0; attempt < 3; ++attempt) {
    std::tie(result.open_p99_ms, result.open_lag_p99_ms) = Drive(false);
    std::tie(result.wait_p99_ms, result.wait_lag_p99_ms) = Drive(true);
    result.open_passes = Passes(result.open_p99_ms, result.open_lag_p99_ms);
    result.wait_passes = Passes(result.wait_p99_ms, result.wait_lag_p99_ms);
    if (result.open_passes && !result.wait_passes) break;
  }
  return result;
}

}  // namespace perfbench

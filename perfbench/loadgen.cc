#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>

#include "util/string_util.h"

namespace perfbench {
namespace {

using widen::Status;
using widen::StatusOr;

constexpr int kConnections = 4;
// How long to wait for outstanding replies after the last send.
constexpr double kDrainTimeoutS = 10.0;
constexpr uint64_t kTimerTag = ~0ull;
// Health probes carry ids from this base so they never collide with the
// scheduled requests of any phase.
constexpr uint64_t kHealthIdBase = 1ull << 62;

struct Conn {
  int fd = -1;
  std::string out;
  size_t out_offset = 0;
  std::string in;
  size_t in_offset = 0;
  bool want_write = false;
  bool dead = false;
};

// Owns the fds of one phase; closes them on every exit path.
struct Fds {
  std::vector<Conn> conns;
  int epoll_fd = -1;
  int timer_fd = -1;

  Fds() = default;
  Fds(const Fds&) = delete;
  Fds& operator=(const Fds&) = delete;
  ~Fds() {
    for (Conn& c : conns) {
      if (c.fd >= 0) ::close(c.fd);
    }
    if (epoll_fd >= 0) ::close(epoll_fd);
    if (timer_fd >= 0) ::close(timer_fd);
  }
};

StatusOr<int> Connect(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IOError(std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = Status::IOError(
        widen::StrCat("connect ", host, ":", port, ": ", std::strerror(errno)));
    ::close(fd);
    return status;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

void ArmTimer(int timer_fd, Clock::time_point when) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      when.time_since_epoch())
                      .count();
  itimerspec spec{};
  spec.it_value.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
  spec.it_value.tv_nsec = static_cast<long>(ns % 1'000'000'000);
  if (spec.it_value.tv_sec == 0 && spec.it_value.tv_nsec == 0) {
    spec.it_value.tv_nsec = 1;  // all-zero would disarm
  }
  ::timerfd_settime(timer_fd, TFD_TIMER_ABSTIME, &spec, nullptr);
}

void UpdateInterest(int epoll_fd, Conn& conn, size_t index) {
  const bool want = conn.out.size() > conn.out_offset;
  if (want == conn.want_write) return;
  conn.want_write = want;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  ev.data.u64 = index;
  ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
}

void Flush(int epoll_fd, Conn& conn, size_t index) {
  while (!conn.dead && conn.out_offset < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_offset,
               conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    conn.dead = true;
  }
  if (conn.out_offset == conn.out.size()) {
    conn.out.clear();
    conn.out_offset = 0;
  }
  if (!conn.dead) UpdateInterest(epoll_fd, conn, index);
}

}  // namespace

StatusOr<PhaseResult> RunOpenLoop(const std::string& host, int port,
                                  double rate, double seconds,
                                  uint64_t first_id, Traffic& traffic,
                                  const LoadOptions& options) {
  PhaseResult result;
  result.rate = rate;
  result.seconds = seconds;
  result.first_id = first_id;
  const int64_t total =
      std::max<int64_t>(1, std::llround(rate * seconds));

  Fds fds;
  const int num_conns = options.window == 1 ? 1 : kConnections;
  for (int i = 0; i < num_conns; ++i) {
    WIDEN_ASSIGN_OR_RETURN(int fd, Connect(host, port));
    Conn conn;
    conn.fd = fd;
    fds.conns.push_back(std::move(conn));
  }
  fds.epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  fds.timer_fd = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (fds.epoll_fd < 0 || fds.timer_fd < 0) {
    return Status::IOError(std::strerror(errno));
  }
  for (size_t i = 0; i < fds.conns.size(); ++i) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    ::epoll_ctl(fds.epoll_fd, EPOLL_CTL_ADD, fds.conns[i].fd, &ev);
  }
  {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kTimerTag;
    ::epoll_ctl(fds.epoll_fd, EPOLL_CTL_ADD, fds.timer_fd, &ev);
  }

  const Clock::duration interval = SecondsToDuration(1.0 / rate);
  const Clock::duration health_interval =
      options.health_probe_hz > 0.0
          ? SecondsToDuration(1.0 / options.health_probe_hz)
          : Clock::duration::zero();
  result.start = Clock::now() + std::chrono::milliseconds(2);
  const Clock::time_point send_end = result.start + SecondsToDuration(seconds);
  auto due_of = [&](int64_t seq) { return result.start + seq * interval; };

  int64_t next = 0;
  int64_t outstanding = 0;
  // An open loop sends its whole schedule; a windowed one stops at the end
  // of the phase.
  auto sending_over = [&](Clock::time_point now) {
    return next == total || (options.window > 0 && now >= send_end);
  };
  auto window_full = [&] {
    return options.window > 0 && outstanding >= options.window;
  };
  int64_t next_health = 0;
  std::vector<Clock::time_point> health_sent;
  int64_t health_outstanding = 0;
  Clock::time_point armed = Clock::time_point::max();
  Clock::time_point last_tick = Clock::now();
  std::vector<char> touched(fds.conns.size(), 0);

  auto enqueue = [&](size_t conn_index, const net::NetRequest& request) {
    fds.conns[conn_index].out += net::EncodeRequest(request);
    touched[conn_index] = 1;
  };

  auto handle_frame = [&](const char* payload, size_t size,
                          Clock::time_point now) {
    net::NetResponse response;
    if (!net::DecodeResponsePayload(payload, size, &response).ok()) return;
    if (response.id >= kHealthIdBase) {
      const uint64_t k = response.id - kHealthIdBase;
      if (k < health_sent.size()) {
        result.health_rtt_us.push_back(
            std::chrono::duration<double, std::micro>(now - health_sent[k])
                .count());
        --health_outstanding;
      }
      return;
    }
    if (response.id < first_id) return;
    const uint64_t seq = response.id - first_id;
    if (seq >= static_cast<uint64_t>(next)) return;
    Outcome& outcome = result.outcomes[seq];
    if (outcome.answered) return;
    outcome.answered = true;
    outcome.done = now;
    outcome.code = response.code;
    --outstanding;
    traffic.OnResponse(static_cast<int64_t>(seq), result.requests[seq],
                       response);
  };

  epoll_event events[16];
  while (true) {
    Clock::time_point now = Clock::now();
    // ---- Send everything that is due (never waiting on a reply, unless
    // a window is full). ----
    while (!sending_over(now) && !window_full() && due_of(next) <= now) {
      net::NetRequest& request = result.requests.emplace_back();
      result.outcomes.emplace_back();
      traffic.Make(next, &request);
      request.id = first_id + static_cast<uint64_t>(next);
      if (options.trace_ids) {
        request.has_trace = true;
        request.trace_id = request.id;
        request.trace_flags = net::kTraceFlagSampled;
      }
      const int hint = traffic.Connection(request);
      const size_t conn_index =
          hint >= 0 ? static_cast<size_t>(hint) % fds.conns.size()
                    : static_cast<size_t>(next) % fds.conns.size();
      Outcome& outcome = result.outcomes[static_cast<size_t>(next)];
      outcome.due = due_of(next);
      outcome.sent = now;
      enqueue(conn_index, request);
      ++next;
      ++outstanding;
      result.inflight_max = std::max(result.inflight_max, outstanding);
    }
    while (health_interval > Clock::duration::zero() &&
           result.start + next_health * health_interval <= now &&
           result.start + next_health * health_interval < send_end) {
      net::NetRequest probe;
      probe.id = kHealthIdBase + static_cast<uint64_t>(next_health);
      probe.op = net::NetOp::kHealth;
      health_sent.push_back(now);
      enqueue(0, probe);
      ++next_health;
      ++health_outstanding;
    }
    for (size_t i = 0; i < fds.conns.size(); ++i) {
      if (touched[i]) {
        Flush(fds.epoll_fd, fds.conns[i], i);
        touched[i] = 0;
      }
    }

    now = Clock::now();
    const bool over = sending_over(now);
    if (over && outstanding == 0 && health_outstanding == 0) break;
    if (over && now > send_end + SecondsToDuration(kDrainTimeoutS)) break;
    bool all_dead = true;
    for (const Conn& c : fds.conns) all_dead = all_dead && c.dead;
    if (all_dead) break;
    if (options.on_tick && now - last_tick >= std::chrono::milliseconds(50)) {
      options.on_tick();
      last_tick = now;
    }

    // ---- Sleep until the next departure or a reply. ----
    Clock::time_point wake = Clock::time_point::max();
    if (!over && !window_full()) wake = due_of(next);
    if (health_interval > Clock::duration::zero()) {
      const Clock::time_point h = result.start + next_health * health_interval;
      if (h < send_end) wake = std::min(wake, h);
    }
    if (wake != Clock::time_point::max() && wake != armed) {
      ArmTimer(fds.timer_fd, wake);
      armed = wake;
    }
    const int timeout_ms =
        options.on_tick ? 50 : (over || options.window > 0 ? 100 : -1);
    const int n = ::epoll_wait(fds.epoll_fd, events, 16, timeout_ms);
    if (n < 0 && errno != EINTR) break;
    for (int e = 0; e < std::max(n, 0); ++e) {
      const uint64_t tag = events[e].data.u64;
      if (tag == kTimerTag) {
        uint64_t expirations = 0;
        [[maybe_unused]] ssize_t r =
            ::read(fds.timer_fd, &expirations, sizeof(expirations));
        armed = Clock::time_point::max();
        continue;
      }
      Conn& conn = fds.conns[tag];
      if (conn.dead) continue;
      if (events[e].events & EPOLLOUT) Flush(fds.epoll_fd, conn, tag);
      if (events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        char buf[65536];
        while (true) {
          const ssize_t got = ::read(conn.fd, buf, sizeof(buf));
          if (got > 0) {
            conn.in.append(buf, static_cast<size_t>(got));
            continue;
          }
          if (got < 0 && errno == EINTR) continue;
          if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          conn.dead = true;  // EOF or hard error
          ::epoll_ctl(fds.epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
          break;
        }
        const Clock::time_point received = Clock::now();
        while (true) {
          size_t frame_bytes = 0;
          const char* base = conn.in.data() + conn.in_offset;
          const size_t avail = conn.in.size() - conn.in_offset;
          if (!net::PeekFrame(base, avail, &frame_bytes).ok()) break;
          handle_frame(base + net::kFrameHeaderBytes,
                       frame_bytes - net::kFrameHeaderBytes, received);
          conn.in_offset += frame_bytes;
        }
        if (conn.in_offset == conn.in.size()) {
          conn.in.clear();
          conn.in_offset = 0;
        } else if (conn.in_offset > (1u << 16)) {
          conn.in.erase(0, conn.in_offset);
          conn.in_offset = 0;
        }
      }
    }
  }
  for (const Conn& c : fds.conns) result.transport_errors += c.dead ? 1 : 0;
  return result;
}

}  // namespace perfbench

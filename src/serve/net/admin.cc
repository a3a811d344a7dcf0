#include "serve/net/admin.h"

#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "serve/net/sockets.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace widen::serve::net {

namespace {

/// Anything past this is not an admin request; cut the connection.
constexpr size_t kMaxAdminRequestBytes = 8192;

const char* StatusLine(int status) {
  switch (status) {
    case 200:
      return "200 OK";
    case 400:
      return "400 Bad Request";
    case 404:
      return "404 Not Found";
    case 405:
      return "405 Method Not Allowed";
    case 503:
      return "503 Service Unavailable";
    default:
      return "500 Internal Server Error";
  }
}

void SetSocketTimeouts(int fd, int64_t millis) {
  timeval tv{};
  tv.tv_sec = millis / 1000;
  tv.tv_usec = static_cast<suseconds_t>((millis % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// Sends all of `data`, tolerating partial writes; false on error/timeout.
bool SendAll(int fd, const char* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // timeout, reset, or a peer that stopped reading
  }
  return true;
}

}  // namespace

StatusOr<std::unique_ptr<AdminServer>> AdminServer::Start(
    const AdminOptions& options) {
  WIDEN_ASSIGN_OR_RETURN(ListeningSocket listener,
                         ListenTcp(options.host, options.port,
                                   /*backlog=*/16, /*type_flags=*/0));
  return std::unique_ptr<AdminServer>(
      new AdminServer(options, listener.fd, listener.port));
}

AdminServer::AdminServer(AdminOptions options, int listen_fd, int port)
    : options_(std::move(options)), port_(port), listen_fd_(listen_fd) {
  thread_ = std::thread(&AdminServer::ServeLoop, this);
  WIDEN_LOG(Info) << "admin plane on " << options_.host << ":" << port_;
}

AdminServer::~AdminServer() { Shutdown(); }

void AdminServer::Shutdown() {
  stop_.store(true);
  std::call_once(join_once_, [this] {
    thread_.join();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
  });
}

void AdminServer::ServeLoop() {
  // poll() with a short tick instead of a blocking accept so Shutdown()
  // never waits on a connection that may never come.
  pollfd pfd{};
  pfd.fd = listen_fd_;
  pfd.events = POLLIN;
  while (!stop_.load()) {
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      WIDEN_LOG(Warning) << "admin poll: " << std::strerror(errno);
      break;
    }
    if (ready == 0 || !(pfd.revents & POLLIN)) continue;
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      WIDEN_LOG(Warning) << "admin accept: " << std::strerror(errno);
      continue;
    }
    ServeOne(fd);
    ::close(fd);
  }
}

void AdminServer::ServeOne(int fd) {
  SetSocketTimeouts(fd, kSocketTimeoutMillis);
  const int enable = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));

  // Read until the request line is complete, the cap, or a timeout — the
  // request line is all we route on; GETs carry no body, and trailing
  // headers can be left unread on a Connection: close response.
  std::string request;
  char buf[2048];
  bool oversized = false;
  while (request.find('\n') == std::string::npos) {
    if (request.size() > kMaxAdminRequestBytes) {
      oversized = true;
      break;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // EOF, timeout, or error — route what we have
    request.append(buf, static_cast<size_t>(n));
  }

  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  if (oversized) {
    status = 400;
    body = "request too large\n";
  } else {
    // Parse "METHOD PATH ..." off the first line.
    const size_t line_end = request.find_first_of("\r\n");
    const std::string line =
        line_end == std::string::npos ? request : request.substr(0, line_end);
    const size_t sp1 = line.find(' ');
    const size_t sp2 = sp1 == std::string::npos
                           ? std::string::npos
                           : line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos) {
      status = 400;
      body = "malformed request line\n";
    } else {
      const std::string method = line.substr(0, sp1);
      std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
      const size_t query = path.find('?');
      if (query != std::string::npos) path.resize(query);
      Handle(method, path, &status, &content_type, &body);
    }
  }

  std::ostringstream response;
  response << "HTTP/1.0 " << StatusLine(status)
           << "\r\nContent-Type: " << content_type
           << "\r\nContent-Length: " << body.size()
           << "\r\nConnection: close\r\n\r\n"
           << body;
  const std::string bytes = response.str();
  SendAll(fd, bytes.data(), bytes.size());
}

void AdminServer::Handle(const std::string& method, const std::string& path,
                         int* status, std::string* content_type,
                         std::string* body) {
  if (method != "GET") {
    *status = 405;
    *body = "only GET is supported\n";
    return;
  }
  if (path == "/healthz") {
    std::string reason;
    if (options_.health_fn && !options_.health_fn(&reason)) {
      *status = 503;
      *body = reason.empty() ? "unhealthy\n" : reason + "\n";
      return;
    }
    if (options_.slo != nullptr && options_.slo->Degraded()) {
      *status = 503;
      *content_type = "application/json";
      *body = StrCat("{\"status\": \"degraded\", \"slo\": ",
                     options_.slo->DumpJson(), "}\n");
      return;
    }
    *body = "ok\n";
    return;
  }
  if (path == "/metrics") {
    // Scrape cadence drives the SLO windows: sample before dumping so the
    // scraped gauges are current as of THIS scrape.
    if (options_.slo != nullptr) options_.slo->Tick();
    *content_type = "text/plain; version=0.0.4; charset=utf-8";
    *body = obs::MetricsRegistry::Get().DumpPrometheus();
    return;
  }
  if (path == "/varz") {
    *content_type = "application/json";
    *body = obs::MetricsRegistry::Get().DumpJson();
    return;
  }
  if (path == "/tracez") {
    // Checkpoint the Chrome trace (when installed) so /tracez doubles as a
    // live flush trigger, then dump the flight recorder.
    const Status flushed = obs::TraceRecorder::Get().Flush();
    if (!flushed.ok()) {
      WIDEN_LOG(Warning) << "trace flush failed: " << flushed.message();
    }
    *content_type = "application/json";
    *body = obs::FlightRecorder::Get().DumpJson(kTracezRecords,
                                                kTracezRecords);
    return;
  }
  if (path == "/profilez") {
    *content_type = "application/json";
    *body = obs::Profiler::Get().DumpJson();
    return;
  }
  *status = 404;
  *body = StrCat("no handler for ", path,
                 " (try /healthz /metrics /varz /tracez /profilez)\n");
}

StatusOr<std::string> AdminHttpGet(const std::string& host, int port,
                                   const std::string& path,
                                   int* status_code) {
  WIDEN_ASSIGN_OR_RETURN(sockaddr_in addr, Ipv4Address(host, port));
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  SetSocketTimeouts(fd, 5000);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = Errno("connect");
    ::close(fd);
    return status;
  }
  const std::string request =
      StrCat("GET ", path, " HTTP/1.0\r\nHost: ", host, "\r\n\r\n");
  if (!SendAll(fd, request.data(), request.size())) {
    const Status status = Errno("send");
    ::close(fd);
    return status;
  }
  std::string response;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      response.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // EOF (Connection: close) or timeout
  }
  ::close(fd);
  const size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    return Status::IOError("admin response missing header terminator");
  }
  if (status_code != nullptr) {
    *status_code = 0;
    const size_t sp = response.find(' ');
    if (sp != std::string::npos && sp + 4 <= response.size()) {
      *status_code = std::atoi(response.c_str() + sp + 1);
    }
  }
  return response.substr(header_end + 4);
}

}  // namespace widen::serve::net

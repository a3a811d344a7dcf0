#include "serve/net/sockets.h"

#include <arpa/inet.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/string_util.h"

namespace widen::serve::net {

Status Errno(const char* what) {
  return Status::IOError(StrCat(what, ": ", std::strerror(errno)));
}

StatusOr<sockaddr_in> Ipv4Address(const std::string& host, int port) {
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument(
        StrCat("port ", port, " is outside [0, 65535]"));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument(
        StrCat("cannot parse IPv4 address '", host, "'"));
  }
  return addr;
}

StatusOr<ListeningSocket> ListenTcp(const std::string& host, int port,
                                    int backlog, int type_flags) {
  WIDEN_ASSIGN_OR_RETURN(sockaddr_in addr, Ipv4Address(host, port));
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | type_flags, 0);
  if (fd < 0) return Errno("socket");
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  socklen_t addr_len = sizeof(addr);
  const char* failed = nullptr;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    failed = "bind";
  } else if (::listen(fd, backlog) != 0) {
    failed = "listen";
  } else if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr),
                           &addr_len) != 0) {
    failed = "getsockname";
  }
  if (failed != nullptr) {
    const Status status = Errno(failed);
    ::close(fd);
    return status;
  }
  return ListeningSocket{fd, ntohs(addr.sin_port)};
}

}  // namespace widen::serve::net

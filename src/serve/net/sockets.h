// IPv4 TCP plumbing shared by the data plane (server.h, client.h) and the
// admin plane (admin.h): typed errno errors, address parsing with a checked
// port, and a bound listening socket.

#ifndef WIDEN_SERVE_NET_SOCKETS_H_
#define WIDEN_SERVE_NET_SOCKETS_H_

#include <netinet/in.h>

#include <string>

#include "util/status.h"

namespace widen::serve::net {

/// errno as an IOError: "<what>: <strerror(errno)>".
Status Errno(const char* what);

/// `host` (dotted IPv4) and `port` as a socket address. A port outside
/// [0, 65535] is kInvalidArgument, never truncated to 16 bits.
StatusOr<sockaddr_in> Ipv4Address(const std::string& host, int port);

struct ListeningSocket {
  int fd = -1;
  int port = 0;  // the bound port: the kernel's pick when asked for 0
};

/// Binds host:port with SO_REUSEADDR and listens. `type_flags` are OR-ed
/// into socket()'s type (SOCK_CLOEXEC always is).
StatusOr<ListeningSocket> ListenTcp(const std::string& host, int port,
                                    int backlog, int type_flags);

}  // namespace widen::serve::net

#endif  // WIDEN_SERVE_NET_SOCKETS_H_

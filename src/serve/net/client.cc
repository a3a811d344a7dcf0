#include "serve/net/client.h"

#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "serve/net/sockets.h"
#include "util/string_util.h"

namespace widen::serve::net {

StatusOr<std::unique_ptr<NetClient>> NetClient::Connect(const std::string& host,
                                                        int port) {
  WIDEN_ASSIGN_OR_RETURN(sockaddr_in addr, Ipv4Address(host, port));
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = Errno("connect");
    ::close(fd);
    return status;
  }
  const int enable = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  return std::unique_ptr<NetClient>(new NetClient(fd));
}

NetClient::~NetClient() { Close(); }

void NetClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Status NetClient::Send(const NetRequest& request) {
  if (fd_ < 0) return Status::IOError("client is closed");
  const std::string frame = EncodeRequest(request);
  size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n =
        ::send(fd_, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status NetClient::Receive(NetResponse* out) {
  if (fd_ < 0) return Status::IOError("client is closed");
  char buf[65536];
  while (true) {
    const char* base = in_.data() + in_consumed_;
    const size_t avail = in_.size() - in_consumed_;
    size_t frame_bytes = 0;
    const Status peek = PeekFrame(base, avail, &frame_bytes);
    if (peek.ok()) {
      *out = NetResponse();
      const Status decoded = DecodeResponsePayload(
          base + kFrameHeaderBytes, frame_bytes - kFrameHeaderBytes, out);
      in_consumed_ += frame_bytes;
      if (in_consumed_ == in_.size()) {
        in_.clear();
        in_consumed_ = 0;
      }
      if (decoded.ok() && out->draining) last_draining_ = true;
      return decoded;
    }
    if (peek.code() != StatusCode::kOutOfRange) return peek;  // malformed
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      in_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return Status::IOError("connection closed by server");
    if (errno == EINTR) continue;
    return Errno("recv");
  }
}

StatusOr<NetResponse> NetClient::Call(const NetRequest& request) {
  WIDEN_RETURN_IF_ERROR(Send(request));
  NetResponse response;
  WIDEN_RETURN_IF_ERROR(Receive(&response));
  if (response.id != request.id) {
    return Status::Internal(
        StrCat("response id ", response.id, " does not match request id ",
               request.id, " (pipelined use requires Send/Receive)"));
  }
  return response;
}

}  // namespace widen::serve::net

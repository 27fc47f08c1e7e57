#include "net/socket_io.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "net/fault.h"
#include "util/stopwatch.h"

namespace causaltad {
namespace net {
namespace {

/// send(2) with EINTR retried; everything else surfaces to the caller.
ssize_t RawSend(int fd, const uint8_t* data, size_t size) {
  while (true) {
    const ssize_t n = send(fd, data, size, MSG_NOSIGNAL);
    if (n >= 0 || errno != EINTR) return n;
  }
}

/// Best-effort full transmission (for duplicate/truncate payloads): stops
/// at would-block or error — a partially-delivered fault is still a fault.
void SendBestEffort(int fd, const uint8_t* data, size_t size) {
  size_t off = 0;
  while (off < size) {
    const ssize_t n = RawSend(fd, data + off, size - off);
    if (n <= 0) return;
    off += static_cast<size_t>(n);
  }
}

void KillSocket(int fd) { shutdown(fd, SHUT_RDWR); }

}  // namespace

void SetNoDelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

int DialTcp(const std::string& host, int port, std::string* error) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    if (error) *error = "socket failed: " + std::string(std::strerror(errno));
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    if (error) *error = "bad host " + host;
    return -1;
  }
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (error) {
      *error = "connect to " + host + ":" + std::to_string(port) +
               " failed: " + std::strerror(errno);
    }
    close(fd);
    return -1;
  }
  SetNoDelay(fd);
  return fd;
}

util::StatusOr<int> ListenTcp(const std::string& host, int port,
                              int* bound_port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return util::Status::InvalidArgument("bad listen_host " + host);
  }
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return util::Status::IoError("socket failed: " +
                                 std::string(std::strerror(errno)));
  }
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(fd, 64) != 0) {
    const std::string err = std::strerror(errno);
    close(fd);
    return util::Status::IoError("bind/listen failed: " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
  *bound_port = ntohs(bound.sin_port);
  return fd;
}

IoResult SendSome(int fd, const uint8_t* data, size_t size,
                  FaultConnection* fault) {
  IoResult result;
  size_t keep = size;
  FaultConnection::Action action = FaultConnection::Action::kPass;
  if (fault != nullptr) action = fault->OnSend(size, &keep);
  switch (action) {
    case FaultConnection::Action::kKill:
      KillSocket(fd);
      result.error = ECONNRESET;
      return result;
    case FaultConnection::Action::kDrop:
      // Swallowed in flight: the caller believes the bytes left, the peer
      // never sees them, and the connection dies under both of them.
      KillSocket(fd);
      result.n = static_cast<ssize_t>(size);
      return result;
    case FaultConnection::Action::kDuplicate:
      // The peer's length-prefixed decoder desyncs on the second copy and
      // poisons — both sides treat that as a transport failure.
      SendBestEffort(fd, data, size);
      SendBestEffort(fd, data, size);
      result.n = static_cast<ssize_t>(size);
      return result;
    case FaultConnection::Action::kTruncate:
      // A mid-frame cut: the prefix arrives, then EOF.
      SendBestEffort(fd, data, keep);
      KillSocket(fd);
      result.n = static_cast<ssize_t>(size);
      return result;
    case FaultConnection::Action::kShortWrite:
    case FaultConnection::Action::kPass:
      break;
  }
  const ssize_t n = RawSend(fd, data, keep);
  if (n >= 0) {
    result.n = n;
    return result;
  }
  if (errno == EAGAIN || errno == EWOULDBLOCK) {
    result.would_block = true;
    return result;
  }
  result.error = errno;
  return result;
}

IoResult RecvSome(int fd, uint8_t* buf, size_t size, FaultConnection* fault) {
  IoResult result;
  size_t keep = size;
  FaultConnection::Action action = FaultConnection::Action::kPass;
  if (fault != nullptr) action = fault->OnRecv(size, &keep);
  if (action == FaultConnection::Action::kKill) {
    KillSocket(fd);
    result.error = ECONNRESET;
    return result;
  }
  while (true) {
    const ssize_t n = recv(fd, buf, keep, 0);
    if (n > 0) {
      result.n = n;
      return result;
    }
    if (n == 0) {
      result.peer_closed = true;
      return result;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      result.would_block = true;
      return result;
    }
    result.error = errno;
    return result;
  }
}

util::Status SendAll(int fd, const uint8_t* data, size_t size,
                     double timeout_ms, FaultConnection* fault) {
  util::Stopwatch watch;
  size_t off = 0;
  while (off < size) {
    const IoResult r = SendSome(fd, data + off, size - off, fault);
    if (!r.ok()) {
      return util::Status::IoError("send failed: " +
                                   std::string(std::strerror(r.error)));
    }
    if (r.n > 0) {
      off += static_cast<size_t>(r.n);
      continue;
    }
    // Would-block (or a zero-byte fault verdict): wait for writability
    // instead of failing — the peer may simply be slow to drain.
    const double remaining_ms = timeout_ms - watch.ElapsedMillis();
    if (remaining_ms <= 0.0) {
      return util::Status::IoError("send timed out");
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = poll(
        &pfd, 1,
        std::max(1, static_cast<int>(std::min(remaining_ms, 100.0))));
    if (ready < 0 && errno != EINTR) {
      return util::Status::IoError("poll failed: " +
                                   std::string(std::strerror(errno)));
    }
  }
  return util::Status::Ok();
}

}  // namespace net
}  // namespace causaltad

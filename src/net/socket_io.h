#ifndef CAUSALTAD_NET_SOCKET_IO_H_
#define CAUSALTAD_NET_SOCKET_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <sys/types.h>

#include "util/status.h"

namespace causaltad {
namespace net {

class FaultConnection;

/// Best-effort TCP_NODELAY; fails harmlessly on AF_UNIX loopback pairs.
void SetNoDelay(int fd);

/// Blocking TCP connect to host:port (dotted IPv4) with TCP_NODELAY set.
/// Returns the fd, or -1 with the reason in *error (nullable).
int DialTcp(const std::string& host, int port, std::string* error);

/// Non-blocking TCP listener on host:port (0 = ephemeral). Returns the fd
/// and stores the bound port in *bound_port; on failure nothing it opened
/// stays open.
util::StatusOr<int> ListenTcp(const std::string& host, int port,
                              int* bound_port);

/// Outcome of one socket transfer attempt. Exactly one of these shapes:
///  * ok() && n >= 0            — n bytes moved (n == 0 on recv means EOF
///                                 only when peer_closed is set)
///  * ok() && would_block       — nothing moved, retry when ready
///  * peer_closed               — recv saw a clean EOF
///  * !ok()                     — hard error; error holds errno
struct IoResult {
  ssize_t n = 0;
  bool would_block = false;
  bool peer_closed = false;
  int error = 0;
  bool ok() const { return error == 0; }
};

/// One best-effort send(2): retries EINTR internally, reports
/// EAGAIN/EWOULDBLOCK via would_block instead of an error, never raises
/// SIGPIPE (MSG_NOSIGNAL). `fault` (nullable) may shorten, swallow,
/// duplicate, or kill the transfer — see net::FaultInjector.
///
/// This is THE send used by both net::Server and net::Client; partial
/// writes are normal (n < size) and the caller resumes from n.
IoResult SendSome(int fd, const uint8_t* data, size_t size,
                  FaultConnection* fault);

/// One best-effort recv(2): retries EINTR, reports would-block, flags EOF
/// via peer_closed. `fault` (nullable) may cap or kill the read.
IoResult RecvSome(int fd, uint8_t* buf, size_t size, FaultConnection* fault);

/// Sends the entire buffer, polling POLLOUT across EAGAIN and resuming
/// partial writes, for at most timeout_ms. This is the blocking-sender
/// wrapper (net::Client) — safe on non-blocking fds and tiny socket
/// buffers, unlike a bare send loop.
util::Status SendAll(int fd, const uint8_t* data, size_t size,
                     double timeout_ms, FaultConnection* fault);

}  // namespace net
}  // namespace causaltad

#endif  // CAUSALTAD_NET_SOCKET_IO_H_

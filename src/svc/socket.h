// Thin POSIX socket helpers shared by the daemon and the client driver.
// All helpers throw coca::Error with errno context on failure; the Fd
// wrapper makes descriptor ownership explicit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include <sys/uio.h>

#include "util/common.h"

namespace coca::svc {

/// RAII file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& o) noexcept : fd_(std::exchange(o.fd_, -1)) {}
  Fd& operator=(Fd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = std::exchange(o.fd_, -1);
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() { return std::exchange(fd_, -1); }
  void reset();

 private:
  int fd_ = -1;
};

/// Binds + listens a Unix-domain stream socket at `path` (any stale socket
/// file is unlinked first).
Fd listen_uds(const std::string& path);

/// Binds + listens a TCP socket on 127.0.0.1:`port` (0 = ephemeral).
Fd listen_tcp_loopback(std::uint16_t port);

/// The locally bound TCP port of `fd` (resolves an ephemeral bind).
std::uint16_t local_port(int fd);

/// Blocking connect helpers for the client side.
Fd connect_uds(const std::string& path);
Fd connect_tcp_loopback(std::uint16_t port);

/// O_NONBLOCK on (daemon side: every fd in the epoll set is non-blocking).
void set_nonblocking(int fd);

/// Disables Nagle on TCP sockets (no-op on UDS): the round barrier is a
/// request/response ping-pong, exactly the pattern delayed ACKs + Nagle
/// serialize into 40 ms stalls.
void set_nodelay(int fd);

/// Requests SO_RCVBUF and SO_SNDBUF of 256 KiB each (best effort); the
/// daemon and the client call it on every connection. The corked round
/// flush emits a whole round of frames in one gather batch, so buffers
/// must hold a full round for the flush to stay a single syscall without
/// EAGAIN round-trips through epoll.
void set_socket_buffers(int fd);

/// Clips the gather list `iov[0, iovcnt)` in place to its first `budget`
/// bytes and returns the entries left: the torn write of both fault sites
/// (daemon kTruncateFrame, client kClientPartialWrite).
int clip_iovecs(::iovec* iov, int iovcnt, std::size_t budget);

}  // namespace coca::svc

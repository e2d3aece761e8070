#include "svc/socket.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace coca::svc {

namespace {

constexpr int kSocketBufferBytes = 256 * 1024;

[[noreturn]] void fail(const std::string& what) {
  throw Error(what + ": " + std::strerror(errno));
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Fd listen_uds(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  require(path.size() < sizeof(addr.sun_path),
          "listen_uds: socket path too long");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  Fd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) fail("listen_uds: socket");
  ::unlink(path.c_str());  // stale socket file from a previous run
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    fail("listen_uds: bind " + path);
  }
  if (::listen(fd.get(), SOMAXCONN) != 0) fail("listen_uds: listen");
  return fd;
}

Fd listen_tcp_loopback(std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) fail("listen_tcp_loopback: socket");
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    fail("listen_tcp_loopback: bind");
  }
  if (::listen(fd.get(), SOMAXCONN) != 0) fail("listen_tcp_loopback: listen");
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    fail("local_port: getsockname");
  }
  return ntohs(addr.sin_port);
}

Fd connect_uds(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  require(path.size() < sizeof(addr.sun_path),
          "connect_uds: socket path too long");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  Fd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) fail("connect_uds: socket");
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    fail("connect_uds: connect " + path);
  }
  return fd;
}

Fd connect_tcp_loopback(std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) fail("connect_tcp_loopback: socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    fail("connect_tcp_loopback: connect");
  }
  set_nodelay(fd.get());
  return fd;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    fail("set_nonblocking: fcntl");
  }
}

void set_nodelay(int fd) {
  const int one = 1;
  // Fails harmlessly with ENOTSUP/EOPNOTSUPP on UDS; ignore.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void set_socket_buffers(int fd) {
  const int bytes = kSocketBufferBytes;
  // Best effort: the kernel clamps to wmem_max/rmem_max; a short buffer
  // only costs extra epoll round-trips, never correctness.
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
}

int clip_iovecs(::iovec* iov, int iovcnt, std::size_t budget) {
  int kept = 0;
  for (; kept < iovcnt && budget > 0; ++kept) {
    iov[kept].iov_len = std::min(iov[kept].iov_len, budget);
    budget -= iov[kept].iov_len;
  }
  return kept;
}

}  // namespace coca::svc

#include "util/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>

namespace dco3d::util {

namespace {

[[noreturn]] void fail_io(const std::string& what) {
  throw StatusError(
      Status::io_error("socket: " + what + ": " + std::strerror(errno)));
}

}  // namespace

void Fd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

Fd listen_local(int& port, int backlog) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) fail_io("socket");
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (errno == EADDRINUSE)
      throw StatusError(Status::unavailable(
          "socket: port " + std::to_string(port) + " already in use"));
    fail_io("bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(fd.get(), backlog) != 0) fail_io("listen");

  socklen_t len = sizeof addr;
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    fail_io("getsockname");
  port = ntohs(addr.sin_port);
  return fd;
}

Fd connect_local(int port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) fail_io("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (errno == ECONNREFUSED)
      throw StatusError(Status::unavailable(
          "socket: no server listening on 127.0.0.1:" + std::to_string(port)));
    fail_io("connect 127.0.0.1:" + std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

Fd accept_conn(int listen_fd) {
  for (;;) {
    const int c = ::accept(listen_fd, nullptr, nullptr);
    if (c >= 0) {
      Fd fd(c);
      const int one = 1;
      ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return fd;
    }
    if (errno == EINTR) continue;
    // EBADF/EINVAL: the listener was closed or shut down under us — the
    // orderly server-stop path, not an error.
    if (errno == EBADF || errno == EINVAL || errno == ECONNABORTED) return Fd();
    fail_io("accept");
  }
}

void set_recv_timeout(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

bool send_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    // MSG_NOSIGNAL: a vanished peer must surface as a return value, never as
    // a process-wide SIGPIPE.
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool send_line(int fd, std::string_view line) {
  std::string out(line);
  out += '\n';
  return send_all(fd, out);
}

bool LineReader::read_line(std::string& out) {
  while (!overlong_) {
    const std::size_t nl = buf_.find('\n', scanned_);
    if (nl != std::string::npos) {
      if (nl - start_ > kMaxLineBytes) break;
      out.assign(buf_, start_, nl - start_);
      start_ = scanned_ = nl + 1;
      return true;
    }
    if (buf_.size() - start_ > kMaxLineBytes) break;
    // Drop the consumed lines before the buffer grows: at most one move of
    // the partial line per line, so a long line costs linear time.
    buf_.erase(0, start_);
    start_ = 0;
    scanned_ = buf_.size();
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      buf_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // EOF, reset, or recv timeout
  }
  overlong_ = true;
  return false;
}

}  // namespace dco3d::util

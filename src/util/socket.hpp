#pragma once
// Minimal loopback-TCP helpers for the resident server (src/flow/server) and
// its CLI clients: RAII file descriptors, a 127.0.0.1-only listener, blocking
// connect, and line-oriented IO for the line-delimited JSON protocol.
// POSIX-only (the project targets linux); failures surface as StatusError —
// kUnavailable when nothing is listening (retriable), kIoError otherwise.

#include <cstddef>
#include <string>
#include <string_view>

#include "util/status.hpp"

namespace dco3d::util {

/// RAII file descriptor. Move-only; closes on destruction.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& o) noexcept : fd_(o.release()) {}
  Fd& operator=(Fd&& o) noexcept {
    if (this != &o) reset(o.release());
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// Bind + listen on 127.0.0.1:`port`; port 0 picks an ephemeral port, and the
/// actual bound port is written back. Throws kUnavailable when the port is
/// taken, kIoError on any other socket failure.
Fd listen_local(int& port, int backlog = 16);

/// Connect to 127.0.0.1:`port`. Throws kUnavailable when nothing listens
/// there (connection refused), kIoError otherwise.
Fd connect_local(int port);

/// Accept one connection from a listener. Returns an invalid Fd when the
/// listener was closed/shut down (orderly server stop); throws kIoError on
/// unexpected failure.
Fd accept_conn(int listen_fd);

/// Receive timeout for blocked reads on a connection (SO_RCVTIMEO).
void set_recv_timeout(int fd, int timeout_ms);

/// Write the full buffer. Returns false when the peer went away (EPIPE /
/// reset) — a normal event for a server, not an error.
bool send_all(int fd, std::string_view data);

/// send_all of line + '\n'.
bool send_line(int fd, std::string_view line);

/// Longest line a LineReader accepts, terminator excluded (1 MiB).
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

/// Buffered blocking reader returning one '\n'-terminated line at a time
/// (terminator stripped). Each received byte is scanned once. read_line
/// returns false on EOF, peer reset, recv timeout, or a line longer than
/// kMaxLineBytes; in the last case overlong() is true and every later
/// read_line fails too, since the stream cannot be resynchronized.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}
  bool read_line(std::string& out);
  bool overlong() const { return overlong_; }

 private:
  int fd_;
  std::string buf_;
  std::size_t start_ = 0;    // first byte of the next line in buf_
  std::size_t scanned_ = 0;  // buf_[start_, scanned_) holds no '\n'
  bool overlong_ = false;
};

}  // namespace dco3d::util

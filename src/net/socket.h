// Deadline-aware TCP sockets (RAII, EINTR-safe).
//
// Everything here is plain POSIX. Each transfer first tries the syscall
// with MSG_DONTWAIT and polls only when the kernel answers EAGAIN, so a
// transfer that can proceed costs one syscall and every transfer still
// respects a Deadline without signals or global timeouts. Reads go
// through a small per-connection buffer: one recv picks up a frame's
// header and payload together (and any pipelined frame behind it).
// Used by net/frame.h (CRC framing), net/server.h and net/client.h.
// Loopback and LAN scale; not an async I/O engine.

#ifndef HPM_NET_SOCKET_H_
#define HPM_NET_SOCKET_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "common/deadline.h"
#include "common/status.h"

namespace hpm {

/// A connected TCP stream (move-only fd owner).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }
  Socket(Socket&& other) noexcept
      : fd_(std::exchange(other.fd_, -1)),
        buffer_(std::move(other.buffer_)),
        begin_(std::exchange(other.begin_, 0)),
        end_(std::exchange(other.end_, 0)) {}
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = std::exchange(other.fd_, -1);
      buffer_ = std::move(other.buffer_);
      begin_ = std::exchange(other.begin_, 0);
      end_ = std::exchange(other.end_, 0);
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Connects to host:port within `deadline`. kUnavailable on refusal /
  /// unreachable peer (retryable), kDeadlineExceeded on timeout.
  static StatusOr<Socket> Connect(const std::string& host, int port,
                                  Deadline deadline);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void Close();

  /// Sends all of `head` followed by all of `body` as one gather write
  /// (no copy; a short write resumes where it stopped).
  /// kDeadlineExceeded when the deadline is already past or expires
  /// mid-transfer, kUnavailable when the peer resets the connection.
  Status SendAll(std::string_view head, std::string_view body,
                 Deadline deadline);
  Status SendAll(const void* data, size_t n, Deadline deadline) {
    return SendAll(std::string_view(static_cast<const char*>(data), n), {},
                   deadline);
  }

  /// Receives exactly `n` bytes, taking buffered bytes first. When the
  /// peer closes cleanly before the first byte, sets `*clean_eof` (when
  /// non-null) and returns kUnavailable; a close mid-buffer is kDataLoss
  /// (a torn transfer). An already-past deadline is kDeadlineExceeded.
  Status RecvAll(void* data, size_t n, Deadline deadline, bool* clean_eof);

  /// Returns at once when bytes are buffered; otherwise blocks until the
  /// socket is readable or `deadline` expires (kDeadlineExceeded).
  /// Consumes nothing — safe for idle-loop slicing without losing
  /// partial frames.
  Status WaitReadable(Deadline deadline);

  /// Bytes read from the kernel but not yet handed to a RecvAll.
  size_t buffered() const { return end_ - begin_; }

  /// Capacity of the read buffer. A read that still needs this many
  /// bytes or more bypasses it and lands straight in the caller's
  /// memory, so the buffer holds at most one recv of this size.
  static constexpr size_t kReadBufferBytes = 16 * 1024;

 private:
  int fd_ = -1;
  /// Allocated on the first buffered read; bytes [begin_, end_) are
  /// unread. Only ever refilled when empty.
  std::unique_ptr<char[]> buffer_;
  size_t begin_ = 0;
  size_t end_ = 0;
};

/// A bound, listening TCP socket.
class Listener {
 public:
  Listener() = default;
  ~Listener() { Close(); }
  Listener(Listener&& other) noexcept
      : fd_(other.fd_), port_(other.port_) {
    other.fd_ = -1;
  }
  Listener& operator=(Listener&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      port_ = other.port_;
      other.fd_ = -1;
    }
    return *this;
  }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds and listens on host:port. Port 0 picks an ephemeral port;
  /// `port()` reports the actual one.
  static StatusOr<Listener> Bind(const std::string& host, int port,
                                 int backlog);

  /// Accepts one connection, waiting at most until `deadline`
  /// (kDeadlineExceeded on timeout — the accept loop's stop-check
  /// slice).
  StatusOr<Socket> Accept(Deadline deadline);

  bool valid() const { return fd_ >= 0; }
  int port() const { return port_; }
  void Close();

 private:
  int fd_ = -1;
  int port_ = 0;
};

}  // namespace hpm

#endif  // HPM_NET_SOCKET_H_

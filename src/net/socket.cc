#include "net/socket.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "io/eintr.h"

namespace hpm {

namespace {

/// Milliseconds for poll(): -1 for an infinite deadline, clamped to at
/// least 1ms for a pending one so a sub-millisecond remainder still
/// polls instead of spinning.
int PollTimeoutMillis(const Deadline& deadline) {
  if (deadline.is_infinite()) return -1;
  const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline.remaining());
  if (remaining.count() <= 0) return 0;
  return static_cast<int>(
      std::min<int64_t>(remaining.count() + 1, 3600 * 1000));
}

Status WaitFor(int fd, short events, const Deadline& deadline,
               const char* what) {
  for (;;) {
    if (deadline.expired()) {
      return Status::DeadlineExceeded(std::string(what) + " timed out");
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    const int rc = RetryOnEintr(
        [&] { return ::poll(&pfd, 1, PollTimeoutMillis(deadline)); });
    if (rc < 0) {
      return Status::Unavailable(std::string(what) + " poll failed: " +
                                 std::strerror(errno));
    }
    if (rc == 0) {
      return Status::DeadlineExceeded(std::string(what) + " timed out");
    }
    // Readable/writable OR error/hup: let the following syscall report
    // the precise failure.
    return Status::OK();
  }
}

bool ParseAddress(const std::string& host, int port, sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(static_cast<uint16_t>(port));
  return ::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) == 1;
}

bool WouldBlock() { return errno == EAGAIN || errno == EWOULDBLOCK; }

}  // namespace

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.reset();
  begin_ = end_ = 0;
}

StatusOr<Socket> Socket::Connect(const std::string& host, int port,
                                 Deadline deadline) {
  sockaddr_in addr;
  if (!ParseAddress(host, port, &addr)) {
    return Status::InvalidArgument("bad host address: " + host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::Unavailable(std::string("socket: ") +
                               std::strerror(errno));
  }
  Socket socket(fd);

  // Non-blocking connect + poll-for-writable gives the deadline teeth;
  // the socket goes back to blocking afterwards (every transfer passes
  // MSG_DONTWAIT and polls on EAGAIN anyway).
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int rc = RetryOnEintr([&] {
    return ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
  });
  if (rc != 0 && errno != EINPROGRESS) {
    return Status::Unavailable("connect " + host + ":" +
                               std::to_string(port) + ": " +
                               std::strerror(errno));
  }
  if (rc != 0) {
    HPM_RETURN_IF_ERROR(WaitFor(fd, POLLOUT, deadline, "connect"));
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      return Status::Unavailable("connect " + host + ":" +
                                 std::to_string(port) + ": " +
                                 std::strerror(err != 0 ? err : errno));
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return socket;
}

Status Socket::SendAll(std::string_view head, std::string_view body,
                       Deadline deadline) {
  struct iovec iov[2];
  iov[0].iov_base = const_cast<char*>(head.data());
  iov[0].iov_len = head.size();
  iov[1].iov_base = const_cast<char*>(body.data());
  iov[1].iov_len = body.size();
  int first = 0;  // iov[first..1] is what is left to send
  const auto skip_sent = [&](size_t sent) {
    while (first < 2 && sent >= iov[first].iov_len) {
      sent -= iov[first].iov_len;
      ++first;
    }
    if (first < 2) {
      iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + sent;
      iov[first].iov_len -= sent;
    }
  };
  skip_sent(0);  // drop empty pieces
  if (first < 2 && deadline.expired()) {
    return Status::DeadlineExceeded("send timed out");
  }
  while (first < 2) {
    struct msghdr msg;
    std::memset(&msg, 0, sizeof(msg));
    msg.msg_iov = iov + first;
    msg.msg_iovlen = static_cast<size_t>(2 - first);
    const ssize_t sent = RetryOnEintr(
        [&] { return ::sendmsg(fd_, &msg, MSG_NOSIGNAL | MSG_DONTWAIT); });
    if (sent < 0) {
      if (!WouldBlock()) {
        return Status::Unavailable(std::string("send: ") +
                                   std::strerror(errno));
      }
      HPM_RETURN_IF_ERROR(WaitFor(fd_, POLLOUT, deadline, "send"));
      continue;
    }
    skip_sent(static_cast<size_t>(sent));
  }
  return Status::OK();
}

Status Socket::RecvAll(void* data, size_t n, Deadline deadline,
                       bool* clean_eof) {
  if (clean_eof != nullptr) *clean_eof = false;
  if (n > 0 && deadline.expired()) {
    return Status::DeadlineExceeded("recv timed out");
  }
  char* p = static_cast<char*>(data);
  size_t done = 0;
  while (done < n) {
    if (begin_ < end_) {
      const size_t take = std::min(end_ - begin_, n - done);
      std::memcpy(p + done, buffer_.get() + begin_, take);
      begin_ += take;
      done += take;
      continue;
    }
    // The buffer is empty. A large remainder is read straight into the
    // caller's memory, never past `n`; a small one reads a whole buffer,
    // so the rest of a frame and any frame pipelined behind it arrive in
    // this one recv.
    const bool direct = n - done >= kReadBufferBytes;
    if (!direct && buffer_ == nullptr) {
      buffer_ = std::make_unique<char[]>(kReadBufferBytes);
    }
    char* into = direct ? p + done : buffer_.get();
    const size_t want = direct ? n - done : kReadBufferBytes;
    const ssize_t got = RetryOnEintr(
        [&] { return ::recv(fd_, into, want, MSG_DONTWAIT); });
    if (got < 0) {
      if (!WouldBlock()) {
        return Status::Unavailable(std::string("recv: ") +
                                   std::strerror(errno));
      }
      HPM_RETURN_IF_ERROR(WaitFor(fd_, POLLIN, deadline, "recv"));
      continue;
    }
    if (got == 0) {
      if (done == 0) {
        if (clean_eof != nullptr) *clean_eof = true;
        return Status::Unavailable("connection closed by peer");
      }
      return Status::DataLoss("connection closed mid-transfer (" +
                              std::to_string(done) + "/" +
                              std::to_string(n) + " bytes)");
    }
    if (direct) {
      done += static_cast<size_t>(got);
    } else {
      begin_ = 0;
      end_ = static_cast<size_t>(got);
    }
  }
  return Status::OK();
}

Status Socket::WaitReadable(Deadline deadline) {
  if (begin_ < end_) return Status::OK();
  return WaitFor(fd_, POLLIN, deadline, "wait");
}

void Listener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

StatusOr<Listener> Listener::Bind(const std::string& host, int port,
                                  int backlog) {
  sockaddr_in addr;
  if (!ParseAddress(host, port, &addr)) {
    return Status::InvalidArgument("bad host address: " + host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::Unavailable(std::string("socket: ") +
                               std::strerror(errno));
  }
  Listener listener;
  listener.fd_ = fd;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::Unavailable("bind " + host + ":" + std::to_string(port) +
                               ": " + std::strerror(errno));
  }
  if (::listen(fd, backlog) != 0) {
    return Status::Unavailable(std::string("listen: ") +
                               std::strerror(errno));
  }
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    listener.port_ = ntohs(bound.sin_port);
  }
  return listener;
}

StatusOr<Socket> Listener::Accept(Deadline deadline) {
  HPM_RETURN_IF_ERROR(WaitFor(fd_, POLLIN, deadline, "accept"));
  const int fd = RetryOnEintr(
      [&] { return ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC); });
  if (fd < 0) {
    return Status::Unavailable(std::string("accept: ") +
                               std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket(fd);
}

}  // namespace hpm

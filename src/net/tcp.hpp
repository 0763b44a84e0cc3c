// Nonblocking loopback TCP primitives for the async transport subsystem:
// an epoll wrapper (Poller), a cross-thread wakeup fd, a listener bound to
// 127.0.0.1, and a connection wrapper with scatter (writev) output.
//
// These are deliberately thin: ownership, routing, and backpressure policy
// live in net::ServingCore / net::SocketClient; this file only hides the
// syscall boilerplate and normalizes errno handling (EAGAIN/EINTR are flow
// control, everything else surfaces as std::system_error or a closed-
// connection result). Linux-only, like the epoll API it wraps.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <utility>

namespace ribltx::net {

/// epoll_wait readiness bits, re-exported so headers need not pull in
/// <sys/epoll.h>.
inline constexpr std::uint32_t kPollIn = 0x001;   // EPOLLIN
inline constexpr std::uint32_t kPollOut = 0x004;  // EPOLLOUT

/// RAII epoll instance. Registered fds carry a caller-chosen 64-bit key
/// that wait() hands back with the readiness bits.
class Poller {
 public:
  struct Event {
    std::uint64_t key = 0;
    std::uint32_t events = 0;  ///< kPollIn/kPollOut plus error/hup bits
    [[nodiscard]] bool readable() const noexcept {
      return (events & kPollIn) != 0;
    }
    [[nodiscard]] bool writable() const noexcept {
      return (events & kPollOut) != 0;
    }
    /// EPOLLERR/EPOLLHUP: the fd is dead regardless of the other bits.
    [[nodiscard]] bool broken() const noexcept {
      return (events & ~(kPollIn | kPollOut)) != 0;
    }
  };

  Poller();
  ~Poller();
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  void add(int fd, std::uint32_t events, std::uint64_t key);
  void modify(int fd, std::uint32_t events, std::uint64_t key);
  void remove(int fd);

  /// Blocks up to `timeout_ms` (-1 = forever) and fills `out` with ready
  /// events. Returns the event count (0 on timeout). EINTR retries.
  [[nodiscard]] std::size_t wait(std::span<Event> out, int timeout_ms);

 private:
  int epfd_ = -1;
};

/// eventfd-based cross-thread wakeup: any thread may signal(); the poll
/// thread registers fd() for kPollIn and drain()s on readiness.
class WakeupFd {
 public:
  WakeupFd();
  ~WakeupFd();
  WakeupFd(const WakeupFd&) = delete;
  WakeupFd& operator=(const WakeupFd&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }
  void signal() noexcept;
  void drain() noexcept;

 private:
  int fd_ = -1;
};

/// Nonblocking listener on 127.0.0.1 (port 0 = ephemeral; port() reports
/// the bound one).
class TcpListener {
 public:
  explicit TcpListener(std::uint16_t port = 0);
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Accepts one pending connection as a nonblocking, TCP_NODELAY fd;
  /// returns -1 when the backlog is drained.
  [[nodiscard]] int accept_conn();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// One TCP connection (adopted fd). Data-path results are flow-control
/// values, not exceptions: the peer closing mid-stream is an expected
/// outcome the caller handles per connection.
class TcpConn {
 public:
  enum class Io : std::uint8_t {
    kProgress,    ///< bytes moved (see the size result)
    kWouldBlock,  ///< try again on the next readiness event
    kClosed,      ///< peer closed or hard error: drop the connection
  };

  struct IoResult {
    Io status = Io::kWouldBlock;
    std::size_t bytes = 0;
  };

  explicit TcpConn(int fd) noexcept : fd_(fd) {}
  ~TcpConn() { close(); }
  TcpConn(TcpConn&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  TcpConn& operator=(TcpConn&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }

  /// Connects to 127.0.0.1:`port`. Blocking connect (loopback: immediate),
  /// then the fd is switched to `nonblocking` and TCP_NODELAY.
  /// `recv_buffer` != 0 caps SO_RCVBUF (set before connecting so the
  /// advertised window honors it) -- a small receive buffer is how a peer
  /// bounds how far a rateless server can stream ahead of its decode.
  [[nodiscard]] static TcpConn connect_loopback(std::uint16_t port,
                                                bool nonblocking,
                                                int recv_buffer = 0);

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] bool open() const noexcept { return fd_ >= 0; }
  void close() noexcept;

  /// shutdown(SHUT_RDWR) without closing the fd. The io_uring close path
  /// needs this split: in-flight SQEs hold a reference to the file, so
  /// close() alone neither cancels them nor tears the socket down --
  /// shutdown forces pending recv/send completions to error out first.
  void shutdown_both() noexcept;

  [[nodiscard]] IoResult read_some(std::span<std::byte> buf) noexcept;

  /// writev over the scatter list (at most kMaxIov spans used per call).
  [[nodiscard]] IoResult write_gather(
      std::span<const std::span<const std::byte>> chunks) noexcept;

  static constexpr std::size_t kMaxIov = 16;

 private:
  int fd_ = -1;
};

/// Caps a socket's kernel send buffer (SO_SNDBUF). Together with the
/// conduit watermark this bounds the total bytes a serving session can run
/// ahead of its peer: overshoot = watermark + SO_SNDBUF + peer SO_RCVBUF.
void set_send_buffer(int fd, int bytes) noexcept;

}  // namespace ribltx::net

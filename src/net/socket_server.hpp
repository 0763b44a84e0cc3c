// SocketServer: the epoll I/O loop beneath the serving core
// (net/serving_core.hpp, which owns routing, backpressure, ADMIN and the
// counters).
//
// One poll thread owns a net::Poller with the listener, a cross-thread
// wakeup eventfd, and every accepted connection. Readable connections are
// read until EAGAIN and fed to the core; the core's drain cycle hands each
// connection with staged output back to flush(), which writev-drains the
// conduit as far as the socket accepts and keeps EPOLLOUT interest armed
// exactly while output remains. Syscalls are counted at the call sites
// into the core's cells: read, sendmsg, epoll_wait (the core counts the
// eventfd wakeup).
#pragma once

#include <cstdint>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "net/serving_core.hpp"
#include "net/tcp.hpp"
#include "sync/sharded.hpp"

namespace ribltx::net {

namespace detail {

struct EpollConn : ServingConn {
  using ServingConn::ServingConn;
  bool want_write = false;  ///< poll thread: current EPOLLOUT interest
};

}  // namespace detail

template <Symbol T, typename Hasher = SipHasher<T>>
class SocketServer : public ServingCore<SocketServer<T, Hasher>,
                                        detail::EpollConn, T, Hasher> {
  using Core =
      ServingCore<SocketServer<T, Hasher>, detail::EpollConn, T, Hasher>;
  using Conn = detail::EpollConn;
  friend Core;

 public:
  /// Binds the listener immediately (so port() is valid before start());
  /// the engine must not be start()ed -- the server owns its sink.
  explicit SocketServer(sync::ShardedEngine<T, Hasher>& engine,
                        SocketServerOptions options = {})
      : Core(engine, options, "epoll") {}

  ~SocketServer() { this->stop(); }

 private:
  static constexpr std::uint64_t kListenerKey = 0;
  static constexpr std::uint64_t kWakeupKey = 1;

  void run() {
    poller_.add(this->listener_.fd(), kPollIn, kListenerKey);
    poller_.add(wakeup_.fd(), kPollIn, kWakeupKey);
    Poller::Event events[64];
    while (!this->stopping()) {
      const std::size_t n = poller_.wait(events, /*timeout_ms=*/200);
      this->syscalls_wait_.inc();
      for (std::size_t i = 0; i < n; ++i) {
        const Poller::Event& ev = events[i];
        if (ev.key == kListenerKey) {
          accept_all();
        } else if (ev.key == kWakeupKey) {
          wakeup_.drain();
        } else {
          on_conn_event(ev);
        }
      }
      this->drain_cycle();
    }
  }

  void wake() { wakeup_.signal(); }

  void accept_all() {
    for (;;) {
      const int fd = this->listener_.accept_conn();
      if (fd < 0) return;
      const std::shared_ptr<Conn> conn = this->adopt(fd);
      poller_.add(conn->io.fd(), kPollIn, conn->key);
    }
  }

  void on_conn_event(const Poller::Event& ev) {
    const std::shared_ptr<Conn> conn = this->conn_of(ev.key);
    if (!conn) return;  // already closed this round
    if (ev.broken()) {
      close_conn(conn);
      return;
    }
    if (ev.readable() && !read_ready(conn)) return;
    if (ev.writable()) flush(conn);
  }

  /// Reads until EAGAIN, feeding the core. Returns false when the
  /// connection died (and was closed).
  bool read_ready(const std::shared_ptr<Conn>& conn) {
    std::byte buf[64 * 1024];
    for (;;) {
      const TcpConn::IoResult r = conn->io.read_some(buf);
      this->syscalls_read_.inc();
      if (r.status == TcpConn::Io::kWouldBlock) return true;
      if (r.status == TcpConn::Io::kClosed) {
        close_conn(conn);
        return false;
      }
      if (!this->ingest(conn, std::span<const std::byte>(buf, r.bytes))) {
        return false;
      }
    }
  }

  /// writev-drains the conduit and maintains EPOLLOUT interest.
  void flush(const std::shared_ptr<Conn>& conn) {
    while (conn->conduit.has_output()) {
      std::span<const std::byte> chunks[TcpConn::kMaxIov];
      const std::size_t n = conn->conduit.gather(chunks);
      const TcpConn::IoResult r =
          conn->io.write_gather(std::span<const std::span<const std::byte>>(
              chunks, n));
      this->syscalls_write_.inc();
      if (r.status == TcpConn::Io::kClosed) {
        close_conn(conn);
        return;
      }
      if (r.status == TcpConn::Io::kWouldBlock || r.bytes == 0) break;
      conn->conduit.consume(r.bytes);
    }
    const bool want = conn->conduit.has_output();
    if (want != conn->want_write) {
      conn->want_write = want;
      poller_.modify(conn->io.fd(), want ? (kPollIn | kPollOut) : kPollIn,
                     conn->key);
    }
    this->after_flush(*conn);
  }

  void close_conn(const std::shared_ptr<Conn>& conn) {
    if (!this->begin_close(*conn)) return;
    poller_.remove(conn->io.fd());
    conn->io.close();
    this->finish_close(conn->key);
  }

  Poller poller_;
  WakeupFd wakeup_;
};

}  // namespace ribltx::net

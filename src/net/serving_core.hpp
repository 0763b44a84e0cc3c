// ServingCore: the ShardedEngine served over loopback TCP -- the routing
// policy, with the I/O loop left to a derived class.
//
// The core owns everything a server does independently of how it waits
// for the kernel: the listener, the connection table, the sid ->
// connection reply routes, the shard workers' blocking sink, coalesced
// wakeups, inbound routing, in-band ADMIN answers, the first half of every
// close, and the counters -- the syscall columns included, which the loops
// bump at their call sites. A loop (net::SocketServer over epoll,
// net::UringServer over io_uring) derives from it (CRTP: static dispatch,
// no virtual call per frame) and supplies four hooks:
//
//   run()            the loop thread body: wait for I/O, ingest() what
//                    arrives, and call drain_cycle() once per iteration
//                    until stopping();
//   wake()           nudge the loop thread out of its wait (one syscall);
//   close_conn(c)    close a connection: begin_close(), release the
//                    socket, finish_close() once no I/O references it;
//   flush(c)         push the conduit's output toward the socket, then
//                    after_flush().
//
// Observability taps come from the engine served: its registry gets the
// server's cells linked under {server="epoll"|"uring"} and answers the
// METRICS verbs, its tracer answers TRACE.
//
// Backpressure end to end: a shard worker's sink blocks while the
// destination connection's queued output (staged + conduit) sits above the
// high watermark, and resumes when the loop drains it below the low
// watermark -- the worker streams exactly as fast as the peer's socket
// accepts, which is the paper's serve-at-line-rate model with real kernel
// send buffers as the rate signal. Slow peers stall only their own
// sessions' shard progress, never the loop thread (which never blocks on
// the engine) and never other connections' drains.
//
// Error containment mirrors the engine contract: a frame whose routing
// prefix cannot be parsed poisons only its connection (framing is intact,
// so it is a hostile/broken client, and with no session id there is nobody
// to ERROR); a frame the loop rejects (no route on its connection, or a
// HELLO with a bad topology or for a routed sid) gets a v2 ERROR frame back
// on its connection; whatever the shard engine rejects or fails comes back
// as an in-band ERROR from the shard worker.
//
// The sid -> connection reply routes are the only per-session state the
// TCP path keeps. Only a HELLO creates one, and it ends with its session:
// at the peer's DONE or ERROR, at any ERROR the engine sends, or when the
// connection closes.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/frame_conduit.hpp"
#include "net/tcp.hpp"
#include "obs/prom.hpp"
#include "sync/sharded.hpp"

namespace ribltx::net {

struct SocketServerOptions {
  std::uint16_t port = 0;            ///< 0 = ephemeral; see port()
  std::size_t high_watermark = 64u << 10;  ///< sink blocks above this
  std::size_t low_watermark = 16u << 10;   ///< sink resumes below this
  /// SO_SNDBUF cap per accepted connection (0 = kernel default). The total
  /// runway a rateless stream has before the worker's sink blocks is
  /// watermark + this + the peer's receive buffer, so keep all three small
  /// relative to the expected per-session transfer -- otherwise a server
  /// on a fast link encodes megabytes of symbols the peer's DONE will
  /// throw away (the measured default was ~600 KB of waste per session on
  /// unbounded loopback buffers).
  int send_buffer = 64 << 10;
  std::size_t max_frame = FrameConduit::kDefaultMaxFrame;
  /// Longest a shard worker's sink blocks on one connection's backpressure
  /// before the connection is doomed and closed (a peer that stops reading
  /// would otherwise wedge its shard's worker -- and with it every other
  /// session on that shard, including the idle-reap sweep). Must be > 0;
  /// the default is a client's usual receive deadline, far above a
  /// loopback stall (~200 ms).
  double sink_timeout_s = 10;
  /// UringServer-only knobs (the epoll server ignores them): disable the
  /// provided-buffer-ring multishot recv or the MSG_RING wakeup to force
  /// the single-shot recv / eventfd fallback paths without an old kernel.
  bool uring_buffer_ring = true;
  bool uring_msg_ring = true;
};

/// Transport-layer counters (engine-layer stats live in ShardedStats):
/// loads of the server's cells, which the engine's registry exports as
/// the riblt_server_* series. The syscall columns are the bench's
/// syscalls/session source -- counted at the call sites, not strace'd:
/// the epoll path counts read/sendmsg/epoll_wait/eventfd-write; the uring
/// path counts io_uring_enter under `syscalls_wait` (its only
/// steady-state syscall) plus `sqe_submits` for the batching numerator.
struct SocketServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t frames_dropped = 0;   ///< outbound with no live route
  std::uint64_t protocol_errors = 0;  ///< router rejects + framing poisons
  std::uint64_t syscalls_read = 0;    ///< read()s (epoll path)
  std::uint64_t syscalls_write = 0;   ///< sendmsg()s (epoll path)
  std::uint64_t syscalls_wait = 0;    ///< epoll_wait()s / io_uring_enter()s
  std::uint64_t wakeups = 0;          ///< cross-thread wakeup syscalls
  std::uint64_t sqe_submits = 0;      ///< SQEs handed to the kernel (uring)
  std::uint64_t routes = 0;           ///< live sid->connection routes (gauge)

  /// Total data-path syscalls (sqe_submits excluded: an SQE is not a
  /// syscall, that is the whole point).
  ///
  /// Consistency: this sums columns of ONE materialized stats() sample,
  /// so it can never tear a live counter mid-read -- but the sample
  /// itself loads each cell separately. Each column is torn-free and
  /// monotone across successive samples; the SUM is a smear: a read
  /// counted between the syscalls_read load and the syscalls_wait load
  /// lands in neither. Deltas between two samples bracket the true
  /// syscall count, which is what the benches divide by sessions. Same
  /// contract as obs::MetricsRegistry::snapshot().
  [[nodiscard]] std::uint64_t syscalls() const noexcept {
    return syscalls_read + syscalls_write + syscalls_wait + wakeups;
  }
};

/// One connection as the core sees it; a loop derives its own connection
/// type from this to add its I/O state.
struct ServingConn {
  ServingConn(int fd, std::uint64_t key_, std::size_t max_frame)
      : io(fd), key(key_), conduit(max_frame) {}

  TcpConn io;
  const std::uint64_t key;  ///< connection-table key (and the loop's tag)
  FrameConduit conduit;     ///< loop thread only, both directions

  std::mutex mu;  ///< guards staged/staged_bytes (sinks <-> loop thread)
  std::condition_variable cv;  ///< backpressure wait/wake
  std::deque<std::vector<std::byte>> staged;  ///< sinks -> loop thread
  std::size_t staged_bytes = 0;
  /// Conduit-side pending bytes mirrored for the sink's watermark check
  /// (the conduit itself is loop-thread-only).
  std::atomic<std::size_t> conduit_pending{0};
  /// The close has begun (written once, by the loop thread, under `mu`).
  std::atomic<bool> dead{false};
  /// A sink timed out on this connection's backpressure: the loop thread
  /// closes it at the next drain cycle (sinks must not close -- only the
  /// loop thread owns the socket's lifecycle).
  std::atomic<bool> doomed{false};
  /// In the dirty list (has undrained staged frames). Guards against
  /// re-enqueueing; see drain_cycle() for the ordering.
  std::atomic<bool> dirty{false};
};

template <typename Loop, typename Conn, Symbol T, typename Hasher>
class ServingCore {
 public:
  ServingCore(const ServingCore&) = delete;
  ServingCore& operator=(const ServingCore&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept {
    return listener_.port();
  }

  /// Starts the shard workers (engine.start with this server's sink) and
  /// the loop thread.
  void start() {
    if (running_) throw std::logic_error(name() + ": already started");
    stopping_.store(false, std::memory_order_release);
    engine_.start([this](std::vector<std::byte> frame) {
      sink(std::move(frame));
    });
    thread_ = std::thread([this] { loop().run(); });
    running_ = true;
  }

  /// Unblocks and joins the shard workers, then the loop thread; closes
  /// every connection. Idempotent.
  void stop() {
    if (!running_) return;
    stopping_.store(true, std::memory_order_release);
    {
      const std::lock_guard<std::mutex> lk(conns_mu_);
      for (auto& [key, conn] : conns_) {
        // Take the conn mutex before notifying: a sink that evaluated its
        // wait predicate just before stopping_ flipped must be fully
        // parked (mutex released into the wait) before the notify fires,
        // or the wakeup is lost and the worker sleeps forever.
        { const std::lock_guard<std::mutex> conn_lk(conn->mu); }
        conn->cv.notify_all();
      }
    }
    engine_.stop();
    loop().wake();
    if (thread_.joinable()) thread_.join();
    // Every accepted connection counts as closed exactly once: the ones
    // still open when the loop exited close here.
    std::unordered_map<std::uint64_t, std::shared_ptr<Conn>> leftover;
    {
      const std::lock_guard<std::mutex> lk(conns_mu_);
      leftover.swap(conns_);
      routes_.clear();
    }
    for (auto& [key, conn] : leftover) {
      conn->io.close();
      closed_.inc();
    }
    {
      const std::lock_guard<std::mutex> lk(dirty_mu_);
      dirty_.clear();
    }
    running_ = false;
  }

  [[nodiscard]] bool running() const noexcept { return running_; }

  [[nodiscard]] SocketServerStats stats() const {
    SocketServerStats out;
    out.connections_accepted = accepted_.load();
    out.connections_closed = closed_.load();
    out.frames_in = frames_in_.load();
    out.frames_out = frames_out_.load();
    out.frames_dropped = dropped_.load();
    out.protocol_errors = protocol_errors_.load();
    out.syscalls_read = syscalls_read_.load();
    out.syscalls_write = syscalls_write_.load();
    out.syscalls_wait = syscalls_wait_.load();
    out.wakeups = wakeups_.load();
    out.sqe_submits = sqe_submits_.load();
    out.routes = static_cast<std::uint64_t>(routes_.size().load());
    return out;
  }

 protected:
  /// Binds the listener immediately (so port() is valid before start());
  /// the engine must not be start()ed -- the server owns its sink.
  /// `label` names the loop in error texts and the {server=...} label.
  ServingCore(sync::ShardedEngine<T, Hasher>& engine,
              SocketServerOptions options, const char* label)
      : listener_(options.port),
        engine_(engine),
        options_(options),
        label_(label) {
    if (options_.low_watermark >= options_.high_watermark) {
      throw std::invalid_argument(name() + ": watermarks out of order");
    }
    if (!(options_.sink_timeout_s > 0)) {
      throw std::invalid_argument(name() + ": sink timeout must be positive");
    }
    if (obs::MetricsRegistry* m = engine_.metrics(); m != nullptr) {
      bind_metrics(*m);
    }
  }

  ~ServingCore() = default;  // the loop's destructor stop()s first

  [[nodiscard]] bool stopping() const noexcept {
    return stopping_.load(std::memory_order_acquire);
  }

  // Syscall columns, bumped by the loop at its call sites (epoll: read,
  // write, wait; uring: wait = io_uring_enter, sqe = SQEs submitted).
  obs::Counter syscalls_read_;
  obs::Counter syscalls_write_;
  obs::Counter syscalls_wait_;
  obs::Counter sqe_submits_;

  /// Registers a freshly accepted socket as a connection.
  std::shared_ptr<Conn> adopt(int fd) {
    set_send_buffer(fd, options_.send_buffer);
    auto conn =
        std::make_shared<Conn>(fd, next_conn_key_++, options_.max_frame);
    {
      const std::lock_guard<std::mutex> lk(conns_mu_);
      conns_.emplace(conn->key, conn);
    }
    accepted_.inc();
    return conn;
  }

  [[nodiscard]] std::shared_ptr<Conn> conn_of(std::uint64_t key) {
    const std::lock_guard<std::mutex> lk(conns_mu_);
    const auto it = conns_.find(key);
    return it == conns_.end() ? nullptr : it->second;
  }

  /// Feeds bytes read off `conn` into its conduit and routes every frame
  /// they complete. Returns false when the connection was closed in
  /// response.
  bool ingest(const std::shared_ptr<Conn>& conn,
              std::span<const std::byte> bytes) {
    try {
      conn->conduit.feed(bytes);
    } catch (const sync::ProtocolError&) {
      // Framing poisoned (oversized/garbled length): unrecoverable on a
      // byte stream, and containment is per connection.
      protocol_errors_.inc();
      loop().close_conn(conn);
      return false;
    }
    while (auto frame = conn->conduit.next_frame()) {
      if (!route_inbound(conn, std::move(*frame))) return false;
    }
    return true;
  }

  /// Runs once per loop iteration, after the loop dispatched its events:
  /// clears the pending-wakeup flag, then drains only the connections
  /// sinks have staged onto since the last cycle (a full-table sweep would
  /// be O(connections) per iteration -- ruinous at 10k mostly-idle paced
  /// sessions).
  void drain_cycle() {
    // Clear the pending-wakeup flag BEFORE draining: a sink that stages
    // after the clear signals a fresh wakeup; one that staged before it
    // is picked up by this very drain. Clear-after-drain would strand
    // frames staged in the window until the loop's 200ms tick.
    wake_pending_.store(false, std::memory_order_release);
    std::vector<std::shared_ptr<Conn>> batch;
    {
      const std::lock_guard<std::mutex> lk(dirty_mu_);
      batch.swap(dirty_);
    }
    for (auto& conn : batch) {
      // Same ordering per connection: a sink staging concurrently either
      // lands in this drain (staged before the clear) or re-enqueues the
      // conn (its exchange sees false after it).
      conn->dirty.store(false, std::memory_order_release);
      if (conn->dead.load(std::memory_order_acquire)) continue;
      if (conn->doomed.load(std::memory_order_acquire)) {
        loop().close_conn(conn);  // sink timed out: stalled peer
        continue;
      }
      {
        const std::lock_guard<std::mutex> lk(conn->mu);
        for (auto& frame : conn->staged) {
          conn->conduit.send(std::move(frame));
        }
        conn->staged.clear();
        conn->staged_bytes = 0;
        conn->conduit_pending.store(conn->conduit.pending_bytes(),
                                    std::memory_order_release);
      }
      loop().flush(conn);
    }
  }

  /// Bookkeeping after every flush: refresh the sink-visible pending
  /// mirror, record the conduit depth, and release backpressured sinks
  /// once below the low watermark.
  void after_flush(Conn& conn) {
    const std::size_t pending = conn.conduit.pending_bytes();
    conn.conduit_pending.store(pending, std::memory_order_release);
    if (obs_conduit_depth_ != nullptr) obs_conduit_depth_->record(pending);
    if (pending < options_.low_watermark) {
      // Lock-then-notify so a sink between predicate check and park
      // cannot miss the drain.
      { const std::lock_guard<std::mutex> lk(conn.mu); }
      conn.cv.notify_all();
    }
  }

  /// First half of every close: marks the connection dead (releasing any
  /// sink blocked on it), drops the routes it still owns, and aborts their
  /// engine sessions. Returns false when the close had already begun.
  bool begin_close(Conn& conn) {
    if (conn.dead.load(std::memory_order_relaxed)) return false;
    {
      // Under the conn mutex so a sink mid-wait-entry cannot miss the
      // dead flag (see the matching comment in stop()).
      const std::lock_guard<std::mutex> lk(conn.mu);
      conn.dead.store(true, std::memory_order_release);
    }
    conn.cv.notify_all();
    std::vector<std::uint64_t> orphaned;
    {
      const std::lock_guard<std::mutex> lk(conns_mu_);
      for (auto it = routes_.begin(); it != routes_.end();) {
        if (it->second.get() == &conn) {
          orphaned.push_back(it->first);
          it = routes_.erase(it);
        } else {
          ++it;
        }
      }
    }
    // Abort the engine side of every session this connection still owned:
    // without this, a rateless session stays kActive forever, its shard
    // worker spinning out SYMBOLS frames that drop on the floor (one
    // disconnect pinned a core and generated ~160k dropped frames/sec).
    // A synthetic in-band ERROR is FIFO-correct even when the session's
    // HELLO is still queued in the shard inbox -- the worker opens the
    // session, then fails and retires it on the very next frame -- and a
    // no-op for a session the engine already retired.
    for (const std::uint64_t sid : orphaned) {
      engine_.submit(sync::v2::make_error_frame(sid, "peer disconnected"));
    }
    return true;
  }

  /// Second half: the loop released the socket; forget the connection.
  void finish_close(std::uint64_t key) {
    {
      const std::lock_guard<std::mutex> lk(conns_mu_);
      conns_.erase(key);
    }
    closed_.inc();
  }

  /// Loop-thread iteration over every live connection (teardown).
  template <typename Fn>
  void for_each_conn(Fn&& fn) {
    const std::lock_guard<std::mutex> lk(conns_mu_);
    for (auto& [key, conn] : conns_) fn(*conn);
  }

  TcpListener listener_;

 private:
  Loop& loop() noexcept { return static_cast<Loop&>(*this); }
  const Loop& loop() const noexcept {
    return static_cast<const Loop&>(*this);
  }

  [[nodiscard]] std::string name() const {
    return std::string(label_) + " server";
  }

  /// Links every counter column into `m` under {server=label} and
  /// resolves the conduit-depth histogram.
  void bind_metrics(obs::MetricsRegistry& m) {
    const obs::Labels server{{"server", label_}};
    const auto link = [&](const char* name, const char* help,
                          const auto& cell, obs::Labels labels) {
      links_.push_back(m.link(name, help, std::move(labels), cell));
    };
    link("riblt_server_connections_accepted_total", "Connections accepted",
         accepted_, server);
    link("riblt_server_connections_closed_total", "Connections closed",
         closed_, server);
    link("riblt_server_frames_in_total", "Frames reassembled off sockets",
         frames_in_, server);
    link("riblt_server_frames_out_total", "Frames staged for sending",
         frames_out_, server);
    link("riblt_server_frames_dropped_total",
         "Outbound frames with no live route", dropped_, server);
    link("riblt_server_protocol_errors_total",
         "Router rejects plus framing poisons", protocol_errors_, server);
    const char* const syscalls = "riblt_server_syscalls_total";
    const char* const syscall_help = "Data-path syscalls by call site";
    const auto op = [&server](const char* v) {
      obs::Labels l = server;
      l.emplace_back("op", v);
      return l;
    };
    link(syscalls, syscall_help, syscalls_read_, op("read"));
    link(syscalls, syscall_help, syscalls_write_, op("write"));
    link(syscalls, syscall_help, syscalls_wait_, op("wait"));
    link(syscalls, syscall_help, wakeups_, op("wakeup"));
    link("riblt_server_sqe_submits_total",
         "SQEs handed to the kernel (uring)", sqe_submits_, server);
    link("riblt_server_routes", "Live session-to-connection routes",
         routes_.size(), server);
    obs_conduit_depth_ = &m.histogram(
        "riblt_server_conduit_pending_bytes",
        "Bytes queued in a connection's conduit after a flush", server);
  }

  // ------------------------------------------------------- worker-side sink

  /// Delivery callback running on the shard workers. Blocking here is the
  /// designed backpressure: the worker stops pumping this shard's sessions
  /// until the peer's socket drains. An ERROR ends its session on the
  /// server side, so its route ends in the same lookup.
  void sink(std::vector<std::byte> frame) {
    std::uint64_t sid = 0;
    try {
      sid = sync::v2::peek_session_id(frame);
    } catch (const sync::ProtocolError&) {
      dropped_.inc();
      return;  // engine frames are well-formed; defensive only
    }
    std::shared_ptr<Conn> conn;
    {
      const std::lock_guard<std::mutex> lk(conns_mu_);
      const auto it = routes_.find(sid);
      if (it != routes_.end()) {
        conn = it->second;
        if (static_cast<sync::v2::FrameType>(frame[0]) ==
            sync::v2::FrameType::kError) {
          routes_.erase(it);
        }
      }
    }
    if (!conn) {
      dropped_.inc();
      return;  // peer disconnected (or finished) mid-stream
    }
    {
      std::unique_lock<std::mutex> lk(conn->mu);
      const auto drained = [&] {
        return stopping_.load(std::memory_order_acquire) ||
               conn->dead.load(std::memory_order_acquire) ||
               conn->staged_bytes +
                       conn->conduit_pending.load(std::memory_order_acquire) <
                   options_.high_watermark;
      };
      if (!conn->cv.wait_for(
              lk, std::chrono::duration<double>(options_.sink_timeout_s),
              drained)) {
        // The peer sat above the high watermark for the whole timeout: it
        // stopped reading. Doom the connection and move on -- the loop
        // thread closes it (which aborts its sessions in-band), and this
        // worker is free to serve the shard's other sessions again.
        lk.unlock();
        conn->doomed.store(true, std::memory_order_release);
        dropped_.inc();
        mark_dirty(conn);
        wake_loop();
        return;
      }
      if (stopping_.load(std::memory_order_acquire) ||
          conn->dead.load(std::memory_order_acquire)) {
        dropped_.inc();
        return;
      }
      conn->staged_bytes += frame.size();
      conn->staged.push_back(std::move(frame));
    }
    frames_out_.inc();
    mark_dirty(conn);
    wake_loop();
  }

  /// Enqueues `conn` for the loop's next drain cycle (idempotent until
  /// the loop clears the flag).
  void mark_dirty(const std::shared_ptr<Conn>& conn) {
    if (!conn->dirty.exchange(true, std::memory_order_acq_rel)) {
      const std::lock_guard<std::mutex> lk(dirty_mu_);
      dirty_.push_back(conn);
    }
  }

  /// Coalesced wakeup: a wakeup per staged frame would be thousands of
  /// syscalls/sec under load that the loop collapses into one drain
  /// anyway. One wakeup is pending until drain_cycle() clears the flag;
  /// stages landing before the clear ride the already-pending wakeup.
  void wake_loop() {
    if (!wake_pending_.exchange(true, std::memory_order_acq_rel)) {
      loop().wake();
      wakeups_.inc();
    }
  }

  // ------------------------------------------------------------ loop thread

  /// Routes one reassembled frame into the engine. Returns false when the
  /// connection was closed in response.
  bool route_inbound(const std::shared_ptr<Conn>& conn,
                     std::vector<std::byte> frame) {
    frames_in_.inc();
    std::uint64_t sid = 0;
    try {
      // Also rejects the empty (zero-length) frame, so the type read below
      // is in bounds.
      sid = sync::v2::peek_session_id(frame);
    } catch (const sync::ProtocolError&) {
      protocol_errors_.inc();
      loop().close_conn(conn);  // valid framing, unparseable routing: hostile
      return false;
    }
    using sync::v2::FrameType;
    const auto type = static_cast<FrameType>(frame[0]);
    if (type == FrameType::kAdmin) {
      // Observability verbs are transport-level: answered here on the loop
      // thread, never submitted to the engine (which rejects them) and
      // never recorded in the reply routes -- the chunked ADMIN_REPLY
      // rides stage_local back on this same connection, so a scrape works
      // mid-load from a second connection without touching any session.
      auto [replies, is_error] = sync::v2::answer_admin(
          sid, frame, engine_.metrics(), engine_.tracer());
      if (is_error) protocol_errors_.inc();
      for (auto& reply : replies) stage_local(conn, std::move(reply));
      return true;
    }
    std::string reject;
    {
      // Only a HELLO creates a route, and up front: the HELLO_ACK can race
      // out of the shard worker before submit() returns. Every other frame
      // needs this connection's route; a rejected frame leaves the routes
      // as they were, so neither a hijack attempt (the sid is routed to a
      // DIFFERENT connection) nor a duplicate HELLO severs a live session.
      const std::lock_guard<std::mutex> lk(conns_mu_);
      const auto it = routes_.find(sid);
      const bool own = it != routes_.end() && it->second == conn;
      if (it != routes_.end() && !own) {
        reject = "session belongs to another connection";
      } else if (type == FrameType::kHello) {
        if (own) {
          reject = "duplicate HELLO for session";
        } else {
          routes_.emplace(sid, conn);
        }
      } else if (!own) {
        // An ERROR for a session that already ended needs no answer.
        if (type == FrameType::kError) return true;
        reject = "unknown session id";
      } else if (type == FrameType::kDone || type == FrameType::kError) {
        // The client ended the session; nothing meaningful flows back.
        routes_.erase(it);
      }
    }
    if (reject.empty()) {
      try {
        engine_.submit(std::move(frame));
      } catch (const sync::ProtocolError& e) {
        // Only a HELLO can fail here (bad topology): undo its route.
        const std::lock_guard<std::mutex> lk(conns_mu_);
        if (const auto it = routes_.find(sid); it != routes_.end()) {
          routes_.erase(it);
        }
        reject = e.what();
      }
    }
    if (!reject.empty()) {
      protocol_errors_.inc();
      stage_local(conn, sync::v2::make_error_frame(sid, reject));
    }
    return true;
  }

  /// Stages a loop-generated frame (ERROR and ADMIN replies) onto `conn`,
  /// bypassing the sink watermark: these must get out even when the peer
  /// is backpressured. Delivery rides the end-of-iteration drain_cycle()
  /// -- flushing inline here could close the conn in the middle of its own
  /// ingest() frame loop.
  void stage_local(const std::shared_ptr<Conn>& conn,
                   std::vector<std::byte> frame) {
    {
      const std::lock_guard<std::mutex> lk(conn->mu);
      conn->staged_bytes += frame.size();
      conn->staged.push_back(std::move(frame));
    }
    frames_out_.inc();
    mark_dirty(conn);
  }

  sync::ShardedEngine<T, Hasher>& engine_;
  SocketServerOptions options_;
  const char* const label_;

  mutable std::mutex conns_mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Conn>> conns_;
  /// sid -> owning connection. Every insert and erase goes through here,
  /// and each moves the table's size gauge once -- the one cell both
  /// stats().routes and riblt_server_routes read.
  class RouteTable {
   public:
    using Map = std::unordered_map<std::uint64_t, std::shared_ptr<Conn>>;
    using iterator = typename Map::iterator;

    std::pair<iterator, bool> emplace(std::uint64_t sid,
                                      const std::shared_ptr<Conn>& conn) {
      auto r = map_.emplace(sid, conn);
      if (r.second) size_.add(1);
      return r;
    }
    iterator erase(iterator it) {
      size_.add(-1);
      return map_.erase(it);
    }
    void clear() {
      size_.add(-static_cast<std::int64_t>(map_.size()));
      map_.clear();
    }
    iterator find(std::uint64_t sid) { return map_.find(sid); }
    iterator begin() { return map_.begin(); }
    iterator end() { return map_.end(); }
    [[nodiscard]] const obs::Gauge& size() const noexcept { return size_; }

   private:
    Map map_;
    obs::Gauge size_;
  };
  RouteTable routes_;  ///< guarded by conns_mu_
  /// Loop thread only. Keys 0 and 1 are left to the loop's own event
  /// sources (listener, wakeup).
  std::uint64_t next_conn_key_ = 2;

  std::mutex dirty_mu_;
  std::vector<std::shared_ptr<Conn>> dirty_;  ///< staged-but-undrained conns
  std::atomic<bool> wake_pending_{false};     ///< wakeup coalescing

  std::thread thread_;
  std::atomic<bool> stopping_{false};
  bool running_ = false;

  // Lifetime cells, the one source of stats() and of the registry's
  // riblt_server_* series (with the syscall columns above).
  obs::Counter accepted_;
  obs::Counter closed_;
  obs::Counter frames_in_;
  obs::Counter frames_out_;
  obs::Counter dropped_;
  obs::Counter protocol_errors_;
  obs::Counter wakeups_;
  obs::Histogram* obs_conduit_depth_ = nullptr;  ///< null = untapped
  /// Declared last: unlinks before any cell it exports is destroyed.
  std::vector<obs::MetricsRegistry::Link> links_;
};

}  // namespace ribltx::net

// replica-pull: two Replicas, A and B, in one process, joined by one real
// loopback TCP connection and driven by one event-loop thread (a Poller
// and a FrameConduit on each end, a harness clock, jitter 0). A is paused;
// B pulls. Each round plants d fresh items on A, ticks B, and runs the
// loop until B's round has ended; the planted items are then checked on B
// and removed from both replicas outside the timed span. A second thread
// adds and removes items on both replicas at a fixed open-loop rate while
// rounds run.
//
// A session (round) runs from the tick that opens B's round until B's
// deliver that applied the diff returns. The frames A streamed past B's
// DONE are drained between rounds, untimed but counted.
#include <sys/prctl.h>

#include <atomic>
#include <deque>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "harness.hpp"
#include "items.hpp"
#include "net/frame_conduit.hpp"
#include "net/tcp.hpp"
#include "sync/replica.hpp"

namespace perfbench {
namespace {

using namespace ribltx;
using Replica = sync::Replica<Item>;

struct Shape {
  std::size_t n;
  std::size_t d;
  double writer_ops_per_s;    ///< open-loop add/remove rate
  std::size_t writer_window;  ///< writer items live at once
};

Shape shape_of(const Config& cfg) {
  return cfg.tiny ? Shape{2000, 10, 500, 64} : Shape{100000, 100, 2000, 128};
}

constexpr std::uint64_t kIdA = 1;
constexpr std::uint64_t kIdB = 2;
/// Conduit backlog above which a replica's ReadyFn holds frames back (the
/// socket servers' default high watermark).
constexpr std::size_t kWatermark = 64u << 10;
/// Harness-clock step between rounds: above sync_interval_s, so every round
/// opens on the first tick of its step.
constexpr double kRoundStepS = 2.0;
/// Wall-clock bound on one round before it counts as failed.
constexpr std::int64_t kRoundTimeoutNs = 10'000'000'000;

std::uint64_t framed(const std::vector<std::byte>& frame) {
  return frame.size() + uvarint_size(frame.size());
}

/// One end of the TCP connection.
struct End {
  explicit End(net::TcpConn c) : conn(std::move(c)) {}
  net::TcpConn conn;
  net::FrameConduit conduit;
  bool want_out = false;  ///< registered for kPollOut
};

/// The open-loop writer's measurements.
struct WriterResult {
  std::vector<double> latency_us;
  double lag_ms_sum = 0;
  std::uint64_t ops = 0;
  double cpu_s = 0;
};

/// Adds and removes writer-class items on both replicas at a fixed rate.
/// Each op is timed from when it was due, so a stall shows as latency of
/// every op queued behind it.
void run_writer(Replica& a, Replica& b, const Shape& sh, std::uint64_t seed,
                std::deque<Item>& live, std::atomic<bool>& stop,
                WriterResult& out) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);  // wake close to the due time
  const double c0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  const std::int64_t start = now_ns();
  const double interval_ns = 1e9 / sh.writer_ops_per_s;
  SplitMix64 rng(seed);
  Item pending{};
  for (std::uint64_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
    const auto due = start + static_cast<std::int64_t>(k * interval_ns);
    if (now_ns() < due) {
      const timespec ts{static_cast<time_t>(due / 1'000'000'000),
                        static_cast<long>(due % 1'000'000'000)};
      clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
    }
    const std::int64_t began = now_ns();
    switch (k % 4) {
      case 0:
        pending = make_item(kClassWriter, rng.next());
        (void)a.add_item(pending);
        break;
      case 1:
        (void)b.add_item(pending);
        live.push_back(pending);
        break;
      case 2:
        (void)a.remove_item(live.front());
        break;
      default:
        (void)b.remove_item(live.front());
        live.pop_front();
        break;
    }
    const std::int64_t ended = now_ns();
    out.latency_us.push_back(static_cast<double>(ended - due) * 1e-3);
    out.lag_ms_sum += static_cast<double>(began - due) * 1e-6;
    ++out.ops;
    // Keep the window full: removals start once it holds writer_window.
    if (k % 4 == 1 && live.size() <= sh.writer_window) k += 2;
  }
  out.cpu_s = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - c0;
}

class Rig {
 public:
  Rig(std::uint64_t seed, const Shape& sh) : seed_(seed), sh_(sh) {
    sync::ReplicaOptions oa;
    oa.replica_id = kIdA;
    oa.jitter = 0;
    oa.seed = seed;
    sync::ReplicaOptions ob = oa;
    ob.replica_id = kIdB;
    a_ = std::make_unique<Replica>(oa);
    b_ = std::make_unique<Replica>(ob);
    a_->set_paused(true);
    base_ = make_base_set(seed, sh.n);
    for (const Item& x : base_) {
      (void)a_->add_item(x);
      (void)b_->add_item(x);
    }
    net::TcpListener listener;
    net::TcpConn to_a = net::TcpConn::connect_loopback(listener.port(), true);
    int fd = -1;
    while ((fd = listener.accept_conn()) < 0) std::this_thread::yield();
    ea_ = std::make_unique<End>(net::TcpConn(fd));  // A's end
    eb_ = std::make_unique<End>(std::move(to_a));   // B's end
    poller_.add(ea_->conn.fd(), net::kPollIn, 0);
    poller_.add(eb_->conn.fd(), net::kPollIn, 1);
    a_->add_peer(
        kIdB,
        [this](std::vector<std::byte> f) {
          ++frames_out_;
          bytes_ += framed(f);
          ea_->conduit.send(std::move(f));
          return true;
        },
        [this] { return ea_->conduit.pending_bytes() < kWatermark; });
    b_->add_peer(
        kIdA,
        [this](std::vector<std::byte> f) {
          if (static_cast<sync::v2::FrameType>(f[0]) ==
              sync::v2::FrameType::kHello) {
            round_sid_ = sync::v2::peek_session_id(f);
          }
          bytes_ += framed(f);
          eb_->conduit.send(std::move(f));
          return true;
        },
        [this] { return eb_->conduit.pending_bytes() < kWatermark; });
    b_->on_item_applied([this](const Item& x, double) {
      if (apply_span_ < 0) apply_span_ = log_->open(kReplicaApply);
      applied_.push_back(x);
    });
    SpanLog off(false);
    PhaseResult warm;
    round(off, warm);  // warms the caches and the adaptive history
    if (warm.failed != 0) throw std::runtime_error("warm-up round failed");
  }

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  PhaseResult run_phase(bool traced, double seconds,
                        std::vector<std::vector<Span>>* spans_out) {
    PhaseResult r;
    SpanLog log(traced);
    const sync::ReplicaStats a0 = a_->stats();
    const KernelCounters k0 = KernelCounters::read();
    const std::uint64_t bytes0 = bytes_, frames0 = frames_out_;
    const std::uint64_t sys0 = syscalls_;
    untimed_cpu_s_ = 0;
    const double cpu0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
    const std::int64_t t0 = now_ns();
    const std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);

    std::atomic<bool> stop{false};
    WriterResult w;
    std::thread writer(run_writer, std::ref(*a_), std::ref(*b_),
                       std::cref(sh_), derive_seed(seed_, 7 + writer_runs_++),
                       std::ref(writer_live_), std::ref(stop), std::ref(w));
    try {
      while (now_ns() < deadline) round(log, r);
    } catch (...) {
      stop.store(true);
      writer.join();
      throw;
    }
    stop.store(true);
    writer.join();

    const std::int64_t t1 = now_ns();
    const double cpu1 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
    r.kernel = KernelCounters::read() - k0;
    r.wall_s = static_cast<double>(t1 - t0) * 1e-9;
    // Both ends run on this thread; the writer's CPU and the harness's
    // untimed bookkeeping between rounds are excluded.
    r.cpu_s = (cpu1 - cpu0) - w.cpu_s - untimed_cpu_s_;
    r.bytes = bytes_ - bytes0;
    r.frames_out = frames_out_ - frames0;
    r.syscalls = syscalls_ - sys0;
    r.protocol_errors = a_->stats().engine.failed - a0.engine.failed;
    r.ingest_us = std::move(w.latency_us);
    r.ingest_lag_ms_sum = w.lag_ms_sum;
    r.ingest_ops = w.ops;
    r.absorb(log);
    if (spans_out != nullptr) spans_out->push_back(std::move(log.spans));
    return r;
  }

 private:
  /// One timed round plus its untimed set-up, checks and drain.
  void round(SpanLog& log, PhaseResult& r) {
    log_ = &log;
    // Untimed: plant d fresh items on A.
    double u0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
    std::vector<Item> planted;
    while (planted.size() < sh_.d) {
      const Item x = make_item(kClassExtra, plant_rng_.next());
      if (a_->add_item(x)) planted.push_back(x);
    }
    applied_.clear();
    now_ += kRoundStepS;
    untimed_cpu_s_ += cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - u0;

    ++r.attempted;
    const std::uint64_t frames_before = frames_useful_;
    const std::int64_t t0 = now_ns();
    log.begin_session(++round_seq_, t0);
    in_session_ = true;
    round_end_ns_ = 0;
    {
      Scope s(log, kReplicaOpen);
      b_->tick(now_);
    }
    bool timed_out = b_->session_count() == 0;  // the round did not open
    while (!timed_out && round_end_ns_ == 0) {
      step(100);
      if (now_ns() - t0 > kRoundTimeoutNs) timed_out = true;
    }
    if (round_end_ns_ == 0) round_end_ns_ = now_ns();
    if (in_session_) {
      log.end_session(round_end_ns_);
      in_session_ = false;
    }
    // Untimed from here. A has not yet retired the round's serving session,
    // so its journal holds the churn kept for that session's snapshot (B
    // serves nothing, so B's journal stays empty).
    u0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
    r.journal_depth_sum += static_cast<double>(a_->stats().engine.journal_depth);
    ++r.journal_samples;
    untimed_cpu_s_ += cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - u0;
    if (timed_out) {
      // Past B's session deadline on the harness clock: B aborts the round
      // and tells A in-band.
      now_ += 11.0;
      b_->tick(now_);
    }

    // Untimed: drain A's rateless tail, then check and clean up.
    drain();
    u0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
    const sync::ReplicaStats bs = b_->stats();
    const bool converged = bs.rounds_converged > converged_;
    converged_ = bs.rounds_converged;
    const ItemSet plant_set(planted.begin(), planted.end());
    bool wrong = false;
    for (const Item& x : planted) wrong = wrong || !b_->contains(x);
    for (const Item& x : applied_) {
      switch (item_class(x)) {
        case kClassExtra:
          wrong = wrong || plant_set.count(x) == 0;
          break;
        case kClassWriter:
          // A writer item A held at HELLO time; if the writer has removed
          // it from A since, the pull resurrected it on B: undo that.
          if (!a_->contains(x)) (void)b_->remove_item(x);
          break;
        default:
          wrong = true;  // B already held every base item
      }
    }
    if (!converged || timed_out) {
      ++r.failed;
    } else if (wrong) {
      ++r.failed;
      ++r.wrong;
    } else {
      r.latencies_ms.push_back(static_cast<double>(round_end_ns_ - t0) * 1e-6);
      r.diff_items += applied_.size();
    }
    r.frames_useful += frames_useful_ - frames_before;
    r.frames_stale += std::exchange(frames_stale_, 0);
    for (const Item& x : planted) {
      (void)a_->remove_item(x);
      (void)b_->remove_item(x);
    }
    untimed_cpu_s_ += cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - u0;
  }

  /// Runs the loop until A has retired the round's serving session and the
  /// connection has gone quiet.
  void drain() {
    const std::int64_t limit = now_ns() + 2'000'000'000;
    int quiet = 0;
    while (quiet < 2 && now_ns() < limit) {
      const std::size_t events = step(1);
      const bool idle = events == 0 && a_->session_count() == 0 &&
                        !ea_->conduit.has_output() &&
                        !eb_->conduit.has_output();
      quiet = idle ? quiet + 1 : 0;
    }
  }

  /// Times `fn` as a `layer` span: a child of the round while it is open,
  /// a loose span between rounds.
  template <typename Fn>
  void timed(Layer layer, Fn&& fn) {
    if (in_session_) {
      Scope s(*log_, layer);
      fn();
    } else if (log_->enabled()) {
      const std::int64_t t = now_ns();
      fn();
      log_->loose(layer, t, now_ns());
    } else {
      fn();
    }
  }

  /// One event-loop iteration: flush, wait, read, deliver, tick. Returns
  /// the number of ready events.
  std::size_t step(int timeout_ms) {
    timed(kNetIo, [&] {
      flush(*ea_, 0);
      flush(*eb_, 1);
    });
    net::Poller::Event events[2];
    std::size_t n = 0;
    timed(kNetWait, [&] { n = poller_.wait(events, timeout_ms); });
    ++syscalls_;
    for (std::size_t i = 0; i < n; ++i) {
      End& e = events[i].key == 0 ? *ea_ : *eb_;
      timed(kNetIo, [&] { read_all(e); });
      while (auto frame = e.conduit.next_frame()) {
        if (frame->empty()) continue;
        if (events[i].key == 0) {
          timed(kReplicaServe, [&] { a_->deliver(kIdB, *frame, now_); });
        } else {
          deliver_to_b(*frame);
        }
      }
    }
    timed(kReplicaServe, [&] { a_->tick(now_); });
    b_->tick(now_);
    return n;
  }

  void deliver_to_b(const std::vector<std::byte>& frame) {
    const auto type = static_cast<sync::v2::FrameType>(frame[0]);
    const bool live = round_end_ns_ == 0 && in_session_ &&
                      sync::v2::peek_session_id(frame) == round_sid_;
    if (type == sync::v2::FrameType::kHelloAck ||
        type == sync::v2::FrameType::kSymbols) {
      live ? ++frames_useful_ : ++frames_stale_;
    }
    const Layer layer = type == sync::v2::FrameType::kHelloAck
                            ? kReplicaSeed
                            : kReplicaDecode;
    timed(layer, [&] {
      b_->deliver(kIdA, frame, now_);
      if (apply_span_ >= 0) log_->close(std::exchange(apply_span_, -1));
    });
    if (live && b_->session_count() == 0) {
      round_end_ns_ = now_ns();
      log_->end_session(round_end_ns_);
      in_session_ = false;
    }
  }

  void flush(End& e, std::uint64_t key) {
    std::span<const std::byte> chunks[net::TcpConn::kMaxIov];
    bool blocked = false;
    while (e.conduit.has_output()) {
      const std::size_t k = e.conduit.gather(chunks);
      const auto res = e.conn.write_gather({chunks, k});
      ++syscalls_;
      if (res.status == net::TcpConn::Io::kClosed) {
        throw std::runtime_error("replica link closed");
      }
      if (res.status == net::TcpConn::Io::kWouldBlock) {
        blocked = true;
        break;
      }
      e.conduit.consume(res.bytes);
    }
    if (blocked != e.want_out) {
      e.want_out = blocked;
      poller_.modify(e.conn.fd(),
                     net::kPollIn | (blocked ? net::kPollOut : 0u), key);
    }
  }

  void read_all(End& e) {
    for (;;) {
      const auto res = e.conn.read_some(buf_);
      ++syscalls_;
      if (res.status == net::TcpConn::Io::kClosed) {
        throw std::runtime_error("replica link closed");
      }
      if (res.status == net::TcpConn::Io::kWouldBlock) return;
      e.conduit.feed(std::span<const std::byte>(buf_.data(), res.bytes));
    }
  }

  std::uint64_t seed_;
  Shape sh_;
  std::vector<Item> base_;
  std::unique_ptr<Replica> a_;
  std::unique_ptr<Replica> b_;
  std::unique_ptr<End> ea_;
  std::unique_ptr<End> eb_;
  net::Poller poller_;
  std::array<std::byte, 64 * 1024> buf_{};
  SplitMix64 plant_rng_{derive_seed(seed_, 3)};
  std::deque<Item> writer_live_;  ///< writer items live on both replicas
  std::uint64_t writer_runs_ = 0;

  SpanLog* log_ = nullptr;
  bool in_session_ = false;
  std::int32_t apply_span_ = -1;
  std::int64_t round_end_ns_ = 0;
  std::uint64_t round_seq_ = 0;
  std::uint64_t round_sid_ = 0;
  double now_ = 0;  ///< the harness clock: fixed within a round
  std::vector<Item> applied_;
  std::uint64_t converged_ = 0;
  double untimed_cpu_s_ = 0;

  std::uint64_t bytes_ = 0;
  std::uint64_t frames_out_ = 0;
  std::uint64_t frames_useful_ = 0;
  std::uint64_t frames_stale_ = 0;
  std::uint64_t syscalls_ = 0;
};

}  // namespace

WorkloadOutput run_replica_pull(const Config& cfg) {
  const Shape sh = shape_of(cfg);
  WorkloadOutput out;
  std::unique_ptr<Rig> rig;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    rig.reset();  // tear the previous set-up down before timing the next
    const std::int64_t t0 = now_ns();
    rig = std::make_unique<Rig>(setup_seed(cfg.seed, rep), sh);
    out.info.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  out.info.transport = "loopback-tcp (harness epoll loop)";
  out.info.threads = 2;  // the event loop + the open-loop writer
  out.info.connections = 1;
  out.info.notes.push_back(
      "n=" + std::to_string(sh.n) + " d=" + std::to_string(sh.d) +
      " planted on A per round; writer " +
      std::to_string(static_cast<int>(sh.writer_ops_per_s)) +
      " ops/s on both replicas; adaptive on (ReplicaOptions default)");
  if (cfg.trace) {
    out.untraced = rig->run_phase(false, cfg.seconds / 2, nullptr);
    out.traced = rig->run_phase(true, cfg.seconds / 2, &out.span_logs);
  } else {
    out.untraced = rig->run_phase(false, cfg.seconds, nullptr);
  }
  return out;
}

}  // namespace perfbench

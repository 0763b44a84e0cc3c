// Shared plumbing for the reconciliation benchmark: clocks, the span log
// that attributes a session's wall time to the layers it called into,
// kernel TCP counters, and the result record every workload fills.
//
// Spans are recorded by the benchmark around its own calls into the
// program's public API; nothing inside the program is instrumented. A
// span log is single-writer (one per thread), so recording takes no lock.
#pragma once

#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady clock).
inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds consumed on `clock` (CLOCK_PROCESS_CPUTIME_ID or
/// CLOCK_THREAD_CPUTIME_ID).
inline double cpu_seconds(clockid_t clock) noexcept {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The layers a span can belong to. The names are the per-layer metric
/// names (minus the `_us` suffix) printed by the traced run.
enum Layer : std::uint8_t {
  kSession,          ///< root: one reconciliation as the user sees it
  kClientLoad,       ///< construct the client + add_item over the local set
  kClientHello,      ///< hellos() (adaptive probe included)
  kClientSeed,       ///< handle_frame on HELLO_ACK
  kClientDecode,     ///< handle_frame on SYMBOLS (and in-band ERROR)
  kClientApply,      ///< recovered items into the client's store
  kNetSend,          ///< SocketClient::send_frame
  kNetWait,          ///< blocked in SocketClient::recv_frame / Poller::wait
  kNetIo,            ///< harness socket read/write + FrameConduit work
  kReplicaOpen,      ///< B's tick that opens the round
  kReplicaSeed,      ///< B's deliver of HELLO_ACK
  kReplicaDecode,    ///< B's deliver of SYMBOLS (minus apply)
  kReplicaApply,     ///< first on_item_applied until B's deliver returns
  kReplicaServe,     ///< A's deliver + tick
  kLayerCount,
};

inline const char* layer_name(Layer layer) noexcept {
  static constexpr std::array<const char*, kLayerCount> kNames = {
      "session.unattributed", "sync.client.load",  "sync.client.hello",
      "sync.client.seed",     "sync.client.decode", "sync.client.apply",
      "net.send",             "net.wait",           "net.io",
      "sync.replica.open",    "sync.replica.seed",  "sync.replica.decode",
      "sync.replica.apply",   "sync.replica.serve"};
  return kNames[layer];
}

/// One closed span. `parent` indexes the same session's span list (-1 for
/// the session root).
struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t session = 0;
  std::int32_t parent = -1;
  Layer layer = kSession;
};

/// Per-thread span recorder. When disabled every call is one untaken
/// branch and no clock is read, so the untraced run pays nothing.
///
/// Spans of the open session are kept on a stack; closing the session
/// folds each span's self time (duration minus the time its children
/// cover) into per-layer totals, then keeps the spans for the chrome-trace
/// export up to a cap.
class SpanLog {
 public:
  static constexpr std::size_t kExportCap = 400000;

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  void begin_session(std::uint64_t session_id, std::int64_t start_ns) {
    if (!enabled_) return;
    session_ = session_id;
    cur_.clear();
    stack_.clear();
    max_wait_ns_ = 0;
    cur_.push_back(Span{start_ns, 0, session_id, -1, kSession});
    stack_.push_back(0);
  }

  /// Opens a child of the innermost open span; returns its index (-1 when
  /// disabled or outside a session).
  std::int32_t open(Layer layer) {
    if (!enabled_ || stack_.empty()) return -1;
    const auto idx = static_cast<std::int32_t>(cur_.size());
    cur_.push_back(Span{now_ns(), 0, session_, stack_.back(), layer});
    stack_.push_back(idx);
    return idx;
  }

  void close(std::int32_t idx) {
    if (idx < 0) return;
    Span& s = cur_[static_cast<std::size_t>(idx)];
    s.end_ns = now_ns();
    if (s.layer == kNetWait) {
      max_wait_ns_ = std::max(max_wait_ns_, s.end_ns - s.start_ns);
    }
    stack_.pop_back();
  }

  /// Closes the session root and folds the session into the totals.
  void end_session(std::int64_t end_ns) {
    if (!enabled_) return;
    cur_[0].end_ns = end_ns;
    std::vector<std::int64_t> child_ns(cur_.size(), 0);
    for (std::size_t i = 1; i < cur_.size(); ++i) {
      child_ns[static_cast<std::size_t>(cur_[i].parent)] +=
          cur_[i].end_ns - cur_[i].start_ns;
    }
    for (std::size_t i = 0; i < cur_.size(); ++i) {
      self_ns[cur_[i].layer] +=
          (cur_[i].end_ns - cur_[i].start_ns) - child_ns[i];
    }
    stack_.clear();
    ++sessions;
    if (max_wait_ns_ >= kStallNs) ++stalls;
    if (spans.size() + cur_.size() <= kExportCap) {
      spans.insert(spans.end(), cur_.begin(), cur_.end());
    } else {
      dropped += cur_.size();
    }
  }

  /// Records a span outside any session (e.g. the serving side's work on
  /// a frame of an already finished round) so it shows in the export.
  void loose(Layer layer, std::int64_t start_ns, std::int64_t end_ns) {
    if (!enabled_) return;
    loose_ns[layer] += end_ns - start_ns;
    if (spans.size() < kExportCap) {
      spans.push_back(Span{start_ns, end_ns, 0, -1, layer});
    } else {
      ++dropped;
    }
  }

  /// A net.wait of at least this long marks the session as stalled.
  static constexpr std::int64_t kStallNs = 150'000'000;

  std::array<std::int64_t, kLayerCount> self_ns{};
  std::array<std::int64_t, kLayerCount> loose_ns{};
  std::uint64_t sessions = 0;
  std::uint64_t stalls = 0;
  std::uint64_t dropped = 0;
  std::vector<Span> spans;

 private:
  bool enabled_;
  std::uint64_t session_ = 0;
  std::vector<Span> cur_;
  std::vector<std::int32_t> stack_;
  std::int64_t max_wait_ns_ = 0;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(SpanLog& log, Layer layer) : log_(log), idx_(log.open(layer)) {}
  ~Scope() { log_.close(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  std::int32_t idx_;
};

/// System-wide counters from /proc (best effort: -1 when unreadable). The
/// benchmark's traffic is loopback, but the TCP counters count every
/// socket in the network namespace, so a delta can include other traffic.
/// CPU steal is the time the hypervisor ran something else on this VM's
/// vCPUs: the usual cause of run-to-run drift on a shared machine.
struct KernelCounters {
  std::int64_t retrans_segs = -1;      ///< /proc/net/snmp Tcp RetransSegs
  std::int64_t zero_window_adv = -1;   ///< /proc/net/netstat TCPToZeroWindowAdv
  std::int64_t loss_probes = -1;       ///< /proc/net/netstat TCPLossProbes
  std::int64_t cpu_ticks = -1;         ///< /proc/stat cpu, all fields
  std::int64_t steal_ticks = -1;       ///< /proc/stat cpu, steal

  static KernelCounters read();
  [[nodiscard]] bool valid() const noexcept {
    return retrans_segs >= 0 && zero_window_adv >= 0 && loss_probes >= 0 &&
           cpu_ticks >= 0 && steal_ticks >= 0;
  }
};

KernelCounters operator-(const KernelCounters& a, const KernelCounters& b);

/// Scale and shape of one workload. The tiny scale is the self-check's.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
};

/// What one timed phase measured. Workloads fill it; main turns it into
/// the named metrics.
struct PhaseResult {
  std::vector<double> latencies_ms;  ///< completed sessions only
  double wall_s = 0;
  double cpu_s = 0;          ///< process CPU minus excluded threads
  double client_cpu_s = 0;   ///< client threads' own CPU (socket workloads)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< timeouts, in-band errors, wrong diffs
  std::uint64_t wrong = 0;   ///< wrong diffs (a subset of failed)
  std::uint64_t protocol_errors = 0;
  std::array<std::uint64_t, 5> backends{};  ///< sub-sessions per BackendId
  std::uint64_t bytes = 0;       ///< framed bytes, both directions
  std::uint64_t diff_items = 0;  ///< recovered difference items
  // Serving-side counters (SocketServerStats deltas, or the replica-pull
  // event loop's own counts).
  std::uint64_t syscalls = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t frames_useful = 0;  ///< consumed before the client finished
  std::uint64_t frames_stale = 0;   ///< for finished sessions, dropped
  double journal_depth_sum = 0;
  std::uint64_t journal_samples = 0;
  KernelCounters kernel;
  // replica-pull only: the open-loop writer.
  std::vector<double> ingest_us;
  double ingest_lag_ms_sum = 0;
  std::uint64_t ingest_ops = 0;
  // Traced phase only: merged span logs.
  std::array<std::int64_t, kLayerCount> self_ns{};
  std::array<std::int64_t, kLayerCount> loose_ns{};
  std::uint64_t traced_sessions = 0;
  std::uint64_t stalls = 0;
  std::uint64_t spans_dropped = 0;  ///< over the export cap

  void absorb(const SpanLog& log) {
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      self_ns[i] += log.self_ns[i];
      loose_ns[i] += log.loose_ns[i];
    }
    traced_sessions += log.sessions;
    stalls += log.stalls;
    spans_dropped += log.dropped;
  }
};

/// Environment facts printed with every result.
struct RunInfo {
  std::string transport;      ///< "epoll", "io_uring", "loopback-tcp"
  unsigned threads = 0;       ///< workload threads incl. the server's own
  unsigned connections = 0;
  std::vector<double> setup_s;  ///< one entry per set-up repetition
  std::vector<std::string> notes;
};

/// A workload runs its set-ups, then one untraced timed phase, and (in
/// trace mode) one traced phase after it on the same set-up.
struct WorkloadOutput {
  RunInfo info;
  PhaseResult untraced;
  PhaseResult traced;
  std::vector<std::vector<Span>> span_logs;  ///< traced phase, per thread
};

WorkloadOutput run_replica_pull(const Config& cfg);
WorkloadOutput run_socket_workload(const Config& cfg);

}  // namespace perfbench

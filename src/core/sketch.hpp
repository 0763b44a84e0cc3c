// Sketch: a materialized fixed-length prefix of the Rateless IBLT coded
// symbol sequence.
//
// Because the sequence is universal (§4.1), a length-m sketch of set A
// serves three roles at once:
//   1. a normal IBLT: subtract Sketch(B), decode, get A (-) B;
//   2. Alice's cached coded-symbol prefix for serving many peers (§2):
//      stream prefix cells until each peer decodes;
//   3. an incrementally updatable cache (§7.3): when A changes, apply the
//      inserted/deleted items in place -- O(log m) cells per item -- instead
//      of re-encoding.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/atomic_cell.hpp"
#include "core/coded_symbol.hpp"
#include "core/coding_window.hpp"
#include "core/decoder.hpp"
#include "core/mapping.hpp"
#include "core/symbol.hpp"
#include "obs/metrics.hpp"

namespace ribltx {

/// Result of decoding a difference sketch.
template <Symbol T>
struct DecodeResult {
  bool success = false;
  std::vector<HashedSymbol<T>> remote;  ///< items with net count +1 (A \ B)
  std::vector<HashedSymbol<T>> local;   ///< items with net count -1 (B \ A)
};

template <Symbol T, typename Hasher = SipHasher<T>,
          typename MappingFactory = DefaultMappingFactory>
class Sketch {
 public:
  using mapping_type = typename MappingFactory::mapping_type;

  explicit Sketch(std::size_t num_cells, Hasher hasher = Hasher{},
                  MappingFactory factory = MappingFactory{})
      : hasher_(std::move(hasher)),
        factory_(std::move(factory)),
        cells_(num_cells) {
    if (num_cells == 0) {
      throw std::invalid_argument("Sketch: need at least one cell");
    }
  }

  /// Adds an item to the encoded set. O(log m) cells touched.
  void add_symbol(const T& s) { apply(hasher_.hashed(s), Direction::kAdd); }

  /// Removes an item from the encoded set (it must have been added; the
  /// structure cannot verify this). O(log m).
  void remove_symbol(const T& s) {
    apply(hasher_.hashed(s), Direction::kRemove);
  }

  void apply(const HashedSymbol<T>& s, Direction dir) noexcept {
    mapping_type m = factory_(s.hash);
    while (m.index() < cells_.size()) {
      cells_[static_cast<std::size_t>(m.index())].apply(s, dir);
      m.advance();
    }
  }

  /// Cell-wise subtraction: *this becomes Sketch(A (-) B). Sizes must match.
  Sketch& subtract(const Sketch& other) {
    if (other.cells_.size() != cells_.size()) {
      throw std::invalid_argument("Sketch::subtract: size mismatch");
    }
    subtract_run<T>(cells_, other.cells_);
    return *this;
  }

  friend Sketch operator-(Sketch a, const Sketch& b) {
    a.subtract(b);
    return a;
  }

  /// Peels this (difference) sketch. Non-destructive. success = every cell
  /// reduced to empty; on failure remote/local hold whatever was recovered
  /// before the decoder stalled.
  [[nodiscard]] DecodeResult<T> decode() const {
    Decoder<T, Hasher, MappingFactory> dec(hasher_, factory_);
    for (const auto& c : cells_) dec.add_coded_symbol(c);
    DecodeResult<T> out;
    out.success = dec.decoded();
    out.remote.assign(dec.remote().begin(), dec.remote().end());
    out.local.assign(dec.local().begin(), dec.local().end());
    return out;
  }

  [[nodiscard]] std::size_t size() const noexcept { return cells_.size(); }

  [[nodiscard]] std::span<const CodedSymbol<T>> cells() const noexcept {
    return cells_;
  }

  /// First `k` coded symbols -- the universal stream prefix Alice sends.
  [[nodiscard]] std::span<const CodedSymbol<T>> prefix(std::size_t k) const {
    if (k > cells_.size()) {
      throw std::out_of_range("Sketch::prefix: beyond materialized cells");
    }
    return std::span<const CodedSymbol<T>>(cells_.data(), k);
  }

  [[nodiscard]] const CodedSymbol<T>& cell(std::size_t i) const {
    return cells_.at(i);
  }

  [[nodiscard]] const Hasher& hasher() const noexcept { return hasher_; }
  [[nodiscard]] const MappingFactory& mapping_factory() const noexcept {
    return factory_;
  }

 private:
  Hasher hasher_;
  MappingFactory factory_;
  std::vector<CodedSymbol<T>> cells_;
};

/// Alice's universal coded-symbol cache (§2, §7.3), the server's single
/// source of truth for the rateless stream.
///
/// Unlike a fixed-length Sketch, the cache is *lazily extended*: cells are
/// materialized in doubling blocks through CodingWindows the first time a
/// reader walks past the materialized prefix, so extension costs O(log m)
/// amortized per cell and building the cache never pays for cells nobody
/// asked for. Set churn (§7.3 linearity) updates the materialized prefix in
/// place -- O(log m) cells per inserted/removed item -- and registers the
/// item (or a cancelling tombstone) in a window so future blocks reflect
/// the change too.
///
/// Every churn op is stamped with a monotonically increasing version and
/// recorded in a journal. A Cursor opened at version v streams the
/// *snapshot* of the set as it stood at v: it reads the live (current-set)
/// cells and undoes the journal ops in (v, now] through a private overlay
/// window, so one cache serves any number of concurrently open sessions of
/// different staleness without copying cells or freezing the set. The
/// journal is kept only while cursors are alive (it empties itself when the
/// last cursor dies; SyncEngine additionally prunes it to the oldest active
/// session).
///
/// Concurrency (the multi-writer churn design):
///
/// Cell updates commute (XOR sums/checksums, signed counts -- §7.3
/// linearity), so steady-state churn is LOCK-FREE on the shared state:
/// materialized cells are AtomicCodedCells updated with relaxed
/// `fetch_xor` + release `fetch_add` (the speedex-IBLT idiom, SNIPPETS.md
/// snippet 1), and the journal + not-yet-materialized window are striped
/// into kWriterLanes per-thread lanes so appends contend only within a
/// lane. Writers never take a global lock.
///
/// The op protocol is a seqlock over two global counters: a writer
/// reserves a version from `reserved_` (inside its lane lock, so each
/// lane's journal stays version-sorted), applies its cell XORs, then
/// publishes with a release increment of `completed_`. A reader
/// (Cursor::next, cell()) waits for reserved_ == completed_ == V, reads
/// its cell with atomic word loads, and revalidates reserved_ == V -- a
/// moved counter means a writer raced the read, so the (atomically
/// loaded, never-UB) value is discarded and the read retries; after
/// kReadRetries failures it escalates to the exclusive gate below.
/// Readers are pure loads -- they never announce themselves anywhere:
/// growth retires (keeps allocated) superseded cell arrays instead of
/// freeing them, so a reader racing a grow safely finishes on the old
/// copy (doubling keeps the total footprint under 2x the live array).
///
/// The rare structural phases -- block materialization (ensure/grow),
/// compact_window(), cursor creation, last-cursor journal teardown, and
/// reader escalation -- are EXCLUSIVE: they set `barrier_` and drain the
/// per-lane active counters (an asymmetric Dekker gate: writers announce
/// themselves in `lane.active` before checking the barrier, both seq_cst,
/// so either the writer sees the barrier and parks or the gate sees the
/// writer and waits). Steady-state churn never touches the gate's mutex.
template <Symbol T, typename Hasher = SipHasher<T>,
          typename MappingFactory = DefaultMappingFactory>
class SequenceCache {
 public:
  using mapping_type = typename MappingFactory::mapping_type;

  /// First materialization block; subsequent blocks double.
  static constexpr std::size_t kInitialBlock = 64;

  /// Writer lanes: each owns a mutex, a journal stripe, and a
  /// CodingWindow stripe. Threads pick a lane by a round-robin
  /// thread-local ordinal, so a writer thread almost always has its lane
  /// to itself.
  static constexpr std::size_t kWriterLanes = 8;

  /// Seqlock retries before a reader escalates to the exclusive gate.
  static constexpr int kReadRetries = 64;

  explicit SequenceCache(Hasher hasher = Hasher{},
                         MappingFactory factory = MappingFactory{})
      : hasher_(std::move(hasher)), factory_(std::move(factory)) {}

  /// Pre-materializes exactly `num_cells` cells up front (the fixed-size
  /// working style of §7.3's 50M-cell Ethereum cache).
  explicit SequenceCache(std::size_t num_cells, Hasher hasher = Hasher{},
                         MappingFactory factory = MappingFactory{})
      : hasher_(std::move(hasher)), factory_(std::move(factory)) {
    if (num_cells > 0) {
      // Exactly the requested count (ensure() would round up to a doubling
      // block); no contention is possible in a constructor, the gate is
      // just the required entry protocol for grow_exclusive.
      ExclusiveGate gate(*this);
      grow_exclusive(num_cells);
    }
  }

  SequenceCache(const SequenceCache&) = delete;
  SequenceCache& operator=(const SequenceCache&) = delete;

  // ------------------------------------------------------------- set churn

  void add_symbol(const T& s) { churn(hasher_.hashed(s), Direction::kAdd); }
  void remove_symbol(const T& s) {
    churn(hasher_.hashed(s), Direction::kRemove);
  }
  void add_hashed(const HashedSymbol<T>& s) { churn(s, Direction::kAdd); }
  void remove_hashed(const HashedSymbol<T>& s) {
    churn(s, Direction::kRemove);
  }

  /// Applies one set change: updates every materialized cell the item maps
  /// to (O(log m) atomic XORs) and registers the item in the lane's window
  /// -- with `dir`'s sign, so a removal rides as a tombstone that exactly
  /// cancels the still-queued kAdd entry on all future cells. Journaled for
  /// snapshot cursors when any are alive. Safe from any number of threads
  /// concurrently; the steady state takes no lock beyond the (usually
  /// uncontended) per-lane mutex around the journal append.
  void churn(const HashedSymbol<T>& s, Direction dir) {
    Lane& lane = lanes_[lane_of_thread()];
    enter_shared(lane);
    // The materialized size is frozen for the whole op: growth is
    // exclusive and this thread is announced in lane.active.
    const std::size_t m = cells_size_.load(std::memory_order_acquire);
    // The cursor count is stable for this whole op: cursor creation runs
    // under the gate, which waits for this announced writer -- so a new
    // cursor's pinned version necessarily covers this op's reservation and
    // needs no journal entry for it.
    if (live_cursors_.load(std::memory_order_relaxed) > 0) {
      // Version reservation and journal append are atomic under the lane
      // mutex, so each lane's journal is version-sorted -- what lets a
      // cursor's catch-up consume a lane with a plain prefix scan.
      const std::lock_guard<std::mutex> lk(lane.mu);
      const std::uint64_t v =
          reserved_.fetch_add(1, std::memory_order_seq_cst);
      lane.journal.push_back(LaneOp{v, s, dir});
      journal_depth_.add(1);
    } else {
      reserved_.fetch_add(1, std::memory_order_seq_cst);
    }
    // Cell application strictly follows the reservation: a validated
    // seqlock reader saw reserved_ == V before reading, so any XOR it can
    // observe belongs to an op its journal catch-up accounted for.
    mapping_type m_walk = factory_(s.hash);
    AtomicCodedCell<T>* const cells = cells_.load(std::memory_order_relaxed);
    while (m_walk.index() < m) {
      cells[static_cast<std::size_t>(m_walk.index())].apply(s, dir);
      m_walk.advance();
    }
    {
      // The mapping now points at the item's first unmaterialized index;
      // the lane window folds it into every future block from there on.
      const std::lock_guard<std::mutex> lk(lane.mu);
      lane.window.add_with_mapping(s, std::move(m_walk), dir);
    }
    if (dir == Direction::kAdd) {
      set_size_.fetch_add(1, std::memory_order_relaxed);
    } else {
      // May go transiently negative under a concurrent remove/add race on
      // the same item (linearity makes the net correct); set_size() clamps.
      set_size_.fetch_sub(1, std::memory_order_relaxed);
      tombstones_.fetch_add(1, std::memory_order_relaxed);
    }
    window_entries_.fetch_add(1, std::memory_order_relaxed);
    completed_.fetch_add(1, std::memory_order_release);
    exit_shared(lane);
    maybe_compact();
  }

  // ---------------------------------------------------------- compaction

  /// Entries currently in the coding windows (live items + cancelled
  /// add/tombstone pairs that compaction will drop).
  [[nodiscard]] std::size_t window_size() const noexcept {
    return window_entries_.load(std::memory_order_relaxed);
  }

  /// Tombstone (removal) entries currently in the windows.
  [[nodiscard]] std::size_t window_tombstones() const noexcept {
    return tombstones_.load(std::memory_order_relaxed);
  }

  /// Rebuilds the coding windows from the net-live item multiset, dropping
  /// every cancelled add/tombstone pair (ROADMAP "journal compaction under
  /// sustained churn"). A cache that churns for weeks otherwise re-walks
  /// each dead pair on every future block materialization. O(n log m):
  /// each live item's mapping is re-walked past the materialized prefix.
  /// Runs under the exclusive gate -- materialized cells are already
  /// net-correct, and snapshot Cursors replay history through their own
  /// private overlays, never through these windows.
  void compact_window() {
    ExclusiveGate gate(*this);
    compact_window_exclusive();
  }

  static constexpr std::size_t kCompactMinTombstones = 64;

  // -------------------------------------------------------- observability

  /// Attaches registry histograms (either may be null). The pointers are
  /// stored relaxed-atomic so binding can happen after writer threads are
  /// already churning: a writer that misses the store simply skips one
  /// record. The referenced cells must outlive the cache's last writer.
  void bind_metrics(obs::Histogram* gate_wait_us,
                    obs::Histogram* compact_us) noexcept {
    obs_gate_wait_us_.store(gate_wait_us, std::memory_order_relaxed);
    obs_compact_us_.store(compact_us, std::memory_order_relaxed);
  }

  /// Coding-window compactions run so far (the cell, for exporting it).
  [[nodiscard]] const obs::Counter& compactions() const noexcept {
    return compactions_;
  }

  // ------------------------------------------------------------ cell reads

  /// The coded symbol at stream index `i` for the *current* set,
  /// materializing lazily (doubling blocks) as needed. Safe concurrently
  /// with churn (seqlock-validated read).
  [[nodiscard]] CodedSymbol<T> cell(std::size_t i) {
    ensure(i + 1);
    return read_cell(i);
  }

  /// Ensures cells [0, n) are materialized.
  void ensure(std::size_t n) {
    if (n <= cells_size_.load(std::memory_order_acquire)) return;
    ExclusiveGate gate(*this);
    const std::size_t old = cells_size_.load(std::memory_order_relaxed);
    if (n <= old) return;  // another thread grew while we queued
    std::size_t target = old == 0 ? kInitialBlock : old;
    while (target < n) target *= 2;
    grow_exclusive(target);
  }

  /// Snapshot copy of the materialized prefix (grows over time; never
  /// shrinks). Taken under the exclusive gate, so the copy is a consistent
  /// point-in-time state even mid-churn. Diagnostics/tests; hot paths use
  /// cell() or a Cursor.
  [[nodiscard]] std::vector<CodedSymbol<T>> cells() {
    ExclusiveGate gate(*this);
    const std::size_t n = cells_size_.load(std::memory_order_relaxed);
    std::vector<CodedSymbol<T>> out;
    out.reserve(n);
    AtomicCodedCell<T>* const cells = cells_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i) out.push_back(cells[i].load());
    return out;
  }

  [[nodiscard]] std::size_t materialized() const noexcept {
    return cells_size_.load(std::memory_order_acquire);
  }

  /// Items currently encoded net of removals (adds minus tombstones).
  [[nodiscard]] std::size_t set_size() const noexcept {
    const std::int64_t n = set_size_.load(std::memory_order_relaxed);
    return n > 0 ? static_cast<std::size_t>(n) : 0;
  }

  [[nodiscard]] const Hasher& hasher() const noexcept { return hasher_; }
  [[nodiscard]] const MappingFactory& mapping_factory() const noexcept {
    return factory_;
  }

  // --------------------------------------------------- versions & journal

  struct ChurnOp {
    HashedSymbol<T> sym;
    Direction dir = Direction::kAdd;
  };

  /// Total churn ops fully applied; the version a new Cursor snapshots.
  [[nodiscard]] std::uint64_t version() const noexcept {
    return completed_.load(std::memory_order_acquire);
  }

  /// The op that moved the cache from version `v` to `v + 1` (a lane scan;
  /// tests/diagnostics only). Throws std::out_of_range if that op was
  /// pruned or has not completed (a cursor outliving its journal window is
  /// a caller bug).
  [[nodiscard]] ChurnOp op(std::uint64_t v) const {
    for (const Lane& lane : lanes_) {
      const std::lock_guard<std::mutex> lk(lane.mu);
      // Per-lane journals are version-sorted: binary search.
      std::size_t lo = 0, hi = lane.journal.size();
      while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if (lane.journal[mid].version < v) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo < lane.journal.size() && lane.journal[lo].version == v) {
        return ChurnOp{lane.journal[lo].sym, lane.journal[lo].dir};
      }
    }
    throw std::out_of_range("SequenceCache::op: journal entry pruned");
  }

  /// Drops journal entries below `min_version` (no live cursor may still
  /// need them). SyncEngine calls this with the oldest active session's
  /// position; the last Cursor's destructor empties the journal outright.
  /// Safe concurrently with churn and cursor reads (per-lane locking).
  void prune_journal(std::uint64_t min_version) {
    std::size_t erased = 0;
    for (Lane& lane : lanes_) {
      const std::lock_guard<std::mutex> lk(lane.mu);
      auto it = lane.journal.begin();
      while (it != lane.journal.end() && it->version < min_version) ++it;
      const auto n = static_cast<std::size_t>(it - lane.journal.begin());
      if (n != 0) {
        lane.pruned += n;
        lane.journal.erase(lane.journal.begin(), it);
        erased += n;
      }
    }
    if (erased != 0) {
      journal_depth_.add(-static_cast<std::int64_t>(erased));
    }
  }

  /// Entries retained across all lane journals.
  [[nodiscard]] std::size_t journal_size() const noexcept {
    return static_cast<std::size_t>(journal_depth_.load());
  }

  /// The entry counter itself, for exporting it (MetricsRegistry::link).
  [[nodiscard]] const obs::Gauge& journal_depth() const noexcept {
    return journal_depth_;
  }

  [[nodiscard]] std::size_t live_cursor_count() const noexcept {
    return live_cursors_.load(std::memory_order_relaxed);
  }

  // --------------------------------------------------------------- Cursor

  /// Snapshot-consistent reader: streams the coded-symbol sequence of the
  /// set as it stood when the cursor was created, while the cache keeps
  /// absorbing churn and serving other cursors. Cells already handed out
  /// are never re-read, so churn can never mutate a cell out from under a
  /// peer mid-stream: per cell the cursor copies the live value (seqlock-
  /// validated against in-flight writers) and undoes the ops its snapshot
  /// must not see (each op registered once, O(log m), through a private
  /// overlay CodingWindow holding the *inverse* ops, gathered from the
  /// per-lane journals).
  ///
  /// Creation is exclusive (it pins a version with no op in flight); next()
  /// is concurrent with churn. One cursor is single-reader; distinct
  /// cursors may run on distinct threads.
  class Cursor {
   public:
    Cursor() = default;

    explicit Cursor(std::shared_ptr<SequenceCache> cache)
        : cache_(std::move(cache)) {
      ExclusiveGate gate(*cache_);
      // Drained: reserved_ == completed_, and every journal entry < V is
      // in place, so per-lane positions pin the snapshot exactly.
      version_ = cache_->reserved_.load(std::memory_order_relaxed);
      seen_ = version_;
      for (std::size_t k = 0; k < kWriterLanes; ++k) {
        Lane& lane = cache_->lanes_[k];
        pos_[k] = lane.pruned + lane.journal.size();
      }
      cache_->live_cursors_.fetch_add(1, std::memory_order_relaxed);
    }

    Cursor(const Cursor&) = delete;
    Cursor& operator=(const Cursor&) = delete;

    Cursor(Cursor&& other) noexcept
        : cache_(std::move(other.cache_)),
          overlay_(std::move(other.overlay_)),
          index_(other.index_),
          version_(other.version_),
          seen_(other.seen_),
          pos_(other.pos_) {
      other.cache_.reset();
    }

    Cursor& operator=(Cursor&& other) noexcept {
      if (this != &other) {
        release();
        cache_ = std::move(other.cache_);
        overlay_ = std::move(other.overlay_);
        index_ = other.index_;
        version_ = other.version_;
        seen_ = other.seen_;
        pos_ = other.pos_;
        other.cache_.reset();
      }
      return *this;
    }

    ~Cursor() { release(); }

    /// The next coded symbol of the snapshot's stream.
    [[nodiscard]] CodedSymbol<T> next() {
      const auto i = static_cast<std::size_t>(index_);
      cache_->ensure(i + 1);
      CodedSymbol<T> cell;
      for (int attempt = 0;; ++attempt) {
        if (attempt >= kReadRetries) {
          // Writer storm: take the gate and read at a quiescent point.
          ExclusiveGate gate(*cache_);
          catch_up(cache_->reserved_.load(std::memory_order_relaxed));
          cell = cache_->cells_.load(std::memory_order_relaxed)[i].load();
          break;
        }
        const std::uint64_t v =
            cache_->reserved_.load(std::memory_order_seq_cst);
        if (cache_->completed_.load(std::memory_order_seq_cst) != v) {
          std::this_thread::yield();  // an op is mid-flight; let it land
          continue;
        }
        catch_up(v);
        // Load-only read: the retire list keeps any superseded array
        // alive, and the version re-check rejects a racing writer.
        cell = cache_->cells_.load(std::memory_order_acquire)[i].load();
        if (cache_->reserved_.load(std::memory_order_seq_cst) == v) {
          break;  // nothing started during the read: the value is exact
        }
      }
      overlay_.apply_at(index_, cell, Direction::kAdd);
      ++index_;
      return cell;
    }

    /// Stream index of the next coded symbol (== symbols already read).
    [[nodiscard]] std::uint64_t index() const noexcept { return index_; }

    /// The cache version this cursor's snapshot pinned.
    [[nodiscard]] std::uint64_t snapshot_version() const noexcept {
      return version_;
    }

    /// Oldest journal entry this cursor may still read (pruning floor).
    [[nodiscard]] std::uint64_t journal_position() const noexcept {
      return seen_;
    }

    [[nodiscard]] bool attached() const noexcept { return cache_ != nullptr; }

   private:
    /// Registers the inverse of every journal op in (seen_, target) into
    /// the overlay, mapping pre-walked past the cells already handed out --
    /// those were emitted before the op existed and are already consistent.
    /// Precondition: every op below `target` has fully completed (the
    /// seqlock validated reserved_ == completed_ == target, or the caller
    /// holds the gate), so each version-sorted lane yields its share with
    /// a prefix scan from this cursor's saved position.
    void catch_up(std::uint64_t target) {
      if (seen_ >= target) return;
      for (std::size_t k = 0; k < kWriterLanes; ++k) {
        Lane& lane = cache_->lanes_[k];
        const std::lock_guard<std::mutex> lk(lane.mu);
        std::size_t idx = pos_[k] > lane.pruned
                              ? static_cast<std::size_t>(pos_[k] - lane.pruned)
                              : 0;
        while (idx < lane.journal.size() &&
               lane.journal[idx].version < target) {
          const LaneOp& op = lane.journal[idx];
          mapping_type m = cache_->factory_(op.sym.hash);
          while (m.index() < index_) m.advance();
          overlay_.add_with_mapping(op.sym, std::move(m), invert(op.dir));
          ++idx;
        }
        pos_[k] = lane.pruned + idx;
      }
      seen_ = target;
    }

    void release() noexcept {
      if (!cache_) return;
      if (cache_->live_cursors_.fetch_sub(1, std::memory_order_acq_rel) ==
          1) {
        // Nobody left to replay history for; drop it. The gate excludes
        // in-flight writers (whose journal check raced our decrement) and
        // re-checks against a concurrently created cursor.
        ExclusiveGate gate(*cache_);
        if (cache_->live_cursors_.load(std::memory_order_relaxed) == 0) {
          for (Lane& lane : cache_->lanes_) {
            lane.pruned += lane.journal.size();
            lane.journal.clear();
          }
          cache_->journal_depth_.set(0);
        }
      }
      cache_.reset();
    }

    std::shared_ptr<SequenceCache> cache_;
    CodingWindow<T, mapping_type> overlay_;  ///< inverse ops since snapshot
    std::uint64_t index_ = 0;
    std::uint64_t version_ = 0;
    std::uint64_t seen_ = 0;
    /// Per-lane journal positions (absolute: lane.pruned + vector index)
    /// up to which this cursor has consumed entries.
    std::array<std::uint64_t, kWriterLanes> pos_{};
  };

 private:
  friend class Cursor;

  struct LaneOp {
    std::uint64_t version = 0;
    HashedSymbol<T> sym;
    Direction dir = Direction::kAdd;
  };

  /// One writer lane: journal stripe + window stripe behind a lane mutex,
  /// plus this lane's share of the shared/exclusive gate. Cache-line
  /// aligned so lanes do not false-share their active counters.
  struct alignas(64) Lane {
    mutable std::mutex mu;
    std::atomic<std::size_t> active{0};  ///< threads inside a shared section
    std::vector<LaneOp> journal;         ///< version-sorted (reserve under mu)
    std::uint64_t pruned = 0;            ///< entries ever erased at the front
    CodingWindow<T, mapping_type> window;  ///< items not yet folded past m
  };

  /// Round-robin thread->lane assignment (stable per thread).
  [[nodiscard]] static std::size_t lane_of_thread() noexcept {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t ordinal =
        next.fetch_add(1, std::memory_order_relaxed);
    return ordinal % kWriterLanes;
  }

  /// Shared-side entry of the asymmetric gate: announce in the lane's
  /// active counter first, THEN check the barrier (both seq_cst -- the
  /// Dekker pattern). Either this thread sees the barrier and backs out to
  /// park on the gate mutex, or the exclusive side's drain sees the
  /// announcement and waits.
  void enter_shared(Lane& lane) {
    for (;;) {
      lane.active.fetch_add(1, std::memory_order_seq_cst);
      if (!barrier_.load(std::memory_order_seq_cst)) return;
      lane.active.fetch_sub(1, std::memory_order_seq_cst);
      // Park until the exclusive phase releases the mutex, then retry.
      const std::lock_guard<std::mutex> park(exclusive_mu_);
    }
  }

  void exit_shared(Lane& lane) noexcept {
    lane.active.fetch_sub(1, std::memory_order_seq_cst);
  }

  /// Exclusive phase: holds the gate mutex (serializing exclusive phases),
  /// raises the barrier, and drains every lane's shared sections. On
  /// destruction the barrier drops and parked writers re-enter.
  class ExclusiveGate {
   public:
    explicit ExclusiveGate(SequenceCache& cache)
        : cache_(cache), lock_(cache.exclusive_mu_) {
      // Gate-wait covers barrier raise + lane drain, but not the mutex
      // queue (the member initializer above): the drain is the part the
      // Dekker gate adds over a plain lock, which is what the histogram
      // is sized to expose. Sampled 1-in-8: the gate sits on the
      // session-open path, where unconditional clock reads would be a
      // measurable fraction of a small session's budget.
      obs::Histogram* const h =
          (cache_.obs_gate_sample_.fetch_add(1, std::memory_order_relaxed) &
           7) == 0
              ? cache_.obs_gate_wait_us_.load(std::memory_order_relaxed)
              : nullptr;
      const std::uint64_t t0 = h != nullptr ? steady_us() : 0;
      cache_.barrier_.store(true, std::memory_order_seq_cst);
      for (Lane& lane : cache_.lanes_) {
        while (lane.active.load(std::memory_order_seq_cst) != 0) {
          std::this_thread::yield();
        }
      }
      if (h != nullptr) h->record(steady_us() - t0);
    }

    ~ExclusiveGate() {
      cache_.barrier_.store(false, std::memory_order_seq_cst);
    }

    ExclusiveGate(const ExclusiveGate&) = delete;
    ExclusiveGate& operator=(const ExclusiveGate&) = delete;

   private:
    SequenceCache& cache_;
    std::lock_guard<std::mutex> lock_;
  };

  /// Seqlock-validated read of one materialized cell (bounds unchecked;
  /// callers ensure()d). Entirely load-only in the common case -- readers
  /// never announce themselves: the retire list keeps superseded arrays
  /// alive, so a reader racing a grow just reads the old copy, and the
  /// version-pair validation catches any racing writer. Only a read that
  /// loses the race kReadRetries times in a row escalates to the gate
  /// (quiescing writers) rather than spinning unboundedly.
  [[nodiscard]] CodedSymbol<T> read_cell(std::size_t i) {
    for (int attempt = 0; attempt < kReadRetries; ++attempt) {
      const std::uint64_t v = reserved_.load(std::memory_order_seq_cst);
      if (completed_.load(std::memory_order_seq_cst) != v) {
        std::this_thread::yield();
        continue;
      }
      const CodedSymbol<T> out =
          cells_.load(std::memory_order_acquire)[i].load();
      if (reserved_.load(std::memory_order_seq_cst) == v) return out;
    }
    ExclusiveGate gate(*this);
    return cells_.load(std::memory_order_relaxed)[i].load();
  }

  /// Materializes cells [old, target) by draining every lane window
  /// through them in stream order. Caller holds the gate (no writer can
  /// observe the swap mid-way). The superseded array is *retired*, not
  /// freed: un-announced readers may still be loading from it. Doubling
  /// growth makes all retired arrays together smaller than the live one,
  /// so the cache never holds more than 2x the final footprint.
  void grow_exclusive(std::size_t target) {
    const std::size_t old = cells_size_.load(std::memory_order_relaxed);
    auto grown = std::make_unique<AtomicCodedCell<T>[]>(target);
    AtomicCodedCell<T>* const prev = cells_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < old; ++i) {
      grown[i].store(prev[i].load());
    }
    for (std::size_t i = old; i < target; ++i) {
      CodedSymbol<T> cell;
      for (Lane& lane : lanes_) {
        lane.window.apply_at(i, cell, Direction::kAdd);
      }
      grown[i].store(cell);
    }
    // Pointer first, size second (both release): a reader that
    // acquire-loads the new size is therefore guaranteed to see the new
    // pointer; one that sees the old size reads old indices, valid in
    // either array.
    cells_.store(grown.get(), std::memory_order_release);
    arrays_.push_back(std::move(grown));
    cells_size_.store(target, std::memory_order_release);
  }

  /// Compacts once tombstones and their cancelled adds make up at least
  /// half the window (2t >= live, i.e. 4t >= entries), with a floor so
  /// small windows never bother and a *multiplicative* growth cooldown
  /// (the window must outgrow its post-compaction size by half) so
  /// non-cancellable tombstones -- removals of never-added items, which a
  /// rebuild cannot drop -- keep the amortized-doubling argument instead
  /// of re-triggering a full O(n log m) rebuild every few ops. The
  /// threshold test reads the atomic counters racily (cheap, per-op); a
  /// hit re-checks under the gate, so concurrent writers cannot trigger
  /// back-to-back rebuilds off the same stale counters.
  void maybe_compact() {
    if (!compact_eligible()) return;
    ExclusiveGate gate(*this);
    if (compact_eligible()) compact_window_exclusive();
  }

  [[nodiscard]] bool compact_eligible() const noexcept {
    const std::size_t t = tombstones_.load(std::memory_order_relaxed);
    const std::size_t w = window_entries_.load(std::memory_order_relaxed);
    const std::size_t at =
        window_size_at_compact_.load(std::memory_order_relaxed);
    const std::size_t cooldown =
        at / 2 > kCompactMinTombstones ? at / 2 : kCompactMinTombstones;
    return t >= kCompactMinTombstones && 4 * t >= w && w >= at + cooldown;
  }

  [[nodiscard]] static std::uint64_t steady_us() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// Caller holds the gate.
  void compact_window_exclusive() {
    obs::Histogram* const obs_dur =
        obs_compact_us_.load(std::memory_order_relaxed);
    const std::uint64_t obs_t0 = obs_dur != nullptr ? steady_us() : 0;
    // Net count per distinct symbol across every lane window; bucketed by
    // hash with symbol-equality confirmation so hash collisions cannot
    // merge distinct items.
    std::unordered_map<std::uint64_t,
                       std::vector<std::pair<HashedSymbol<T>, std::int64_t>>>
        net;
    net.reserve(window_entries_.load(std::memory_order_relaxed));
    for (Lane& lane : lanes_) {
      lane.window.for_each_entry([&](const HashedSymbol<T>& sym,
                                     Direction dir, std::uint64_t) {
        auto& bucket = net[sym.hash];
        for (auto& [existing, count] : bucket) {
          if (existing.symbol == sym.symbol) {
            count += static_cast<std::int64_t>(dir);
            return;
          }
        }
        bucket.emplace_back(sym, static_cast<std::int64_t>(dir));
      });
    }
    const std::size_t m = cells_size_.load(std::memory_order_relaxed);
    CodingWindow<T, mapping_type> rebuilt;
    std::size_t rebuilt_tombstones = 0;
    std::size_t rebuilt_entries = 0;
    for (const auto& [hash, bucket] : net) {
      for (const auto& [sym, count] : bucket) {
        // A set sees net 0 (dead pair) or +1 (live); the general loop
        // preserves exact linearity for any multiset history (a
        // net-negative symbol -- removal of a never-added item -- stays a
        // tombstone and keeps counting as one).
        const Direction dir =
            count > 0 ? Direction::kAdd : Direction::kRemove;
        for (std::int64_t c = count < 0 ? -count : count; c > 0; --c) {
          mapping_type walk = factory_(sym.hash);
          while (walk.index() < m) walk.advance();
          rebuilt.add_with_mapping(sym, walk, dir);
          ++rebuilt_entries;
          if (dir == Direction::kRemove) ++rebuilt_tombstones;
        }
      }
    }
    // The merged live set lands in lane 0's window; the other stripes
    // restart empty (apply_at on an empty window is a cheap no-op).
    for (Lane& lane : lanes_) lane.window.clear();
    lanes_[0].window = std::move(rebuilt);
    tombstones_.store(rebuilt_tombstones, std::memory_order_relaxed);
    window_entries_.store(rebuilt_entries, std::memory_order_relaxed);
    window_size_at_compact_.store(rebuilt_entries,
                                  std::memory_order_relaxed);
    if (obs_dur != nullptr) obs_dur->record(steady_us() - obs_t0);
    compactions_.inc();
  }

  Hasher hasher_;
  MappingFactory factory_;
  std::array<Lane, kWriterLanes> lanes_;
  /// Materialized cells of the live set. The raw pointer is what readers
  /// load; every array ever published lives in arrays_ (the newest entry
  /// is the current one) until destruction, so un-announced readers can
  /// never dangle across a grow.
  std::atomic<AtomicCodedCell<T>*> cells_{nullptr};
  std::vector<std::unique_ptr<AtomicCodedCell<T>[]>> arrays_;
  std::atomic<std::size_t> cells_size_{0};
  std::atomic<std::uint64_t> reserved_{0};   ///< versions handed to writers
  std::atomic<std::uint64_t> completed_{0};  ///< versions fully applied
  std::atomic<std::int64_t> set_size_{0};
  std::atomic<std::size_t> tombstones_{0};  ///< removal entries in windows
  std::atomic<std::size_t> window_entries_{0};
  obs::Gauge journal_depth_;  ///< entries across all lane journals
  obs::Counter compactions_;  ///< coding-window rebuilds run
  std::atomic<std::size_t> window_size_at_compact_{0};  ///< rebuild cooldown
  std::atomic<std::size_t> live_cursors_{0};
  std::atomic<bool> barrier_{false};  ///< an exclusive phase wants the cache
  std::mutex exclusive_mu_;
  /// Registry taps (null = untapped); see bind_metrics().
  std::atomic<obs::Histogram*> obs_gate_wait_us_{nullptr};
  std::atomic<std::uint64_t> obs_gate_sample_{0};  ///< 1-in-8 phase
  std::atomic<obs::Histogram*> obs_compact_us_{nullptr};
};

}  // namespace ribltx

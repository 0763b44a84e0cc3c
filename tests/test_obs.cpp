// Tests for the observability substrate (src/obs/): log-linear histogram
// geometry and quantile error bounds, snapshot merge algebra, registry
// dedup/kind rules and link() sums, concurrent record-during-scrape and
// link/unlink-during-scrape (the TSan job hammers these), the session
// tracer's ring semantics, the engine/replica instrumentation wiring, and
// the one-source accounting contract: every stats view equals the
// registry's linked cells and a walk of the engine's live table.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/prom.hpp"
#include "obs/trace.hpp"
#include "sync/replica.hpp"
#include "sync/sharded.hpp"
#include "testutil.hpp"

namespace ribltx::obs {
namespace {

using testing::make_set_pair;
using Item8 = U64Symbol;

// ------------------------------------------------------- bucket geometry

TEST(Histogram, UnitBucketsAreExactBelowSub) {
  for (std::uint64_t v = 0; v < HistogramLayout::kSub; ++v) {
    ASSERT_EQ(HistogramLayout::bucket_index(v), v);
    ASSERT_EQ(HistogramLayout::bucket_lower(v), v);
    ASSERT_EQ(HistogramLayout::bucket_upper(v), v + 1);
  }
}

TEST(Histogram, BucketBoundsContainTheirValues) {
  SplitMix64 rng(7);
  std::vector<std::uint64_t> probes = {
      32,  33,  63,  64,  65,  1000,  4096,  4097,  (1ull << 32) - 1,
      1ull << 32, (1ull << 32) + 1, ~0ull, ~0ull - 1, 1ull << 62};
  for (int i = 0; i < 2000; ++i) {
    // Random values spread across octaves (shifted so all widths hit).
    probes.push_back(rng.next() >> (rng.next() % 60));
  }
  for (const std::uint64_t v : probes) {
    const std::size_t idx = HistogramLayout::bucket_index(v);
    ASSERT_LT(idx, HistogramLayout::kBucketCount);
    const std::uint64_t lo = HistogramLayout::bucket_lower(idx);
    const std::uint64_t hi = HistogramLayout::bucket_upper(idx);
    ASSERT_LE(lo, v) << "v=" << v;
    // Upper bound is exclusive except at the top, where it clamps to the
    // u64 maximum (inclusive by necessity).
    if (hi != ~0ull) {
      ASSERT_GT(hi, v) << "v=" << v;
    } else {
      ASSERT_GE(hi, v) << "v=" << v;
    }
    // Log-linear width bound: width <= lower/kSub for v >= kSub (the
    // relative-error contract every quantile consumer leans on).
    if (v >= HistogramLayout::kSub && idx + 1 < HistogramLayout::kBucketCount) {
      ASSERT_LE(hi - lo, lo / HistogramLayout::kSub) << "v=" << v;
    }
  }
}

TEST(Histogram, BucketIndexIsMonotone) {
  // Monotonicity across every boundary value (lower(i) for all i).
  std::size_t prev = 0;
  for (std::size_t i = 0; i < HistogramLayout::kBucketCount; ++i) {
    const std::uint64_t lo = HistogramLayout::bucket_lower(i);
    const std::size_t idx = HistogramLayout::bucket_index(lo);
    ASSERT_EQ(idx, i) << "lower(" << i << ")=" << lo;
    ASSERT_GE(idx, prev);
    prev = idx;
  }
}

// ------------------------------------------------------- merge algebra

TEST(Histogram, MergeOfSnapshotsEqualsSnapshotOfMerge) {
  SplitMix64 rng(42);
  Histogram a;
  Histogram b;
  Histogram both;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t va = rng.next() >> (rng.next() % 50);
    const std::uint64_t vb = rng.next() >> (rng.next() % 50);
    a.record(va);
    b.record(vb);
    both.record(va);
    both.record(vb);
  }
  HistogramSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  const HistogramSnapshot direct = both.snapshot();
  ASSERT_EQ(merged.count, direct.count);
  ASSERT_EQ(merged.sum, direct.sum);
  ASSERT_EQ(merged.buckets, direct.buckets);
  ASSERT_EQ(merged.bucket_total(), direct.bucket_total());
  for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    ASSERT_EQ(merged.quantile(q), direct.quantile(q));
  }
}

// --------------------------------------------------- quantile error bound

TEST(Histogram, QuantileMatchesSortedVectorWithinBucketWidth) {
  SplitMix64 rng(1234);
  for (int trial = 0; trial < 8; ++trial) {
    Histogram h;
    std::vector<std::uint64_t> samples;
    const int n = 100 + static_cast<int>(rng.next() % 5000);
    for (int i = 0; i < n; ++i) {
      // Mixed regimes: small exact values and large bucketed ones.
      const std::uint64_t v = (rng.next() % 2) ? rng.next() % 64
                                               : rng.next() >> (rng.next() % 40);
      samples.push_back(v);
      h.record(v);
    }
    std::sort(samples.begin(), samples.end());
    const HistogramSnapshot s = h.snapshot();
    for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
      const auto rank = static_cast<std::size_t>(
          q * static_cast<double>(samples.size() - 1) + 0.5);
      const std::uint64_t exact = samples[rank];
      const double est = s.quantile(q);
      // The estimate lives in the same bucket as the exact rank value:
      // error is at most one bucket width = exact/kSub (plus the unit
      // slop of the midpoint convention).
      const double bound =
          static_cast<double>(exact) / HistogramLayout::kSub + 1.0;
      const double err = est > static_cast<double>(exact)
                             ? est - static_cast<double>(exact)
                             : static_cast<double>(exact) - est;
      ASSERT_LE(err, bound) << "q=" << q << " n=" << samples.size()
                            << " exact=" << exact << " est=" << est;
    }
  }
}

// -------------------------------------------- concurrency (TSan target)

TEST(Histogram, ConcurrentRecordDuringScrapeIsCoherent) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  Histogram h;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&h, &go, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      SplitMix64 rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kPerThread; ++i) {
        h.record(rng.next() >> (rng.next() % 48));
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Scrape while the writers hammer: every intermediate snapshot must be
  // internally monotone (bucket_total never exceeds a later total).
  std::uint64_t last_total = 0;
  for (int i = 0; i < 50; ++i) {
    const HistogramSnapshot s = h.snapshot();
    const std::uint64_t total = s.bucket_total();
    ASSERT_GE(total, last_total);
    ASSERT_LE(total, static_cast<std::uint64_t>(kThreads) * kPerThread);
    (void)s.quantile(0.99);  // must not crash/underflow mid-race
    last_total = total;
  }
  for (auto& th : writers) th.join();
  const HistogramSnapshot final_snap = h.snapshot();
  ASSERT_EQ(final_snap.count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  ASSERT_EQ(final_snap.bucket_total(), final_snap.count);
}

TEST(Registry, ConcurrentRegistrationAndScrape) {
  MetricsRegistry reg;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  std::vector<Counter> cells(4);
  std::vector<std::optional<MetricsRegistry::Link>> links(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&reg, &go, &cells, &links, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      Counter& c = cells[static_cast<std::size_t>(t)];
      links[static_cast<std::size_t>(t)].emplace(
          reg.link("obs_test_shared_total", "one key", {}, c));
      Histogram& h = reg.histogram(
          "obs_test_lat_us", "latency",
          {{"worker", std::to_string(t)}});
      for (int i = 0; i < 5000; ++i) {
        c.inc();
        h.record(static_cast<std::uint64_t>(i));
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (int i = 0; i < 20; ++i) (void)reg.snapshot();
  for (auto& th : threads) th.join();
  const MetricsSnapshot s = reg.snapshot();
  const MetricsSnapshot::Series* shared =
      s.find_series("obs_test_shared_total");
  ASSERT_NE(shared, nullptr);
  ASSERT_EQ(shared->counter, 4u * 5000u);  // four cells summed, one key
  const MetricsSnapshot::Family* lat = s.find("obs_test_lat_us");
  ASSERT_NE(lat, nullptr);
  ASSERT_EQ(lat->series.size(), 4u);  // distinct labels -> distinct cells
}

// ----------------------------------------------------------- registry

TEST(Registry, DedupesOnNameAndSortedLabels) {
  MetricsRegistry reg;
  Histogram& a = reg.histogram("x_us", "x", {{"b", "2"}, {"a", "1"}});
  Histogram& b = reg.histogram("x_us", "x", {{"a", "1"}, {"b", "2"}});
  ASSERT_EQ(&a, &b);  // label order is identity-blind
  Histogram& c = reg.histogram("x_us", "x", {{"a", "1"}});
  ASSERT_NE(&a, &c);
  // Links land in one series the same way.
  Counter one, two;
  one.inc(1);
  two.inc(2);
  const MetricsRegistry::Link l1 =
      reg.link("x_total", "x", {{"b", "2"}, {"a", "1"}}, one);
  const MetricsRegistry::Link l2 =
      reg.link("x_total", "x", {{"a", "1"}, {"b", "2"}}, two);
  const MetricsSnapshot s = reg.snapshot();
  ASSERT_EQ(s.find("x_total")->series.size(), 1u);
  ASSERT_EQ(s.find_series("x_total")->counter, 3u);
}

TEST(Registry, RejectsKindMismatchAndBadNames) {
  MetricsRegistry reg;
  const Counter y;
  const MetricsRegistry::Link l = reg.link("y_total", "y", {}, y);
  ASSERT_THROW((void)reg.link("y_total", "y", {}, Gauge{}),
               std::invalid_argument);
  ASSERT_THROW((void)reg.histogram("y_total", "y"), std::invalid_argument);
  ASSERT_THROW((void)reg.link("9bad", "bad", {}, y), std::invalid_argument);
  ASSERT_THROW((void)reg.histogram("has space", "bad"),
               std::invalid_argument);
  ASSERT_THROW((void)reg.link("ok_total", "ok", {{"9bad", "v"}}, y),
               std::invalid_argument);
}

TEST(Registry, SnapshotCarriesLinkedAndHistogramValues) {
  MetricsRegistry reg;
  reg.histogram("lat_us", "latency").record(100);
  Counter linked;
  linked.inc(11);
  Gauge level;
  level.set(-3);
  const MetricsRegistry::Link a =
      reg.link("linked_total", "component-owned", {{"tier", "server"}},
               linked);
  const MetricsRegistry::Link b =
      reg.link("linked_level", "component-owned gauge", {}, level);
  const MetricsSnapshot s = reg.snapshot();
  ASSERT_EQ(s.find_series("lat_us")->hist.bucket_total(), 1u);
  ASSERT_EQ(s.find_series("linked_total", {{"tier", "server"}})->counter,
            11u);
  ASSERT_EQ(s.find_series("linked_level")->gauge, -3);
  // Both renderers accept the snapshot; the text form lints.
  const std::string text = prometheus_text(s);
  ASSERT_EQ(lint_prometheus(text), "");
  const std::string json = json_text(s);
  ASSERT_NE(json.find("\"linked_total\""), std::string::npos);
  ASSERT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(Registry, LinkedCellsSumPerKeyAndLeaveWithTheirHandle) {
  MetricsRegistry reg;
  auto one = std::make_unique<Counter>();
  auto two = std::make_unique<Counter>();
  one->inc(3);
  two->inc(4);
  auto l1 = std::make_unique<MetricsRegistry::Link>(
      reg.link("sum_total", "summed", {{"k", "v"}}, *one));
  MetricsRegistry::Link l2 = reg.link("sum_total", "summed", {{"k", "v"}}, *two);
  ASSERT_EQ(reg.snapshot().find_series("sum_total")->counter, 7u);
  // Dropping a handle removes exactly that cell's share, and the cell may
  // then die without the registry ever reading it again.
  l1.reset();
  one.reset();
  ASSERT_EQ(reg.snapshot().find_series("sum_total")->counter, 4u);
  // Moving a handle keeps one link; with no cell left the series is gone.
  {
    const MetricsRegistry::Link moved = std::move(l2);
    ASSERT_EQ(reg.snapshot().find_series("sum_total")->counter, 4u);
  }
  two.reset();
  ASSERT_EQ(reg.snapshot().find("sum_total"), nullptr);
}

TEST(Registry, HistogramLeBoundsAreInclusive) {
  // Regression: `le` was rendered as bucket_upper (one PAST the largest
  // contained value), so an observation equal to a rendered boundary was
  // excluded from its own cumulative bucket. A unit-width bucket holding
  // value 6 must render le="6" and count 6 itself.
  MetricsRegistry reg;
  Histogram& h = reg.histogram("v", "values");
  h.record(6);
  h.record(64);  // bucket [64, 66): largest contained value is 65
  const std::string text = prometheus_text(reg.snapshot());
  ASSERT_NE(text.find("v_bucket{le=\"6\"} 1\n"), std::string::npos) << text;
  ASSERT_NE(text.find("v_bucket{le=\"65\"} 2\n"), std::string::npos) << text;
  ASSERT_NE(text.find("v_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
  ASSERT_EQ(lint_prometheus(text), "");
}

// ------------------------------------------------------------- tracer

TEST(Tracer, RecordsAndExportsLifecycleEvents) {
  Tracer tracer(64);
  TraceEvent ev;
  ev.ts_s = 1.5;
  ev.session_id = 42;
  ev.kind = TraceKind::kOpen;
  ev.backend = 1;
  ev.a = 10;
  ev.b = 4;
  tracer.record(ev);
  ev.kind = TraceKind::kDone;
  ev.ts_s = 2.0;
  tracer.record(ev);
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  ASSERT_EQ(events[0].session_id, 42u);
  ASSERT_EQ(events[0].kind, TraceKind::kOpen);
  ASSERT_EQ(events[1].kind, TraceKind::kDone);
  const std::string json = tracer.chrome_json();
  ASSERT_NE(json.find("\"traceEvents\""), std::string::npos);
  ASSERT_NE(json.find("session_open"), std::string::npos);
  ASSERT_NE(json.find("\"sid\":42"), std::string::npos);
}

TEST(Tracer, RingRetainsNewestAndMergesThreads) {
  constexpr std::size_t kCap = 128;
  Tracer tracer(kCap);
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&tracer, t] {
      for (std::uint64_t i = 0; i < 1000; ++i) {
        TraceEvent ev;
        ev.session_id = static_cast<std::uint64_t>(t) * 10000 + i;
        ev.kind = TraceKind::kRound;
        tracer.record(ev);
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(tracer.ring_count(), 3u);
  const std::vector<TraceEvent> events = tracer.events();
  // Newest kCap - 1 per ring survive: the exporter always sacrifices one
  // slot to cover a possibly in-flight record (it cannot tell a
  // quiescent ring from one with a store racing the head bump).
  ASSERT_EQ(events.size(), 3u * (kCap - 1));
  // Per ring the retained window is the newest events in order.
  for (int t = 0; t < 3; ++t) {
    std::vector<std::uint64_t> ids;
    for (const TraceEvent& ev : events) {
      if (ev.session_id / 10000 == static_cast<std::uint64_t>(t)) {
        ids.push_back(ev.session_id % 10000);
      }
    }
    ASSERT_EQ(ids.size(), kCap - 1);
    ASSERT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    ASSERT_EQ(ids.back(), 999u);
  }
}

TEST(Tracer, SequentialTracersAtTheSameAddressDoNotAlias) {
  // Regression: the per-thread ring cache was keyed on the tracer's
  // address, so a tracer constructed where a destroyed one lived reused
  // the dead tracer's freed ring (use-after-free). optional guarantees
  // the same storage for both incarnations.
  std::optional<Tracer> tracer;
  tracer.emplace(16);
  TraceEvent ev;
  ev.session_id = 1;
  ev.kind = TraceKind::kOpen;
  tracer->record(ev);
  ASSERT_EQ(tracer->ring_count(), 1u);
  tracer.reset();
  tracer.emplace(16);
  ev.session_id = 2;
  tracer->record(ev);  // must register a fresh ring, not write the old one
  ASSERT_EQ(tracer->ring_count(), 1u);
  const std::vector<TraceEvent> events = tracer->events();
  ASSERT_EQ(events.size(), 1u);
  ASSERT_EQ(events[0].session_id, 2u);
}

TEST(Tracer, AlternatingBetweenLiveTracersReusesRings) {
  // Regression: switching tracers registered a brand-new ring on every
  // switch, growing rings_ without bound.
  Tracer a(16);
  Tracer b(16);
  TraceEvent ev;
  ev.kind = TraceKind::kRound;
  for (int i = 0; i < 100; ++i) {
    ev.session_id = static_cast<std::uint64_t>(i);
    a.record(ev);
    b.record(ev);
  }
  ASSERT_EQ(a.ring_count(), 1u);
  ASSERT_EQ(b.ring_count(), 1u);
  ASSERT_EQ(a.events().size(), 15u);  // capacity - 1 retained
  ASSERT_EQ(b.events().size(), 15u);
}

TEST(Tracer, ConcurrentScrapeExportsOnlyRealEvents) {
  // Writers lap a tiny ring while the exporter walks it; every exported
  // event must be a real recorded event, never a torn mix of two (the
  // per-field tag invariant below breaks on any cross-event mix). Also
  // the TSan job's race check for record() vs events().
  Tracer tracer(8);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&tracer, &stop, t] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        TraceEvent ev;
        ev.session_id = (static_cast<std::uint64_t>(t) << 32) | i;
        ev.a = ev.session_id ^ 0x5a5a5a5a5a5a5a5aull;
        ev.b = ~ev.session_id;
        ev.kind = TraceKind::kCredit;
        tracer.record(ev);
        ++i;
      }
    });
  }
  for (int round = 0; round < 200; ++round) {
    for (const TraceEvent& ev : tracer.events()) {
      ASSERT_EQ(ev.a, ev.session_id ^ 0x5a5a5a5a5a5a5a5aull);
      ASSERT_EQ(ev.b, ~ev.session_id);
      ASSERT_EQ(ev.kind, TraceKind::kCredit);
    }
  }
  stop.store(true);
  for (auto& th : writers) th.join();
}

// ----------------------------------------- engine instrumentation wiring

TEST(ObsWiring, EngineSessionsMoveRegistryCellsAndTracer) {
  MetricsRegistry reg;
  Tracer tracer;
  const auto w = make_set_pair<Item8>(400, 12, 8, 77);
  sync::EngineOptions options;
  options.metrics = &reg;
  options.tracer = &tracer;
  sync::ShardedEngine<Item8> engine(2, {}, options);
  for (const auto& x : w.a) engine.add_item(x);

  sync::ShardedClient<Item8> client(1, 2, sync::BackendId::kRiblt);
  for (const auto& y : w.b) client.add_item(y);
  for (auto& hello : client.hellos()) {
    for (const auto& reply : engine.handle_frame(hello)) {
      (void)client.handle_frame(reply);
    }
  }
  std::size_t guard = 0;
  bool progressed = true;
  while (progressed && !client.terminal() && guard++ < 100000) {
    progressed = false;
    for (std::size_t s = 0; s < 2; ++s) {
      const auto frame = engine.next_frame(client.sub_session_id(s));
      if (!frame) continue;
      progressed = true;
      for (const auto& reply : client.handle_frame(*frame)) {
        for (const auto& response : engine.handle_frame(reply)) {
          (void)client.handle_frame(response);
        }
      }
    }
  }
  ASSERT_TRUE(client.complete());
  // Per-session histograms record at retirement (a server does this on
  // disconnect); close both sub-sessions to land them.
  for (std::size_t s = 0; s < 2; ++s) {
    ASSERT_TRUE(engine.close_session(client.sub_session_id(s)));
  }

  const MetricsSnapshot s = reg.snapshot();
  const MetricsSnapshot::Series* opened =
      s.find_series("riblt_sessions_opened_total", {{"backend", "riblt"}});
  ASSERT_NE(opened, nullptr);
  ASSERT_EQ(opened->counter, 2u);  // one per shard, shared cells
  const MetricsSnapshot::Series* done =
      s.find_series("riblt_sessions_done_total", {{"backend", "riblt"}});
  ASSERT_NE(done, nullptr);
  ASSERT_EQ(done->counter, 2u);
  const MetricsSnapshot::Series* bytes =
      s.find_series("riblt_session_bytes_to_peer", {{"backend", "riblt"}});
  ASSERT_NE(bytes, nullptr);
  ASSERT_EQ(bytes->hist.bucket_total(), 2u);
  ASSERT_GT(bytes->hist.sum, 0u);

  // Lifecycle landed in the tracer: open and close per sub-session.
  std::size_t opens = 0;
  std::size_t closes = 0;
  for (const TraceEvent& ev : tracer.events()) {
    opens += ev.kind == TraceKind::kOpen ? 1 : 0;
    closes += ev.kind == TraceKind::kClose ? 1 : 0;
  }
  ASSERT_EQ(opens, 2u);
  ASSERT_EQ(closes, 2u);

  // The exposition lints, and the stats view reads the same cells.
  const std::string text = prometheus_text(s);
  ASSERT_EQ(lint_prometheus(text), "") << text.substr(0, 400);
  const sync::EngineTotals t = engine.stats().totals;
  ASSERT_EQ(t.sessions, 2u);
  ASSERT_EQ(s.find_series("riblt_bytes_to_peers_total")->counter,
            t.bytes_to_peers);
  ASSERT_EQ(s.find_series("riblt_items_added_total")->counter,
            t.items_added);
}

// ------------------------------------------------ one source of accounting

/// Sum of one family's counter series over every label set (the
/// per-backend rows of a riblt_sessions_* family).
std::uint64_t counter_sum(const MetricsSnapshot& s, std::string_view name) {
  std::uint64_t n = 0;
  if (const MetricsSnapshot::Family* f = s.find(name)) {
    for (const MetricsSnapshot::Series& row : f->series) n += row.counter;
  }
  return n;
}

std::int64_t gauge_of(const MetricsSnapshot& s, std::string_view name) {
  const MetricsSnapshot::Series* row = s.find_series(name);
  return row == nullptr ? -1 : row->gauge;
}

/// Drives one client session against `engine` until the client is
/// terminal (or the engine goes quiet).
template <typename Engine>
void run_to_terminal(Engine& engine, sync::SyncClient<Item8>& client) {
  for (const auto& reply : engine.handle_frame(client.hello())) {
    (void)client.handle_frame(reply);
  }
  for (int guard = 0; guard < 100000 && !client.complete() &&
                      !client.failed();
       ++guard) {
    const auto frame = engine.next_frame(client.session_id());
    if (!frame) break;
    for (const auto& reply : client.handle_frame(*frame)) {
      for (const auto& response : engine.handle_frame(reply)) {
        (void)client.handle_frame(response);
      }
    }
  }
}

// At the parent, done/failed reached the registry only when the session
// was retired, while EngineTotals counted them at the DONE/ERROR frame:
// between the two the registry read 0 and the stats view read 1.
TEST(Accounting, DoneAndFailedTickAtTheTerminalTransition) {
  MetricsRegistry reg;
  sync::EngineOptions options;
  options.metrics = &reg;
  sync::SyncEngine<Item8> engine({}, options);
  const auto w = make_set_pair<Item8>(200, 6, 4, 5);
  for (const auto& x : w.a) engine.add_item(x);

  sync::SyncClient<Item8> client(1, sync::BackendId::kRiblt);
  for (const auto& y : w.b) client.add_item(y);
  run_to_terminal(engine, client);
  ASSERT_TRUE(client.complete());
  ASSERT_NE(engine.session(1), nullptr);  // DONE seen, not yet closed
  ASSERT_EQ(engine.totals().done, 1u);
  ASSERT_EQ(counter_sum(reg.snapshot(), "riblt_sessions_done_total"),
            engine.totals().done);

  // A peer ERROR fails the session the same way.
  sync::SyncClient<Item8> aborting(2, sync::BackendId::kIbltStrata);
  for (const auto& reply : engine.handle_frame(aborting.hello())) {
    (void)aborting.handle_frame(reply);
  }
  (void)engine.handle_frame(sync::v2::make_error_frame(2, "client abort"));
  ASSERT_NE(engine.session(2), nullptr);
  ASSERT_EQ(engine.totals().failed, 1u);
  ASSERT_EQ(counter_sum(reg.snapshot(), "riblt_sessions_failed_total"),
            engine.totals().failed);
  const sync::EngineTotals t = engine.totals();
  ASSERT_EQ(t.sessions, t.done + t.failed + t.active);
}

// At the parent the journal gauge was written only when the journal was
// pruned (a next_frame or close), so churn under an open cursor left the
// scrape reading the depth of the last prune.
TEST(Accounting, JournalDepthIsTheCachesLiveCounter) {
  MetricsRegistry reg;
  sync::EngineOptions options;
  options.metrics = &reg;
  sync::SyncEngine<Item8> engine({}, options);
  SplitMix64 rng(41);
  for (int i = 0; i < 100; ++i) engine.add_item(Item8::random(rng.next()));
  sync::SyncClient<Item8> client(1, sync::BackendId::kRiblt);
  for (const auto& reply : engine.handle_frame(client.hello())) {
    (void)client.handle_frame(reply);
  }
  ASSERT_TRUE(engine.next_frame(1).has_value());  // cursor open, pruned
  for (int i = 0; i < 150; ++i) engine.add_item(Item8::random(rng.next()));
  const sync::EngineTotals t = engine.totals();
  ASSERT_EQ(t.journal_depth, 150u);
  ASSERT_EQ(gauge_of(reg.snapshot(), "riblt_cache_journal_depth"),
            static_cast<std::int64_t>(t.journal_depth));
}

/// Every cell-backed fact of one engine's registry series against its
/// EngineTotals (one engine per registry, so the sums are its own).
bool registry_matches_totals(const MetricsSnapshot& s,
                             const sync::EngineTotals& t) {
  const auto c = [&](const char* name) { return counter_sum(s, name); };
  return c("riblt_sessions_opened_total") == t.sessions &&
         c("riblt_sessions_done_total") == t.done &&
         c("riblt_sessions_failed_total") == t.failed &&
         gauge_of(s, "riblt_sessions_active") ==
             static_cast<std::int64_t>(t.active) &&
         c("riblt_sessions_reaped_total") == t.sessions_reaped &&
         c("riblt_sessions_evicted_total") == t.sessions_evicted &&
         c("riblt_bytes_to_peers_total") == t.bytes_to_peers &&
         c("riblt_bytes_from_peers_total") == t.bytes_from_peers &&
         c("riblt_rounds_total") == t.rounds &&
         c("riblt_frames_sent_total") == t.frames_sent &&
         c("riblt_items_added_total") == t.items_added &&
         c("riblt_items_removed_total") == t.items_removed &&
         gauge_of(s, "riblt_cache_journal_depth") ==
             static_cast<std::int64_t>(t.journal_depth);
}

// The lifetime cells replace a fold of retired sessions plus a walk of
// the live table; this property holds them to what that pair gave by
// construction. Random sequences of opens on all four backends, served
// frames (which carry the rounds and DONEs), client ERRORs, malformed
// ROUND payloads, garbage frames, idle reaps, eviction at the session
// cap and closes of live sessions; after every step the cell view must
// equal a walk of the live table and the registry snapshot, and the
// opened count must equal the HELLOs the engine accepted.
TEST(Accounting, LifecycleCellsMatchTheTableAndTheRegistry) {
  constexpr sync::BackendId kBackends[] = {
      sync::BackendId::kRiblt, sync::BackendId::kIbltStrata,
      sync::BackendId::kCpi, sync::BackendId::kMetIblt};
  const auto w = make_set_pair<Item8>(60, 5, 4, 21);
  sync::EngineTotals reached;
  testing::for_all(
      "engine cells == live-table walk == registry snapshot", 24, 9301,
      [&](SplitMix64& rng) {
        MetricsRegistry reg;
        double now = 0;
        sync::EngineOptions options;
        options.metrics = &reg;
        options.max_sessions = 3;
        options.clock = [&now] { return now; };
        sync::SyncEngine<Item8> engine({}, options);
        for (const auto& x : w.a) engine.add_item(x);
        std::map<std::uint64_t, std::unique_ptr<sync::SyncClient<Item8>>>
            clients;
        std::uint64_t next_sid = 1;
        std::size_t accepted = 0;
        const auto pick = [&]() -> std::uint64_t {
          if (clients.empty()) return 0;
          auto it = clients.begin();
          std::advance(it, static_cast<long>(rng.next() % clients.size()));
          return it->first;
        };
        const auto feed = [&](std::span<const std::byte> frame) {
          try {
            for (const auto& reply : engine.handle_frame(frame)) {
              const std::uint64_t sid = sync::v2::peek_session_id(reply);
              if (auto it = clients.find(sid); it != clients.end()) {
                (void)it->second->handle_frame(reply);
              }
            }
          } catch (const sync::ProtocolError&) {
          }
        };
        for (int step = 0; step < 60; ++step) {
          const std::uint64_t sid = pick();
          switch (rng.next() % 9) {
            case 0:
            case 1: {  // HELLO on a random backend
              auto c = std::make_unique<sync::SyncClient<Item8>>(
                  next_sid, kBackends[rng.next() % 4]);
              for (const auto& y : w.b) c->add_item(y);
              const auto hello = c->hello();
              const std::uint64_t opened = next_sid++;
              clients.emplace(opened, std::move(c));
              feed(hello);
              // Accepted iff the HELLO put a session in the table.
              accepted += engine.session(opened) != nullptr ? 1 : 0;
              break;
            }
            case 2:
            case 3:  // serve: SYMBOLS out, ROUND / DONE back
              if (sid == 0) break;
              for (int k = 0; k < 4; ++k) {
                const auto frame = engine.next_frame(sid);
                if (!frame) break;
                std::vector<std::vector<std::byte>> replies;
                try {
                  replies = clients[sid]->handle_frame(*frame);
                } catch (const sync::ProtocolError&) {
                }
                for (const auto& r : replies) feed(r);
              }
              break;
            case 4:  // client ERROR
              if (sid != 0) feed(sync::v2::make_error_frame(sid, "abort"));
              break;
            case 5: {  // malformed ROUND payload, then raw garbage
              if (sid != 0) {
                sync::v2::Frame round;
                round.type = sync::v2::FrameType::kRound;
                round.session_id = sid;
                round.payload = {std::byte{0xff}, std::byte{0x01}};
                feed(sync::v2::encode_frame(round));
              }
              std::vector<std::byte> junk(1 + rng.next() % 12);
              for (auto& b : junk) b = static_cast<std::byte>(rng.next());
              feed(junk);
              break;
            }
            case 6:  // idle reap after the clock moves
              now += static_cast<double>(rng.next() % 3);
              for (const auto& [reaped, frame] : engine.reap_idle(1.5)) {
                (void)frame;
                clients.erase(reaped);
              }
              break;
            case 7:  // close, whatever the session's state
              if (sid != 0) {
                (void)engine.close_session(sid);
                clients.erase(sid);
              }
              break;
            default:  // ingest churn beside the sessions
              if (rng.next() % 2 == 0) {
                engine.add_item(Item8::random(rng.next()));
              } else {
                engine.remove_item(w.a[rng.next() % w.a.size()]);
              }
              break;
          }
          const sync::EngineTotals t = engine.totals();
          if (t.active != engine.active_count()) return false;
          if (t.sessions != t.done + t.failed + t.active) return false;
          if (t.sessions != accepted) return false;
          if (!registry_matches_totals(reg.snapshot(), t)) return false;
        }
        reached += engine.totals();
        return true;
      });
  // Every terminal path was taken somewhere in the run.
  EXPECT_GT(reached.done, 0u);
  EXPECT_GT(reached.failed, reached.sessions_reaped + reached.sessions_evicted);
  EXPECT_GT(reached.sessions_reaped, 0u);
  EXPECT_GT(reached.sessions_evicted, 0u);
  EXPECT_GT(reached.rounds, 0u);
}

// --------------------------------------------------------- link sharing

// Two sharded engines and two replicas on one registry (the chaos fleet's
// shape): every key sums across instances, each stats() view reads only
// its own cells, and a destroyed instance takes its share with it.
TEST(Link, InstancesSharingARegistrySumPerKeyAndStayPerInstance) {
  MetricsRegistry reg;
  sync::EngineOptions eo;
  eo.metrics = &reg;
  auto e1 = std::make_unique<sync::ShardedEngine<Item8>>(2, SipHasher<Item8>{},
                                                         eo);
  auto e2 = std::make_unique<sync::ShardedEngine<Item8>>(3, SipHasher<Item8>{},
                                                         eo);
  SplitMix64 rng(77);
  for (int i = 0; i < 10; ++i) e1->add_item(Item8::random(rng.next()));
  for (int i = 0; i < 25; ++i) e2->add_item(Item8::random(rng.next()));

  sync::ReplicaOptions ro;
  ro.jitter = 0;
  ro.sync_interval_s = 1.0;
  ro.engine.metrics = &reg;
  ro.engine.idle_deadline_s = 1.0;
  ro.replica_id = 1;
  auto r1 = std::make_unique<sync::Replica<Item8>>(ro);
  ro.replica_id = 2;
  auto r2 = std::make_unique<sync::Replica<Item8>>(ro);
  for (int i = 0; i < 7; ++i) r1->add_item(Item8::random(rng.next()));
  for (int i = 0; i < 3; ++i) r2->add_item(Item8::random(rng.next()));
  const auto sink = [](std::vector<std::byte>) { return true; };
  r1->add_peer(9, sink);
  r2->add_peer(8, sink);
  r2->add_peer(9, sink);
  // A HELLO from peer 9 that never follows up: r1 reaps it.
  sync::SyncClient<Item8> idle(0x99, sync::BackendId::kRiblt);
  r1->deliver(9, idle.hello(), 0.0);
  r1->tick(1.5);  // opens r1's round, reaps the idle serving session
  r2->tick(1.5);  // opens r2's two rounds

  const auto check = [&](const MetricsSnapshot& s) {
    std::uint64_t items = 0, reaped = 0;
    for (const auto* e : {e1.get(), e2.get()}) {
      if (e != nullptr) items += e->stats().totals.items_added;
    }
    for (const auto* r : {r1.get(), r2.get()}) {
      if (r == nullptr) continue;
      const sync::ReplicaStats rs = r->stats();
      items += rs.engine.items_added;
      reaped += rs.engine.sessions_reaped;
      const auto* row = s.find_series(
          "riblt_replica_rounds_attempted_total",
          {{"replica", std::to_string(r->replica_id())}});
      ASSERT_NE(row, nullptr);
      ASSERT_EQ(row->counter, rs.rounds_attempted);
    }
    ASSERT_EQ(counter_sum(s, "riblt_items_added_total"), items);
    ASSERT_EQ(counter_sum(s, "riblt_sessions_reaped_total"), reaped);
  };
  ASSERT_EQ(e1->stats().totals.items_added, 10u);
  ASSERT_EQ(e2->stats().totals.items_added, 25u);
  ASSERT_EQ(r1->stats().engine.sessions_reaped, 1u);
  ASSERT_EQ(r2->stats().engine.sessions_reaped, 0u);
  ASSERT_EQ(r1->stats().rounds_attempted, 1u);
  ASSERT_EQ(r2->stats().rounds_attempted, 2u);
  check(reg.snapshot());
  ASSERT_EQ(counter_sum(reg.snapshot(), "riblt_items_added_total"), 45u);

  e2.reset();
  r2.reset();
  const MetricsSnapshot after = reg.snapshot();
  check(after);
  ASSERT_EQ(counter_sum(after, "riblt_items_added_total"), 17u);
  ASSERT_EQ(after.find_series("riblt_replica_rounds_attempted_total",
                              {{"replica", "2"}}),
            nullptr);
  ASSERT_EQ(after.find_series("riblt_replica_peer_failures",
                              {{"replica", "2"}}),
            nullptr);
}

// link/unlink race snapshots and increments: the TSan job runs this.
TEST(Link, SnapshotRacesLinkUnlinkAndIncrements) {
  MetricsRegistry reg;
  Counter steady;
  const MetricsRegistry::Link steady_link =
      reg.link("steady_total", "always linked", {}, steady);
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const MetricsSnapshot s = reg.snapshot();
      (void)prometheus_text(s);
    }
  });
  std::thread churn([&] {
    sync::EngineOptions eo;
    eo.metrics = &reg;
    for (int i = 0; i < 200; ++i) {
      auto cell = std::make_unique<Counter>();
      cell->inc(static_cast<std::uint64_t>(i));
      {
        const MetricsRegistry::Link l =
            reg.link("churn_total", "linked and unlinked", {}, *cell);
      }
      cell.reset();
      if (i % 20 == 0) {
        sync::SyncEngine<Item8> engine({}, eo);
        engine.add_item(Item8::random(static_cast<std::uint64_t>(i) + 1));
      }
    }
  });
  for (int i = 0; i < 20000; ++i) steady.inc();
  churn.join();
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  const MetricsSnapshot s = reg.snapshot();
  ASSERT_EQ(s.find_series("steady_total")->counter, 20000u);
  ASSERT_EQ(s.find("churn_total"), nullptr);
  ASSERT_EQ(s.find("riblt_items_added_total"), nullptr);
}

}  // namespace
}  // namespace ribltx::obs

// Extension bench (ISSUE 3 acceptance): server-side cost of opening and
// starting a rateless session, shared-SequenceCache serving vs the old
// per-session re-encode, across set sizes n and a fleet of sessions.
//
// "hello_us" is the server CPU from HELLO arrival to the first SYMBOLS
// frame handed to the transport -- the paper's §2 serving model says this
// must not depend on n (the coded-symbol prefix is universal and cached),
// while the re-encode baseline pays an O(n) re-hash + heap build per
// session. Expected shape: shared-cache hello_us flat in n (after the
// first session materializes the prefix); re-encode hello_us growing
// linearly; the ratio crossing 10x well before n = 10^6.
//
// Also reports cache churn cost (O(log m) per item) while sessions are
// open, since that is the operation that replaces full re-encodes.
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "benchutil.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sync/engine.hpp"

namespace {

using namespace ribltx;

/// Builds the HELLO frame for `sid` directly (no SyncClient: a client
/// would pay O(n) itself and we are measuring the server).
std::vector<std::byte> make_hello(std::uint64_t sid) {
  sync::v2::Frame hello;
  hello.type = sync::v2::FrameType::kHello;
  hello.session_id = sid;
  hello.backend = static_cast<std::uint8_t>(sync::BackendId::kRiblt);
  hello.item_size = static_cast<std::uint32_t>(U64Symbol::kSize);
  hello.checksum_len = 8;
  return sync::v2::encode_frame(hello);
}

struct ModeResult {
  double build_s = 0;        ///< one-time set build / hash / warm-up cost
  double hello_us = 0;       ///< mean HELLO -> first SYMBOLS, per session
  double sessions_per_s = 0;
};

/// Shared-cache path: one engine, `sessions` rateless sessions opened
/// against it; each session measured from HELLO to its first frame. The
/// very first session triggers the one-time lazy materialization of the
/// cache prefix; that is warm-up (a server pays it once per lifetime, not
/// per peer), so it is folded into build_s and the steady-state per-session
/// cost is what hello_us reports.
using Engine = sync::SyncEngine<U64Symbol>;

/// An engine holding `n` random items with the cache prefix warmed by one
/// session (opened and closed), ready for `sessions` more.
std::unique_ptr<Engine> make_warm_engine(std::size_t n, std::size_t sessions,
                                         std::uint64_t seed,
                                         obs::MetricsRegistry* reg,
                                         obs::Tracer* tracer) {
  sync::EngineOptions options;
  options.max_sessions = sessions + 16;
  options.metrics = reg;
  options.tracer = tracer;
  auto engine = std::make_unique<Engine>(SipHasher<U64Symbol>{}, options);
  SplitMix64 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    engine->add_item(U64Symbol::random(rng.next()));
  }
  const std::uint64_t warm_sid = sessions + 1;
  (void)engine->handle_frame(make_hello(warm_sid));
  if (!engine->next_frame(warm_sid)) std::abort();
  (void)engine->close_session(warm_sid);
  return engine;
}

/// Opens session `sid` and serves its first frame.
void open_session(Engine& engine, std::uint64_t sid) {
  (void)engine.handle_frame(make_hello(sid));
  if (!engine.next_frame(sid)) std::abort();  // rateless: always symbols
}

ModeResult run_shared(std::size_t n, std::size_t sessions,
                      std::uint64_t seed) {
  ModeResult out;
  bench::Timer build;
  const auto engine = make_warm_engine(n, sessions, seed, nullptr, nullptr);
  out.build_s = build.elapsed();

  bench::Timer serve;
  for (std::size_t s = 0; s < sessions; ++s) open_session(*engine, s + 1);
  const double total = serve.elapsed();
  out.hello_us = total / static_cast<double>(sessions) * 1e6;
  out.sessions_per_s = static_cast<double>(sessions) / total;
  return out;
}

/// Re-encode baseline: what SyncEngine did before the shared cache -- a
/// fresh standalone rateless encoder per session, fed the whole set, then
/// the first ~frame worth of symbols.
ModeResult run_reencode(std::size_t n, std::size_t sessions,
                        std::uint64_t seed) {
  ModeResult out;
  std::vector<U64Symbol> items;
  items.reserve(n);
  bench::Timer build;
  SplitMix64 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    items.push_back(U64Symbol::random(rng.next()));
  }
  out.build_s = build.elapsed();

  bench::Timer serve;
  for (std::size_t s = 0; s < sessions; ++s) {
    sync::RibltEncoderBackend<U64Symbol> enc;
    for (const auto& x : items) enc.add_item(x);
    ByteWriter payload;
    if (enc.emit(payload, 1024) == 0) std::abort();
  }
  const double total = serve.elapsed();
  out.hello_us = total / static_cast<double>(sessions) * 1e6;
  out.sessions_per_s = static_cast<double>(sessions) / total;
  return out;
}

/// Churn cost while `open_sessions` snapshot cursors are live: the O(log m)
/// per-item update that replaces whole-set re-encodes.
double churn_us_per_item(std::size_t n, std::size_t open_sessions,
                         std::uint64_t seed) {
  sync::EngineOptions options;
  options.max_sessions = open_sessions + 16;
  sync::SyncEngine<U64Symbol> engine({}, options);
  SplitMix64 rng(seed);
  std::vector<U64Symbol> items;
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    items.push_back(U64Symbol::random(rng.next()));
    engine.add_item(items.back());
  }
  for (std::size_t s = 0; s < open_sessions; ++s) {
    (void)engine.handle_frame(make_hello(s + 1));
    (void)engine.next_frame(s + 1);  // pin each session's snapshot cursor
  }
  constexpr std::size_t kOps = 512;
  bench::Timer timer;
  for (std::size_t i = 0; i < kOps; ++i) {
    engine.remove_item(items[i]);
    engine.add_item(U64Symbol::random(rng.next()));
  }
  return timer.elapsed() / (2.0 * kOps) * 1e6;
}

/// Process-wide registry for the overhead gate's attached runs (the
/// registry must outlive every engine bound to it; a static mirrors how a
/// server process owns one registry for its lifetime).
obs::MetricsRegistry& obs_registry() {
  static obs::MetricsRegistry reg;
  return reg;
}

struct OverheadResult {
  double detached_per_s = 0;  ///< detached sessions per CPU-second (median)
  double attached_per_s = 0;  ///< attached sessions per CPU-second (median)
  double overhead_pct = 0;    ///< median over paired trials (gated)
  double upper90_pct = 0;     ///< bootstrap 90% upper bound on the median
};

/// CPU seconds this thread has run (not the slices the host gave others).
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One-sided 90% upper confidence bound on the median of `xs`: the 90th
/// percentile of the medians of 2000 seeded resamples with replacement.
double bootstrap_median_upper90(const std::vector<double>& xs,
                                std::uint64_t seed) {
  constexpr int kResamples = 2000;
  SplitMix64 rng(seed);
  std::vector<double> medians;
  medians.reserve(kResamples);
  std::vector<double> draw(xs.size());
  for (int b = 0; b < kResamples; ++b) {
    for (double& x : draw) x = xs[rng.next() % xs.size()];
    const auto mid =
        draw.begin() + static_cast<std::ptrdiff_t>(draw.size() / 2);
    std::nth_element(draw.begin(), mid, draw.end());
    medians.push_back(*mid);
  }
  std::sort(medians.begin(), medians.end());
  return medians[static_cast<std::size_t>(0.9 * (kResamples - 1))];
}

/// Observability-overhead gate: the same serving loop with the registry
/// and tracer attached vs detached (null taps -- one untaken branch per
/// histogram or trace site; the lifetime cells are always on, so both
/// halves pay for them). Each trial builds a detached and an attached
/// engine side by side and opens the sessions on them in alternating
/// blocks of kBlock, timing every block in thread CPU time: a busy host
/// slows both halves of a trial alike instead of whichever ran during
/// the disturbance, and preemption is not counted at all. Each trial
/// yields one paired overhead sample; the <= 2% acceptance bar judges
/// their MEDIAN: the minimum of whole back-to-back wall-time runs swings
/// to -9% and below on a loaded machine, so it cannot see a real 2-5%
/// regression. The bootstrap 90% upper bound on the median is printed
/// beside it. The
/// attached engines record into `reg`, which the caller reads for the
/// snapshot-path quantile report.
OverheadResult measure_obs_overhead(std::size_t n, std::size_t sessions,
                                    int trials, std::uint64_t seed,
                                    obs::MetricsRegistry& reg) {
  constexpr std::size_t kBlock = 256;
  struct Pair {
    double detached = 0, attached = 0, pct = 0;
  };
  std::vector<Pair> pairs;
  pairs.reserve(static_cast<std::size_t>(trials));
  obs::Tracer tracer;
  for (int t = 0; t < trials; ++t) {
    auto detached = make_warm_engine(n, sessions, seed, nullptr, nullptr);
    auto attached = make_warm_engine(n, sessions, seed, &reg, &tracer);
    double cpu[2] = {0, 0};  // [detached, attached]
    for (std::size_t lo = 0, b = 0; lo < sessions; lo += kBlock, ++b) {
      const std::size_t hi = std::min(sessions, lo + kBlock);
      for (std::size_t k = 0; k < 2; ++k) {
        const std::size_t side = (b + k) & 1;  // alternate who goes first
        Engine& engine = side == 0 ? *detached : *attached;
        const double c0 = thread_cpu_s();
        for (std::size_t s = lo; s < hi; ++s) open_session(engine, s + 1);
        cpu[side] += thread_cpu_s() - c0;
      }
    }
    Pair p;
    p.detached = static_cast<double>(sessions) / cpu[0];
    p.attached = static_cast<double>(sessions) / cpu[1];
    p.pct = (p.detached - p.attached) / p.detached * 100.0;
    pairs.push_back(p);
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const Pair& a, const Pair& b) { return a.pct < b.pct; });
  const Pair& median = pairs[pairs.size() / 2];
  std::vector<double> pcts;
  pcts.reserve(pairs.size());
  for (const Pair& p : pairs) pcts.push_back(p.pct);
  OverheadResult out;
  out.detached_per_s = median.detached;
  out.attached_per_s = median.attached;
  out.overhead_pct = median.pct;
  out.upper90_pct = bootstrap_median_upper90(pcts, seed ^ 0xb007);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::Options::parse(argc, argv);
  bench::JsonReport report(opts, "extra_serving_throughput");

  std::vector<std::size_t> sizes;
  if (opts.smoke) {
    sizes = {1'000};
  } else if (opts.full) {
    sizes = {10'000, 100'000, 1'000'000};
  } else {
    sizes = {10'000, 100'000};
  }
  const std::size_t sessions = opts.pick<std::size_t>(8, 100, 100);

  std::printf("# Extra: rateless serving throughput, shared SequenceCache "
              "vs per-session re-encode\n");
  std::printf("# hello_us = server CPU from HELLO to first SYMBOLS frame "
              "(8-byte items, %zu sessions)\n", sessions);
  std::printf("%-9s %-10s %-14s %-14s %-14s %-10s %-12s\n", "n", "mode",
              "build_s", "hello_us", "sessions_per_s", "speedup",
              "churn_us");

  bool ok = true;
  for (const std::size_t n : sizes) {
    // The O(n)-per-session baseline gets a smaller fleet at huge n so the
    // sweep terminates; per-session cost is what matters.
    const std::size_t base_sessions =
        n >= 1'000'000 ? std::min<std::size_t>(sessions, 10) : sessions;
    const auto shared = run_shared(n, sessions, opts.seed + n);
    const auto reencode = run_reencode(n, base_sessions, opts.seed + n);
    const double speedup = reencode.hello_us / shared.hello_us;
    const double churn_us = churn_us_per_item(n, 4, opts.seed + n + 1);

    std::printf("%-9zu %-10s %-14.4f %-14.2f %-14.1f %-10s %-12s\n", n,
                "shared", shared.build_s, shared.hello_us,
                shared.sessions_per_s, "-", "-");
    std::printf("%-9zu %-10s %-14.4f %-14.2f %-14.1f %-10.1f %-12.3f\n", n,
                "reencode", reencode.build_s, reencode.hello_us,
                reencode.sessions_per_s, speedup, churn_us);
    report.row()
        .str("mode", "shared")
        .num("n", n)
        .num("sessions", sessions)
        .num("build_s", shared.build_s)
        .num("hello_us", shared.hello_us)
        .num("sessions_per_s", shared.sessions_per_s)
        .num("churn_us", churn_us);
    report.row()
        .str("mode", "reencode")
        .num("n", n)
        .num("sessions", base_sessions)
        .num("build_s", reencode.build_s)
        .num("hello_us", reencode.hello_us)
        .num("sessions_per_s", reencode.sessions_per_s)
        .num("speedup", speedup);
    std::fflush(stdout);
    // Sanity floor rather than a perf assertion: shared serving must never
    // be slower than re-encoding the set per session.
    if (speedup < 1.0) ok = false;
  }

  // Observability overhead gate: attaching the metrics registry + tracer
  // to the hot serving loop must cost <= 2% sessions per CPU-second vs
  // detached, judged on the median of the paired trials. The attached
  // cost measures ~1.2% at smoke scale and one trial's delta scatters by
  // ~2%, so the median needs ~60 trials (~5 s) for its own noise to sit
  // well inside the bound -- every scale runs the same count.
  const std::size_t ovh_sessions = 8000;
  const auto ovh = measure_obs_overhead(sizes.front(), ovh_sessions,
                                        /*trials=*/61, opts.seed + 17,
                                        obs_registry());
  std::printf("# obs overhead: detached %.0f/cpu-s attached %.0f/cpu-s "
              "(median %.2f%%, bootstrap 90%% upper bound %.2f%%, gate 2%% "
              "on median)\n",
              ovh.detached_per_s, ovh.attached_per_s, ovh.overhead_pct,
              ovh.upper90_pct);
  const obs::MetricsSnapshot snap = obs_registry().snapshot();
  auto& ovh_row = report.row()
                      .str("mode", "obs_overhead")
                      .num("n", sizes.front())
                      .num("sessions", ovh_sessions)
                      .num("sessions_per_s", ovh.attached_per_s)
                      .num("sessions_per_s_detached", ovh.detached_per_s)
                      .num("obs_overhead_pct", ovh.overhead_pct)
                      .num("obs_overhead_upper90_pct", ovh.upper90_pct);
  // Quantiles read off the registry snapshot -- the same path the live
  // METRICS scrape renders -- instead of a private sample vector.
  if (const auto* cpu = snap.find_series("riblt_serve_cpu_us",
                                         {{"backend", "riblt"}})) {
    ovh_row.hist("serve_cpu_us", cpu->hist);
  }
  if (ovh.overhead_pct > 2.0) {
    std::fprintf(stderr,
                 "serving: observability overhead %.2f%% (median) exceeds "
                 "2%% gate\n",
                 ovh.overhead_pct);
    ok = false;
  }
  return ok ? 0 : 1;
}

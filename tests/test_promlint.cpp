// Prometheus exposition-format lint (src/obs/prom.hpp) plus the live
// scrape path: both servers answering METRICS / METRICS_JSON / TRACE over
// an in-band ADMIN frame from a second connection while real sessions
// load the first, and the ADMIN responder's verb table (answers, ERRORs,
// protocol_errors) driven against both servers and the Replica.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "net/socket_client.hpp"
#include "net/socket_server.hpp"
#include "net/uring_server.hpp"
#include "obs/metrics.hpp"
#include "obs/prom.hpp"
#include "obs/trace.hpp"
#include "sync/replica.hpp"
#include "sync/sharded.hpp"
#include "testutil.hpp"

namespace ribltx::net {
namespace {

using testing::make_set_pair;
using Item8 = U64Symbol;
using Item32 = ByteSymbol<32>;

// --------------------------------------------------------- lint units

TEST(PromLint, AcceptsMinimalValidExposition) {
  const std::string text =
      "# HELP x_total hits\n"
      "# TYPE x_total counter\n"
      "x_total 5\n"
      "# HELP depth queue depth\n"
      "# TYPE depth gauge\n"
      "depth{server=\"epoll\"} -3\n";
  ASSERT_EQ(obs::lint_prometheus(text), "");
}

TEST(PromLint, AcceptsWellFormedHistogram) {
  const std::string text =
      "# HELP lat_us latency\n"
      "# TYPE lat_us histogram\n"
      "lat_us_bucket{le=\"1\"} 2\n"
      "lat_us_bucket{le=\"8\"} 5\n"
      "lat_us_bucket{le=\"+Inf\"} 7\n"
      "lat_us_sum 40\n"
      "lat_us_count 7\n";
  ASSERT_EQ(obs::lint_prometheus(text), "");
}

TEST(PromLint, RejectsNonCumulativeBuckets) {
  const std::string text =
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 5\n"
      "h_bucket{le=\"2\"} 3\n"
      "h_bucket{le=\"+Inf\"} 5\n"
      "h_count 5\n";
  ASSERT_NE(obs::lint_prometheus(text), "");
}

TEST(PromLint, RejectsMissingInfBucket) {
  const std::string text =
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 5\n"
      "h_count 5\n";
  ASSERT_NE(obs::lint_prometheus(text), "");
}

TEST(PromLint, RejectsInfCountMismatch) {
  const std::string text =
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 5\n"
      "h_bucket{le=\"+Inf\"} 6\n"
      "h_count 5\n";
  ASSERT_NE(obs::lint_prometheus(text), "");
}

TEST(PromLint, RejectsMalformedLines) {
  ASSERT_NE(obs::lint_prometheus("9bad 1\n"), "");
  ASSERT_NE(obs::lint_prometheus("x_total notanumber\n"), "");
  ASSERT_NE(obs::lint_prometheus("x_total{le=\"1\" 2\n"), "");
  ASSERT_NE(obs::lint_prometheus("# COMMENT nope\n"), "");
  ASSERT_NE(obs::lint_prometheus("# TYPE x bogus_kind\n"), "");
  ASSERT_NE(obs::lint_prometheus("# TYPE x counter\n# TYPE x counter\n"),
            "");
}

TEST(PromLint, RegistryRenderingAlwaysLints) {
  // Everything the registry can hold renders to lint-clean text,
  // including empty histograms and label values needing escaping.
  obs::MetricsRegistry reg;
  obs::Counter a;
  a.inc(3);
  const obs::MetricsRegistry::Link link =
      reg.link("a_total", "with \"quotes\" and \\slashes\\",
               {{"k", "va\"l\nue"}}, a);
  (void)reg.histogram("empty_us", "never recorded");
  obs::Histogram& h = reg.histogram("busy_us", "recorded");
  for (std::uint64_t v = 0; v < 2000; ++v) h.record(v * v);
  const std::string text = obs::prometheus_text(reg.snapshot());
  ASSERT_EQ(obs::lint_prometheus(text), "") << text.substr(0, 400);
}

// ------------------------------------------------------ live scrape

/// Shared harness: serve real sessions on `Server` while a second
/// connection scrapes all three verbs mid-load.
template <typename Server>
void live_scrape_roundtrip(const char* server_label) {
  constexpr std::size_t kShards = 2;
  obs::MetricsRegistry reg;
  obs::Tracer tracer;
  sync::EngineOptions engine_options;
  engine_options.metrics = &reg;
  engine_options.tracer = &tracer;
  sync::ShardedEngine<Item8> engine(kShards, {}, engine_options);
  const auto w = make_set_pair<Item8>(500, 20, 15, 99);
  for (const auto& x : w.a) engine.add_item(x);

  Server server(engine);  // taps come from the engine
  server.start();

  // Load generator: back-to-back sessions on one connection until told
  // to stop -- the scrape below happens while these are in flight.
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> completed{0};
  std::thread load([&] {
    SocketClient sock(server.port());
    std::uint64_t sid = 100;
    while (!stop.load(std::memory_order_acquire)) {
      sync::ShardedClient<Item8> client(sid, kShards,
                                        sync::BackendId::kRiblt);
      for (const auto& y : w.b) client.add_item(y);
      if (!run_session(sock, client, 60.0)) break;
      completed.fetch_add(1, std::memory_order_relaxed);
      sid += kShards;
    }
  });

  // Wait until at least one session has fully completed so the scrape
  // observes nonzero engine activity.
  for (int i = 0; i < 6000 && completed.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(completed.load(), 0u) << "load generator never completed";

  SocketClient admin(server.port());
  const auto text = scrape(admin, "METRICS");
  ASSERT_TRUE(text.has_value());
  ASSERT_EQ(obs::lint_prometheus(*text), "") << text->substr(0, 400);
  // Engine tier (linked engine cells) ...
  ASSERT_NE(text->find("riblt_sessions_opened_total{backend=\"riblt\"}"),
            std::string::npos);
  ASSERT_NE(text->find("riblt_sessions_active"), std::string::npos);
  ASSERT_NE(text->find("riblt_bytes_to_peers_total"), std::string::npos);
  // ... transport tier (linked server cells) ...
  ASSERT_NE(text->find("riblt_server_frames_in_total"), std::string::npos);
  ASSERT_NE(
      text->find(std::string("server=\"") + server_label + "\""),
      std::string::npos);
  // ... one name per fact, and histograms render with buckets.
  ASSERT_EQ(text->find("riblt_engine_"), std::string::npos);
  ASSERT_NE(text->find("riblt_session_bytes_to_peer_bucket"),
            std::string::npos);
  // The opened counter is live (nonzero): every line for it parses as
  // "name{...} value" -- cheap nonzero check via the composed snapshot.
  const obs::MetricsSnapshot snap = reg.snapshot();
  const auto* opened = snap.find_series("riblt_sessions_opened_total",
                                        {{"backend", "riblt"}});
  ASSERT_NE(opened, nullptr);
  ASSERT_GT(opened->counter, 0u);

  const auto json = scrape(admin, "METRICS_JSON");
  ASSERT_TRUE(json.has_value());
  ASSERT_NE(json->find("\"riblt_sessions_opened_total\""),
            std::string::npos);
  ASSERT_NE(json->find("\"p99\""), std::string::npos);

  const auto trace = scrape(admin, "TRACE");
  ASSERT_TRUE(trace.has_value());
  ASSERT_NE(trace->find("\"traceEvents\""), std::string::npos);
  ASSERT_NE(trace->find("session_open"), std::string::npos);

  // Unknown verbs answer with an in-band ERROR -> ProtocolError here.
  ASSERT_THROW((void)scrape(admin, "NO_SUCH_VERB"), sync::ProtocolError);

  stop.store(true, std::memory_order_release);
  load.join();
  server.stop();
}

TEST(PromLint, LiveScrapeEpollMidLoad) {
  live_scrape_roundtrip<SocketServer<Item8>>("epoll");
}

TEST(PromLint, LiveScrapeUringMidLoad) {
  if (!testing::uring_or_skip("LiveScrapeUringMidLoad")) return;
#if defined(RIBLT_HAS_IO_URING)
  live_scrape_roundtrip<UringServer<Item8>>("uring");
#else
  live_scrape_roundtrip<UringServer<Item8>>("epoll");  // alias fallback
#endif
}

// ------------------------------------------------ ADMIN responder table

/// One ADMIN request and what the endpoint must do with it: answer with
/// chunked ADMIN_REPLY frames, or send back exactly one ERROR frame.
struct AdminCase {
  const char* what;
  std::vector<std::byte> frame;
  bool answered;
};

/// The verb table, sid-tagged from 1. `tapped` says whether the endpoint
/// has its metrics and tracer taps set; without them every known verb is
/// an error too.
std::vector<AdminCase> admin_cases(bool tapped) {
  std::vector<AdminCase> cases;
  std::uint64_t sid = 0;
  for (const char* verb : {"METRICS", "METRICS_JSON", "TRACE"}) {
    cases.push_back({verb, sync::v2::make_admin_frame(++sid, verb), tapped});
  }
  cases.push_back(
      {"unknown verb", sync::v2::make_admin_frame(++sid, "NO_SUCH_VERB"),
       false});
  // A routable prefix (type + sid) whose payload length claims 16 bytes
  // that never arrive: parse_frame rejects it.
  cases.push_back({"malformed ADMIN",
                   {std::byte{0x17}, static_cast<std::byte>(++sid),
                    std::byte{0x10}},
                   false});
  return cases;
}

/// Checks one case's replies: all tagged with the request's sid, and
/// either a chunked reply stream ending in the final flag or one ERROR.
void check_admin_replies(const AdminCase& c, std::uint64_t sid,
                         const std::vector<sync::v2::Frame>& replies) {
  ASSERT_FALSE(replies.empty()) << c.what;
  for (const auto& r : replies) ASSERT_EQ(r.session_id, sid) << c.what;
  if (!c.answered) {
    ASSERT_EQ(replies.size(), 1u) << c.what;
    ASSERT_EQ(replies[0].type, sync::v2::FrameType::kError) << c.what;
    return;
  }
  for (std::size_t i = 0; i < replies.size(); ++i) {
    ASSERT_EQ(replies[i].type, sync::v2::FrameType::kAdminReply) << c.what;
    ASSERT_EQ(replies[i].value != 0, i + 1 == replies.size()) << c.what;
  }
}

/// Drives the table against `Server` over one connection. The replies to
/// each request are read up to their terminator (an ERROR or the final
/// ADMIN_REPLY); a stray extra frame would carry the previous case's sid
/// into the next case's replies, and a silent wait closes the table. The
/// server takes its taps from the engine it serves.
template <typename Server>
void admin_table_over_socket(bool tapped) {
  obs::MetricsRegistry reg;
  obs::Tracer tracer;
  sync::EngineOptions engine_options;
  if (tapped) {
    engine_options.metrics = &reg;
    engine_options.tracer = &tracer;
  }
  sync::ShardedEngine<Item8> engine(1, {}, engine_options);
  Server server(engine);
  server.start();
  SocketClient sock(server.port());
  const std::vector<AdminCase> cases = admin_cases(tapped);
  std::uint64_t errors = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    sock.send_frame(cases[i].frame);
    std::vector<sync::v2::Frame> replies;
    for (;;) {
      auto raw = sock.recv_frame(/*timeout_s=*/20.0);
      ASSERT_TRUE(raw.has_value()) << cases[i].what << " tapped=" << tapped;
      replies.push_back(sync::v2::parse_frame(*raw));
      const sync::v2::Frame& f = replies.back();
      if (f.type == sync::v2::FrameType::kError || f.value != 0) break;
    }
    check_admin_replies(cases[i], i + 1, replies);
    if (!cases[i].answered) ++errors;
  }
  ASSERT_FALSE(sock.recv_frame(/*timeout_s=*/0.2).has_value());
  server.stop();
  ASSERT_EQ(server.stats().protocol_errors, errors);
}

TEST(AdminResponder, EpollServerAnswersTheVerbTable) {
  admin_table_over_socket<SocketServer<Item8>>(/*tapped=*/true);
  admin_table_over_socket<SocketServer<Item8>>(/*tapped=*/false);
}

TEST(AdminResponder, UringServerAnswersTheVerbTable) {
  if (!testing::uring_or_skip("UringServerAnswersTheVerbTable")) return;
  admin_table_over_socket<UringServer<Item8>>(/*tapped=*/true);
  admin_table_over_socket<UringServer<Item8>>(/*tapped=*/false);
}

TEST(AdminResponder, ReplicaAnswersTheVerbTable) {
  for (const bool tapped : {true, false}) {
    obs::MetricsRegistry reg;
    obs::Tracer tracer;
    sync::ReplicaOptions options;
    options.replica_id = 1;
    options.jitter = 0;
    if (tapped) {
      options.engine.metrics = &reg;
      options.engine.tracer = &tracer;
    }
    sync::Replica<Item32> replica(options);
    std::vector<std::vector<std::byte>> outbox;
    replica.add_peer(2, [&outbox](std::vector<std::byte> f) {
      outbox.push_back(std::move(f));
      return true;
    });
    const std::vector<AdminCase> cases = admin_cases(tapped);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      outbox.clear();
      replica.deliver(2, cases[i].frame, 0.1 * static_cast<double>(i));
      std::vector<sync::v2::Frame> replies;
      for (const auto& raw : outbox) {
        replies.push_back(sync::v2::parse_frame(raw));
      }
      check_admin_replies(cases[i], i + 1, replies);
    }
  }
}

// -------------------------------------------------- replica admin tap

TEST(PromLint, ReplicaAdminTapServesRegistryAndPeerRows) {
  obs::MetricsRegistry reg;
  sync::ReplicaOptions options;
  options.replica_id = 1;
  options.jitter = 0;
  options.engine.metrics = &reg;
  sync::Replica<Item32> replica(options);
  for (const auto& x : make_set_pair<Item32>(50, 5, 0, 7).a) {
    replica.add_item(x);
  }

  std::vector<std::vector<std::byte>> outbox;
  replica.add_peer(2, [&outbox](std::vector<std::byte> f) {
    outbox.push_back(std::move(f));
    return true;
  });

  replica.deliver(2, sync::v2::make_admin_frame(7, "METRICS"), 0.5);
  std::string body;
  bool final_seen = false;
  for (const auto& raw : outbox) {
    const sync::v2::Frame frame = sync::v2::parse_frame(raw);
    ASSERT_EQ(frame.type, sync::v2::FrameType::kAdminReply);
    body.append(sync::v2::error_text(frame));
    final_seen = frame.value != 0;
  }
  ASSERT_TRUE(final_seen);
  ASSERT_EQ(obs::lint_prometheus(body), "") << body.substr(0, 400);
  ASSERT_NE(body.find("riblt_replica_rounds_attempted_total"),
            std::string::npos);
  ASSERT_NE(body.find("peer=\"2\""), std::string::npos);
  ASSERT_NE(body.find("riblt_replica_peer_last_success_us"),
            std::string::npos);
  ASSERT_NE(body.find("riblt_items_added_total"), std::string::npos);
  ASSERT_EQ(body.find("riblt_engine_"), std::string::npos);

  // Unknown verb -> in-band ERROR frame back to the peer.
  outbox.clear();
  replica.deliver(2, sync::v2::make_admin_frame(8, "BOGUS"), 0.6);
  ASSERT_EQ(outbox.size(), 1u);
  ASSERT_EQ(sync::v2::parse_frame(outbox[0]).type,
            sync::v2::FrameType::kError);
}

}  // namespace
}  // namespace ribltx::net

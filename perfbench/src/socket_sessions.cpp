// small-adaptive and bulk-rateless: a ShardedEngine behind a socket server,
// client threads running back-to-back sessions over their own connection.
//
// A session runs from building the ShardedClient and loading the client's
// local set until the recovered remote items are in the client's store.
// Before each session (untimed) the client's store loses `half_d` items of
// the server's set and gains `half_d` items the server lacks, so the exact
// diff is known; after it the store is restored.
#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "harness.hpp"
#include "items.hpp"
#include "net/socket_client.hpp"
#include "net/uring_server.hpp"

namespace perfbench {
namespace {

using namespace ribltx;

struct Shape {
  std::size_t n;
  std::size_t half_d;   ///< items missing on each side per session
  std::size_t shards;
  std::size_t clients;  ///< client threads, one connection each
  bool adaptive;
  bool allow_uring;
};

Shape shape_of(const Config& cfg) {
  if (cfg.workload == "small-adaptive") {
    return {cfg.tiny ? 500u : 2000u, 8, 1, 2, true, false};
  }
  return {cfg.tiny ? 2000u : 50000u, cfg.tiny ? 200u : 5000u, 2, 1, false,
          true};
}

/// recv_frame deadline: far above the ~200 ms loopback stalls, far below
/// a run's 180 s limit.
constexpr double kRecvTimeoutS = 10.0;

struct Client {
  Client(std::uint32_t idx, std::uint16_t port, std::uint64_t seed)
      : index(idx),
        peer_id(1000 + idx),
        sock(port),
        rng(derive_seed(seed, 100 + idx)) {}

  std::uint32_t index;
  std::uint64_t peer_id;  ///< stable adaptive identity of this thread
  net::SocketClient sock;
  ItemSet store;          ///< the client's local set
  SplitMix64 rng;
  std::uint64_t next_base = 1;
  std::uint64_t extra_seq = 0;
};

/// Per-thread tallies of one phase.
struct Tally {
  std::vector<double> latencies_ms;
  std::uint64_t attempted = 0, failed = 0, wrong = 0;
  std::uint64_t bytes = 0, diff_items = 0, useful = 0, stale = 0;
  std::array<std::uint64_t, 5> backends{};
  double cpu_s = 0;
  double untimed_cpu_s = 0;  ///< planting, checks and restore
  std::int64_t end_ns = 0;
  std::string error;
};

std::uint64_t framed(const std::vector<std::byte>& frame) {
  return frame.size() + uvarint_size(frame.size());
}

bool same_set(std::vector<Item> got, std::vector<Item> want) {
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  return got == want;
}

/// One session on `c`; throws when the connection is unusable.
void run_session(Client& c, const Shape& sh, const std::vector<Item>& base,
                 SpanLog& log, Tally& t) {
  // Untimed: plant the difference.
  double u0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  std::vector<Item> missing;
  std::unordered_set<std::size_t> picked;
  while (missing.size() < sh.half_d) {
    const std::size_t i = c.rng.next_below(base.size());
    if (picked.insert(i).second) missing.push_back(base[i]);
  }
  for (const Item& x : missing) c.store.erase(x);
  std::vector<Item> extras;
  while (extras.size() < sh.half_d) {
    const Item x = make_item(kClassExtra,
                             derive_seed(c.rng.next(), c.extra_seq++));
    if (c.store.insert(x).second) extras.push_back(x);
  }

  t.untimed_cpu_s += cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - u0;

  const std::uint64_t base_sid =
      (static_cast<std::uint64_t>(c.index) << 40) | c.next_base++;
  ++t.attempted;
  const std::int64_t t0 = now_ns();
  log.begin_session(base_sid, t0);
  std::optional<sync::ShardedClient<Item>> client;
  {
    Scope s(log, kClientLoad);
    client.emplace(base_sid, sh.shards, sync::BackendId::kRiblt);
    if (sh.adaptive) client->set_adaptive(c.peer_id);
    for (const Item& x : c.store) client->add_item(x);
  }
  std::vector<std::vector<std::byte>> hellos;
  {
    Scope s(log, kClientHello);
    hellos = client->hellos();
  }
  for (auto& h : hellos) {
    t.bytes += framed(h);
    Scope s(log, kNetSend);
    c.sock.send_frame(std::move(h));
  }
  bool timed_out = false;
  while (!client->terminal()) {
    std::optional<std::vector<std::byte>> frame;
    {
      Scope s(log, kNetWait);
      frame = c.sock.recv_frame(kRecvTimeoutS);
    }
    if (!frame) {
      timed_out = true;
      break;
    }
    t.bytes += framed(*frame);
    if (!client->owns(sync::v2::peek_session_id(*frame))) {
      ++t.stale;  // rateless tail of an earlier session on this connection
      continue;
    }
    ++t.useful;
    const bool ack = static_cast<sync::v2::FrameType>((*frame)[0]) ==
                     sync::v2::FrameType::kHelloAck;
    std::vector<std::vector<std::byte>> replies;
    {
      Scope s(log, ack ? kClientSeed : kClientDecode);
      replies = client->handle_frame(*frame);
    }
    for (auto& r : replies) {
      t.bytes += framed(r);
      Scope s(log, kNetSend);
      c.sock.send_frame(std::move(r));
    }
  }
  const bool complete = !timed_out && client->complete();
  sync::SetDiff<Item> diff;
  if (complete) {
    Scope s(log, kClientApply);
    diff = client->diff();
    for (const Item& x : diff.remote) c.store.insert(x);
  }
  const std::int64_t t1 = now_ns();
  log.end_session(t1);

  u0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  if (!complete) {
    ++t.failed;
  } else if (!same_set(diff.remote, missing) || !same_set(diff.local, extras)) {
    ++t.failed;
    ++t.wrong;
  } else {
    t.latencies_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    t.diff_items += diff.remote.size() + diff.local.size();
  }
  for (std::size_t k = 0; k < sh.shards; ++k) {
    ++t.backends[static_cast<std::size_t>(client->sub(k).backend()) % 5];
  }
  // Untimed: restore the store to the server's set.
  for (const Item& x : extras) c.store.erase(x);
  for (const Item& x : missing) c.store.insert(x);
  client.reset();
  t.untimed_cpu_s += cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - u0;
}

/// The server, its engine and the connected clients of one set-up.
struct Rig {
  std::vector<Item> base;
  std::unique_ptr<sync::ShardedEngine<Item>> engine;
  std::unique_ptr<net::AnyServer<Item>> server;
  std::vector<std::unique_ptr<Client>> clients;

  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() {
    clients.clear();
    if (server) server->stop();
  }
};

std::unique_ptr<Rig> set_up(std::uint64_t seed, const Shape& sh) {
  auto rig = std::make_unique<Rig>();
  rig->base = make_base_set(seed, sh.n);
  rig->engine = std::make_unique<sync::ShardedEngine<Item>>(sh.shards);
  for (const Item& x : rig->base) (void)rig->engine->add_item(x);
  // Default server options: the 64 KiB send buffer and watermarks are part
  // of what is measured.
  rig->server = std::make_unique<net::AnyServer<Item>>(
      *rig->engine, net::SocketServerOptions{}, sh.allow_uring);
  rig->server->start();
  SpanLog off(false);
  Tally warm;
  for (std::size_t i = 0; i < sh.clients; ++i) {
    // SocketClient's default 64 KiB receive buffer, deliberately kept.
    auto c = std::make_unique<Client>(static_cast<std::uint32_t>(i),
                                      rig->server->port(), seed);
    c->store.insert(rig->base.begin(), rig->base.end());
    run_session(*c, sh, rig->base, off, warm);  // warms the shared cache
    rig->clients.push_back(std::move(c));
  }
  if (warm.failed != 0) throw std::runtime_error("warm-up session failed");
  return rig;
}

PhaseResult run_phase(Rig& rig, const Shape& sh, bool traced, double seconds,
                      std::vector<std::vector<Span>>* spans_out) {
  PhaseResult r;
  const net::SocketServerStats s0 = rig.server->stats();
  const std::size_t perr0 = rig.engine->stats().protocol_errors;
  const KernelCounters k0 = KernelCounters::read();
  const double cpu0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  const std::int64_t t0 = now_ns();
  const std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);

  std::vector<Tally> tallies(sh.clients);
  std::vector<SpanLog> logs;
  for (std::size_t i = 0; i < sh.clients; ++i) {
    logs.emplace_back(traced);
  }
  auto body = [&](std::size_t i) {
    Tally& t = tallies[i];
    const double c0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
    try {
      while (now_ns() < deadline) {
        run_session(*rig.clients[i], sh, rig.base, logs[i], t);
      }
    } catch (const std::exception& e) {
      t.error = e.what();
      ++t.failed;
    }
    t.cpu_s = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - c0;
    t.end_ns = now_ns();
  };
  {
    // The calling thread is client 0, so the workload's thread count is
    // exactly the clients plus the server's own threads.
    std::vector<std::jthread> threads;
    for (std::size_t i = 1; i < sh.clients; ++i) threads.emplace_back(body, i);
    body(0);
  }
  const double cpu1 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  const KernelCounters k1 = KernelCounters::read();
  const net::SocketServerStats s1 = rig.server->stats();

  std::int64_t end = t0;
  double untimed = 0;
  for (std::size_t i = 0; i < sh.clients; ++i) {
    const Tally& t = tallies[i];
    if (!t.error.empty()) {
      std::fprintf(stderr, "client %zu: %s\n", i, t.error.c_str());
      ++r.protocol_errors;  // the connection died under this client
    }
    r.latencies_ms.insert(r.latencies_ms.end(), t.latencies_ms.begin(),
                          t.latencies_ms.end());
    r.attempted += t.attempted;
    r.failed += t.failed;
    r.wrong += t.wrong;
    r.bytes += t.bytes;
    r.diff_items += t.diff_items;
    r.frames_useful += t.useful;
    r.frames_stale += t.stale;
    for (std::size_t k = 0; k < t.backends.size(); ++k) {
      r.backends[k] += t.backends[k];
    }
    r.client_cpu_s += t.cpu_s - t.untimed_cpu_s;
    untimed += t.untimed_cpu_s;
    end = std::max(end, t.end_ns);
    r.absorb(logs[i]);
    if (spans_out != nullptr) spans_out->push_back(std::move(logs[i].spans));
  }
  r.wall_s = static_cast<double>(end - t0) * 1e-9;
  r.cpu_s = (cpu1 - cpu0) - untimed;
  r.kernel = k1 - k0;
  r.syscalls = s1.syscalls() - s0.syscalls();
  r.wakeups = s1.wakeups - s0.wakeups;
  r.frames_out = s1.frames_out - s0.frames_out;
  r.frames_dropped = s1.frames_dropped - s0.frames_dropped;
  const sync::ShardedStats es = rig.engine->stats();
  r.protocol_errors += (s1.protocol_errors - s0.protocol_errors) +
                       (es.protocol_errors - perr0);
  r.journal_depth_sum = static_cast<double>(es.totals.journal_depth);
  r.journal_samples = 1;
  return r;
}

}  // namespace

WorkloadOutput run_socket_workload(const Config& cfg) {
  const Shape sh = shape_of(cfg);
  WorkloadOutput out;
  std::unique_ptr<Rig> rig;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    rig.reset();  // tear the previous set-up down before timing the next
    const std::int64_t t0 = now_ns();
    rig = set_up(setup_seed(cfg.seed, rep), sh);
    out.info.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  const bool uring = rig->server->backend() == net::ServerBackend::kUring;
  out.info.transport = uring ? "io_uring" : "epoll";
  // Server threads: one worker per shard plus the poll (or uring) thread.
  out.info.threads = static_cast<unsigned>(sh.clients + sh.shards + 1);
  out.info.connections = static_cast<unsigned>(sh.clients);
  out.info.notes.push_back(
      "n=" + std::to_string(sh.n) + " d=" + std::to_string(2 * sh.half_d) +
      " (" + std::to_string(sh.half_d) + " each way) shards=" +
      std::to_string(sh.shards) + " adaptive=" + (sh.adaptive ? "on" : "off") +
      " backend=riblt" + (sh.adaptive ? " (server may grant another)" : ""));
  if (cfg.trace) {
    out.untraced = run_phase(*rig, sh, false, cfg.seconds / 2, nullptr);
    out.traced = run_phase(*rig, sh, true, cfg.seconds / 2, &out.span_logs);
  } else {
    out.untraced = run_phase(*rig, sh, false, cfg.seconds, nullptr);
  }
  return out;
}

}  // namespace perfbench

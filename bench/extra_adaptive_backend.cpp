// Extension bench: the adaptive negotiation path (sync/adaptive.hpp)
// against every fixed backend, on a simulated link -- the ISSUE 6
// acceptance surface. Sweeps d in {1,10,100,1000} x loss in {0,1,5}% over
// a SimConduit (bounded window, go-back-N, seeded deterministic loss) and
// reports, per cell:
//
//  * one fixed-backend session per backend (CPI only inside the shared
//    cpi_feasible() envelope -- the same rule the adaptive chooser uses,
//    so bench and engine agree by construction on where CPI competes);
//  * the adaptive path in steady state: the client probes on first
//    contact, later sessions ride the server's per-peer EWMA; the cell
//    reports the LAST of `warm` sessions (the common case: a node
//    re-syncing the same neighbor), plus the first-contact cost.
//
// The headline check (nonzero exit on violation): adaptive session bytes
// within 10% of the best fixed backend on EVERY cell. Fixed rateless
// shows why pacing matters: unpaced, the server fills the conduit window
// with symbols the client never needed, at every d.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "benchutil.hpp"
#include "net/sim_conduit.hpp"
#include "sync/adaptive.hpp"
#include "sync/engine.hpp"

namespace {

using namespace ribltx;
using sync::BackendId;

struct Sets {
  std::vector<U64Symbol> both, only_a, only_b;
};

Sets make_sets(std::size_t shared, std::size_t d, std::uint64_t seed) {
  Sets s;
  SplitMix64 rng(seed);
  for (std::size_t i = 0; i < shared; ++i) {
    s.both.push_back(U64Symbol::from_u64(rng.next() | 1));
  }
  for (std::size_t i = 0; i < d / 2; ++i) {
    s.only_b.push_back(U64Symbol::from_u64(rng.next() | 1));
  }
  for (std::size_t i = 0; i < d - d / 2; ++i) {
    s.only_a.push_back(U64Symbol::from_u64(rng.next() | 1));
  }
  return s;
}

struct SessionOutcome {
  bool ok = false;
  std::uint64_t bytes_down = 0;  ///< SYMBOLS frame bytes emitted
  std::uint64_t bytes_up = 0;    ///< HELLO/ROUND/DONE (credits included)
  std::uint64_t link_bytes = 0;  ///< both directions incl. retransmits/ACKs
  std::uint32_t rounds = 0;
  std::uint32_t credits = 0;
  BackendId chosen{};
};

/// One session over a lossy SimConduit, event-driven: the server pumps
/// while the window is open (and its pacing runway allows), exactly the
/// test_net_sim harness shape.
SessionOutcome run_session(sync::SyncEngine<U64Symbol>& engine,
                           sync::SyncClient<U64Symbol>& client,
                           std::uint64_t sid, double loss,
                           std::uint64_t seed) {
  netsim::EventLoop loop;
  netsim::LinkConfig fwd;
  fwd.one_way_delay_s = 0.002;
  fwd.bandwidth_bps = 100e6;
  fwd.loss_rate = loss;
  fwd.reorder_jitter_s = loss > 0 ? 0.004 : 0.0;
  fwd.seed = seed;
  netsim::LinkConfig rev = fwd;
  rev.seed = seed ^ 0x5a5a;
  net::SimConduit pipe(loop, fwd, rev);
  net::SimEndpoint& client_end = pipe.a();
  net::SimEndpoint& server_end = pipe.b();

  SessionOutcome out;
  const auto pump_server = [&] {
    while (server_end.writable()) {
      auto frame = engine.next_frame(sid);
      if (!frame) break;  // round/credit wait, pacing pause, or done
      server_end.send_frame(std::move(*frame));
    }
  };
  server_end.on_frame([&](std::vector<std::byte> frame) {
    for (auto& reply : engine.handle_frame(frame)) {
      server_end.send_frame(std::move(reply));
    }
    pump_server();
  });
  server_end.on_writable(pump_server);
  client_end.on_frame([&](std::vector<std::byte> frame) {
    for (auto& reply : client.handle_frame(frame)) {
      out.bytes_up += reply.size();
      client_end.send_frame(std::move(reply));
    }
  });

  const auto hello = client.hello();
  out.bytes_up += hello.size();
  client_end.send_frame(hello);
  loop.run();

  const sync::SessionStats* stats = engine.session(sid);
  out.ok = client.complete() && stats != nullptr && !client_end.broken() &&
           !server_end.broken();
  if (stats != nullptr) {
    out.bytes_down = stats->bytes_to_peer;
    out.rounds = stats->rounds;
    out.credits = stats->credits;
    out.chosen = stats->backend;
  }
  out.link_bytes = client_end.data_bytes() + client_end.ack_bytes() +
                   server_end.data_bytes() + server_end.ack_bytes();
  return out;
}

std::unique_ptr<sync::SyncEngine<U64Symbol>> make_engine(const Sets& s,
                                                         double loss) {
  sync::EngineOptions options;
  options.link = sync::adaptive::LinkProfile::lossy(loss);
  auto engine = std::make_unique<sync::SyncEngine<U64Symbol>>(
      SipHasher<U64Symbol>{}, options);
  for (const auto& x : s.both) engine->add_item(x);
  for (const auto& x : s.only_a) engine->add_item(x);
  return engine;
}

sync::SyncClient<U64Symbol> make_client(const Sets& s, std::uint64_t sid,
                                        BackendId backend) {
  sync::SyncClient<U64Symbol> client(sid, backend);
  for (const auto& y : s.both) client.add_item(y);
  for (const auto& y : s.only_b) client.add_item(y);
  return client;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::Options::parse(argc, argv);
  bench::JsonReport report(opts, "extra_adaptive_backend");
  const std::size_t max_d = opts.pick<std::size_t>(100, 1000, 1000);
  const std::size_t warm = 3;  ///< adaptive sessions per cell (last scored)
  const std::vector<double> losses =
      opts.smoke ? std::vector<double>{0.0, 0.05}
                 : std::vector<double>{0.0, 0.01, 0.05};
  const sync::ReconcilerConfig config{};  // the engine-default tuning

  std::printf("# Extra: adaptive negotiation vs fixed backends over "
              "SimConduit (8-byte items)\n");
  std::printf("# bytes = session wire bytes down+up; link_bytes adds "
              "retransmits + ACK packets\n");
  std::printf("%-7s %-6s %-12s %-10s %-12s %-7s %-8s %-7s\n", "d", "loss",
              "backend", "bytes", "link_bytes", "rounds", "credits", "ratio");

  bool all_ok = true;
  for (std::size_t d = 1; d <= max_d; d *= 10) {
    const std::size_t shared = std::max<std::size_t>(200, 2 * d);
    for (const double loss : losses) {
      const std::uint64_t seed = derive_seed(opts.seed, d * 1000 + static_cast<std::uint64_t>(loss * 100));
      const Sets sets = make_sets(shared, d, seed);

      // Fixed cells: one fresh engine+session each, client pinned to the
      // backend, no adaptive flag -- the server serves the request
      // verbatim (the fallback path old clients get).
      std::uint64_t best_fixed = ~std::uint64_t{0};
      constexpr BackendId kBackends[] = {
          BackendId::kRiblt, BackendId::kIbltStrata, BackendId::kCpi,
          BackendId::kMetIblt};
      for (const BackendId backend : kBackends) {
        if (backend == BackendId::kCpi &&
            !sync::adaptive::cpi_feasible<U64Symbol>(d, config)) {
          std::printf("%-7zu %-6.2f %-12s %-10s %-12s %-7s %-8s %-7s\n", d,
                      loss, sync::backend_name(backend), "-", "-", "-", "-",
                      "-");
          continue;
        }
        auto engine = make_engine(sets, loss);
        auto client = make_client(sets, 1, backend);
        const auto r = run_session(*engine, client, 1, loss, seed + 7);
        if (!r.ok) {
          std::printf("%-7zu %-6.2f %-12s FAILED\n", d, loss,
                      sync::backend_name(backend));
          all_ok = false;
          continue;
        }
        const std::uint64_t bytes = r.bytes_down + r.bytes_up;
        best_fixed = std::min(best_fixed, bytes);
        std::printf("%-7zu %-6.2f %-12s %-10llu %-12llu %-7u %-8u %-7s\n", d,
                    loss, sync::backend_name(backend),
                    static_cast<unsigned long long>(bytes),
                    static_cast<unsigned long long>(r.link_bytes), r.rounds,
                    r.credits, "-");
        report.row()
            .str("backend", sync::backend_name(backend))
            .num("d", d)
            .num("loss_pct", static_cast<std::uint64_t>(loss * 100))
            .num("bytes_down", r.bytes_down)
            .num("bytes_up", r.bytes_up)
            .num("link_bytes", r.link_bytes)
            .num("rounds", static_cast<std::uint64_t>(r.rounds));
      }

      // Adaptive: ONE engine across `warm` sessions from the same peer.
      // Session 1 carries the probe (first contact); the rest lean on the
      // per-peer EWMA the DONE diff counts fed. The gate scores the last.
      auto engine = make_engine(sets, loss);
      const std::uint64_t peer = 0xabcd;
      SessionOutcome last;
      std::uint64_t first_contact = 0;
      bool adaptive_ok = true;
      for (std::size_t s = 1; s <= warm; ++s) {
        auto client = make_client(sets, s, BackendId::kRiblt);
        client.set_adaptive(peer, /*send_probe=*/s == 1);
        last = run_session(*engine, client, s, loss, seed + 100 + s);
        adaptive_ok = adaptive_ok && last.ok;
        if (s == 1) first_contact = last.bytes_down + last.bytes_up;
      }
      const std::uint64_t bytes = last.bytes_down + last.bytes_up;
      const double ratio = best_fixed == 0
                               ? 0.0
                               : static_cast<double>(bytes) /
                                     static_cast<double>(best_fixed);
      // The acceptance gate: steady-state adaptive within 10% of the best
      // fixed backend's bytes on this cell.
      const bool within = adaptive_ok && ratio <= 1.10;
      all_ok = all_ok && within;
      std::printf("%-7zu %-6.2f %-12s %-10llu %-12llu %-7u %-8u %.3f%s\n", d,
                  loss,
                  (std::string("a:") + sync::backend_name(last.chosen)).c_str(),
                  static_cast<unsigned long long>(bytes),
                  static_cast<unsigned long long>(last.link_bytes),
                  last.rounds, last.credits, ratio, within ? "" : "  GATE!");
      report.row()
          .str("backend", "adaptive")
          .str("chosen", sync::backend_name(last.chosen))
          .num("d", d)
          .num("loss_pct", static_cast<std::uint64_t>(loss * 100))
          .num("bytes_down", last.bytes_down)
          .num("bytes_up", last.bytes_up)
          .num("link_bytes", last.link_bytes)
          .num("rounds", static_cast<std::uint64_t>(last.rounds))
          .num("credits", static_cast<std::uint64_t>(last.credits))
          .num("first_contact_bytes", first_contact)
          .num("ratio", ratio);
      std::fflush(stdout);
    }
  }
  return all_ok ? 0 : 1;
}

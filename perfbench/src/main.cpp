// Reconciliation benchmark: drives whole reconciliations through the
// program's public API and prints named end-to-end metrics (untraced) or
// per-layer metrics (traced) for one workload.
//
//   perfbench --workload <replica-pull|small-adaptive|bulk-rateless>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--tiny]
//
// A traced run writes its spans to .bench_out/trace-<workload>-seed<n>.json
// under the working directory. The last line of standard output is one
// JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status is nonzero on a wrong diff, a protocol error, or a build
// that is not an optimized, unsanitized Release build.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#ifndef PERFBENCH_SANITIZED
#define PERFBENCH_SANITIZED 0
#endif

namespace perfbench {

// ------------------------------------------------------------ kernel TCP

namespace {

/// Reads the value of `field` from the `prefix` table of a /proc/net file
/// (a header line of names followed by a line of values). -1 if absent.
std::int64_t proc_net_field(const char* path, const std::string& prefix,
                            const std::string& field) {
  std::ifstream in(path);
  std::string names, values;
  while (std::getline(in, names)) {
    if (names.rfind(prefix, 0) != 0) continue;
    if (!std::getline(in, values) || values.rfind(prefix, 0) != 0) break;
    std::istringstream ns(names), vs(values);
    std::string name, value;
    while (ns >> name && vs >> value) {
      if (name == field) return std::strtoll(value.c_str(), nullptr, 10);
    }
    break;
  }
  return -1;
}

}  // namespace

KernelCounters KernelCounters::read() {
  KernelCounters k;
  k.retrans_segs = proc_net_field("/proc/net/snmp", "Tcp:", "RetransSegs");
  k.zero_window_adv =
      proc_net_field("/proc/net/netstat", "TcpExt:", "TCPToZeroWindowAdv");
  k.loss_probes =
      proc_net_field("/proc/net/netstat", "TcpExt:", "TCPLossProbes");
  std::ifstream stat("/proc/stat");
  std::string cpu;
  if (stat >> cpu && cpu == "cpu") {
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user and nice.
    std::int64_t v[8] = {};
    if (stat >> v[0] >> v[1] >> v[2] >> v[3] >> v[4] >> v[5] >> v[6] >> v[7]) {
      k.cpu_ticks = v[0] + v[1] + v[2] + v[3] + v[4] + v[5] + v[6] + v[7];
      k.steal_ticks = v[7];
    }
  }
  return k;
}

KernelCounters operator-(const KernelCounters& a, const KernelCounters& b) {
  KernelCounters d;
  if (!a.valid() || !b.valid()) return d;
  d.retrans_segs = a.retrans_segs - b.retrans_segs;
  d.zero_window_adv = a.zero_window_adv - b.zero_window_adv;
  d.loss_probes = a.loss_probes - b.loss_probes;
  d.cpu_ticks = a.cpu_ticks - b.cpu_ticks;
  d.steal_ticks = a.steal_ticks - b.steal_ticks;
  return d;
}

namespace {

// ------------------------------------------------------------ statistics

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double per(double num, double den) { return den > 0 ? num / den : 0; }

/// Shortest decimal that reads back as exactly `v`.
std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// ------------------------------------------------------------- reporting

std::vector<Metric> end_to_end(const WorkloadOutput& out) {
  const PhaseResult& r = out.untraced;
  const auto done = static_cast<double>(r.latencies_ms.size());
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {
      {"sessions_per_s", per(done, r.wall_s), "1/s"},
      {"session_p50_ms", quantile(r.latencies_ms, 0.50), "ms"},
      {"session_p90_ms", quantile(r.latencies_ms, 0.90), "ms"},
      {"cpu_ms_per_session", per(r.cpu_s * 1e3, done), "ms"},
      {"bytes_per_diff", per(static_cast<double>(r.bytes),
                             static_cast<double>(r.diff_items)),
       "B"},
      {"setup_s", quantile(out.info.setup_s, 0.5), "s"},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
  };
}

/// Per-layer metrics under the generic names every workload reports; the
/// workload-specific names are in the printed layer table.
std::vector<Metric> per_layer(const Config& cfg, const WorkloadOutput& out) {
  const PhaseResult& t = out.traced;
  const bool replica = cfg.workload == "replica-pull";
  const auto n = static_cast<double>(t.traced_sessions);
  const auto att = static_cast<double>(t.attempted);
  auto us = [&](std::initializer_list<Layer> layers) {
    double ns = 0;
    for (Layer l : layers) ns += static_cast<double>(t.self_ns[l]);
    return per(ns * 1e-3, n);
  };
  const double serve_us =
      replica ? us({kReplicaServe})
              : per((t.cpu_s - t.client_cpu_s) * 1e6, att);
  const double p50_untraced = quantile(out.untraced.latencies_ms, 0.5);
  const double p50_traced = quantile(t.latencies_ms, 0.5);
  return {
      {"sync.client.open_us",
       replica ? us({kReplicaOpen}) : us({kClientLoad, kClientHello}), "us"},
      {"sync.client.seed_us", us({kClientSeed, kReplicaSeed}), "us"},
      {"sync.client.decode_us", us({kClientDecode, kReplicaDecode}), "us"},
      {"sync.client.apply_us", us({kClientApply, kReplicaApply}), "us"},
      {"sync.server.serve_us", serve_us, "us"},
      {"net.io_us", us({kNetSend, kNetIo}), "us"},
      {"net.wait_us", us({kNetWait}), "us"},
      {"session.unattributed_us", us({kSession}), "us"},
      {"net.server.syscalls", per(static_cast<double>(t.syscalls), att),
       "count"},
      {"net.server.wakeups", per(static_cast<double>(t.wakeups), att),
       "count"},
      {"net.server.frames_out", per(static_cast<double>(t.frames_out), att),
       "count"},
      {"net.server.frames_dropped",
       per(static_cast<double>(t.frames_dropped), att), "count"},
      {"wire.useful_frame_ratio",
       per(static_cast<double>(t.frames_useful),
           static_cast<double>(t.frames_out)),
       "1"},
      {"wire.stale_frames", per(static_cast<double>(t.frames_stale), att),
       "count"},
      {"kernel.tcp_retrans_per_1k",
       per(1000.0 * static_cast<double>(std::max<std::int64_t>(
                        t.kernel.retrans_segs, 0)),
           att),
       "count"},
      {"kernel.zero_window_per_session",
       per(static_cast<double>(std::max<std::int64_t>(
               t.kernel.zero_window_adv, 0)),
           att),
       "count"},
      {"kernel.loss_probes_per_1k",
       per(1000.0 * static_cast<double>(std::max<std::int64_t>(
                        t.kernel.loss_probes, 0)),
           att),
       "count"},
      {"net.stalls_per_1k", per(1000.0 * static_cast<double>(t.stalls), n),
       "count"},
      {"sync.engine.journal_depth",
       per(t.journal_depth_sum, static_cast<double>(t.journal_samples)),
       "count"},
      {"trace.overhead_pct",
       p50_untraced > 0 ? (p50_traced / p50_untraced - 1.0) * 100.0 : 0, "%"},
  };
}

/// The traced run's layer table under the workload's own layer names:
/// self time per session, and its share of the session's wall time.
void print_layer_table(const Config& cfg, const WorkloadOutput& out) {
  const PhaseResult& t = out.traced;
  const bool replica = cfg.workload == "replica-pull";
  const auto n = static_cast<double>(t.traced_sessions);
  double total_ns = 0;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    total_ns += static_cast<double>(t.self_ns[l]);
  }
  std::printf("# per-layer self time, traced phase, %.0f sessions "
              "(self = span minus the time its child spans cover)\n", n);
  std::printf("#   %-28s %12s %8s\n", "layer", "us/session", "share");
  const std::vector<Layer> order =
      replica ? std::vector<Layer>{kReplicaOpen, kReplicaSeed, kReplicaDecode,
                                   kReplicaApply, kReplicaServe, kNetIo,
                                   kNetWait, kSession}
              : std::vector<Layer>{kClientLoad, kClientHello, kClientSeed,
                                   kClientDecode, kClientApply, kNetSend,
                                   kNetWait, kSession};
  for (Layer l : order) {
    const auto ns = static_cast<double>(t.self_ns[l]);
    std::printf("#   %-28s %12.1f %7.1f%%\n",
                (std::string(layer_name(l)) + "_us").c_str(),
                per(ns * 1e-3, n), per(100.0 * ns, total_ns));
  }
  std::printf("#   %-28s %12.1f\n", "session (sum of the above)",
              per(total_ns * 1e-3, n));
  if (replica) {
    const auto client = static_cast<double>(t.self_ns[kReplicaOpen] +
                                            t.self_ns[kReplicaSeed] +
                                            t.self_ns[kReplicaDecode]);
    const auto serve = static_cast<double>(t.self_ns[kReplicaServe]);
    std::printf("# client side (open+seed+decode) / serving side: %.1fx\n",
                per(client, serve));
    std::printf("# outside rounds (tail drain), us/round: serve %.1f, "
                "client %.1f, io %.1f, wait %.1f\n",
                per(static_cast<double>(t.loose_ns[kReplicaServe]) * 1e-3, n),
                per(static_cast<double>(t.loose_ns[kReplicaSeed] +
                                        t.loose_ns[kReplicaDecode]) *
                        1e-3,
                    n),
                per(static_cast<double>(t.loose_ns[kNetIo]) * 1e-3, n),
                per(static_cast<double>(t.loose_ns[kNetWait]) * 1e-3, n));
  } else {
    std::printf("#   %-28s %12.1f   (server threads' CPU, concurrent with "
                "net.wait)\n",
                "net.server.cpu_us",
                per((t.cpu_s - t.client_cpu_s) * 1e6,
                    static_cast<double>(t.attempted)));
  }
  const double p50u = quantile(out.untraced.latencies_ms, 0.5);
  const double p50t = quantile(t.latencies_ms, 0.5);
  const double cpuu = per(out.untraced.cpu_s,
                          static_cast<double>(out.untraced.latencies_ms.size()));
  const double cput = per(t.cpu_s, static_cast<double>(t.latencies_ms.size()));
  std::printf("# tracing overhead: session p50 %.4f -> %.4f ms (%+.2f%%), "
              "cpu/session %.4f -> %.4f ms (%+.2f%%)\n",
              p50u, p50t, per(p50t, p50u) * 100 - 100, cpuu * 1e3, cput * 1e3,
              per(cput, cpuu) * 100 - 100);
}

void write_chrome_trace(const std::string& path, const WorkloadOutput& out) {
  std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream f(path);
  std::int64_t origin = INT64_MAX;
  for (const auto& log : out.span_logs) {
    for (const Span& s : log) origin = std::min(origin, s.start_ns);
  }
  f << "{\"traceEvents\":[";
  bool first = true;
  std::size_t global = 0;
  for (std::size_t tid = 0; tid < out.span_logs.size(); ++tid) {
    std::size_t block = 0;
    for (const Span& s : out.span_logs[tid]) {
      if (s.layer == kSession) block = global;
      const long long parent =
          s.parent < 0 ? -1 : static_cast<long long>(block) + s.parent;
      if (!first) f << ',';
      first = false;
      f << "{\"name\":\""
        << (s.layer == kSession ? "session" : layer_name(s.layer))
        << "\",\"ph\":\"X\","
        << "\"pid\":1,\"tid\":" << tid + 1
        << ",\"ts\":" << num(static_cast<double>(s.start_ns - origin) * 1e-3)
        << ",\"dur\":" << num(static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
        << ",\"args\":{\"id\":" << global << ",\"session\":" << s.session
        << ",\"parent\":" << parent << "}}";
      ++global;
    }
  }
  f << "]}\n";
}

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return static_cast<unsigned>(sysconf(_SC_NPROCESSORS_ONLN));
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<replica-pull|small-adaptive|bulk-rateless> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny]\n",
               why);
  std::exit(2);
}

Config parse(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      cfg.workload = value();
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      cfg.trace = value() == "1";
    } else if (a == "--tiny") {
      cfg.tiny = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (cfg.workload != "replica-pull" && cfg.workload != "small-adaptive" &&
      cfg.workload != "bulk-rateless") {
    usage("unknown workload");
  }
  if (!(cfg.seconds > 0)) usage("--seconds must be positive");
  return cfg;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Config cfg = parse(argc, argv);

  const bool release = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  if (!release || !ndebug || PERFBENCH_SANITIZED) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a %s%s build; build "
                 "with -DCMAKE_BUILD_TYPE=Release and no sanitizer\n",
                 PERFBENCH_BUILD_TYPE, PERFBENCH_SANITIZED ? " sanitized" : "");
    return 3;
  }

  WorkloadOutput out;
  try {
    out = cfg.workload == "replica-pull" ? run_replica_pull(cfg)
                                         : run_socket_workload(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", cfg.workload.c_str(), e.what());
    return 1;
  }

  const PhaseResult& r = out.untraced;
  const unsigned cores = nproc();
  std::printf("# workload %s  seed %llu  seconds %g  trace %d%s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, cfg.tiny ? "  (tiny scale)" : "");
  std::printf("# build %s  nproc %u  threads %u  connections %u  "
              "transport %s\n",
              PERFBENCH_BUILD_TYPE, cores, out.info.threads,
              out.info.connections, out.info.transport.c_str());
  for (const std::string& note : out.info.notes) {
    std::printf("# %s\n", note.c_str());
  }
  if (out.info.threads > cores) {
    std::printf("# WARNING: %u workload threads exceed nproc %u\n",
                out.info.threads, cores);
  }
  std::printf("# setup_s runs:");
  for (double s : out.info.setup_s) std::printf(" %.4f", s);
  std::printf("\n");

  const std::vector<Metric> e2e = end_to_end(out);
  std::printf("# end-to-end (untraced phase, %zu completed of %llu "
              "attempted sessions, %.2f s)\n",
              r.latencies_ms.size(),
              static_cast<unsigned long long>(r.attempted), r.wall_s);
  for (const Metric& m : e2e) {
    std::printf("#   %-24s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("#   %-24s %14.4f 1  (%llu failed, %llu wrong diffs)\n",
              "failed_ratio",
              per(static_cast<double>(r.failed),
                  static_cast<double>(r.attempted)),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.wrong));
  if (cfg.workload != "replica-pull") {
    std::printf("# backends run (sub-sessions): riblt %llu, iblt-strata %llu, "
                "cpi %llu, met-iblt %llu\n",
                static_cast<unsigned long long>(r.backends[1]),
                static_cast<unsigned long long>(r.backends[2]),
                static_cast<unsigned long long>(r.backends[3]),
                static_cast<unsigned long long>(r.backends[4]));
  }
  if (r.latencies_ms.size() < 100) {
    std::printf("# note: fewer than 100 samples, so session_p90_ms has fewer "
                "than 10 samples beyond it\n");
  }
  if (cfg.workload == "replica-pull") {
    std::printf("#   %-24s %14.4f us\n", "ingest_p50_us",
                quantile(r.ingest_us, 0.50));
    std::printf("#   %-24s %14.4f us\n", "ingest_p99_us",
                quantile(r.ingest_us, 0.99));
    std::printf("#   %-24s %14.4f ms  (mean start lateness of %llu writer "
                "ops)\n",
                "ingest.lag_ms",
                per(r.ingest_lag_ms_sum, static_cast<double>(r.ingest_ops)),
                static_cast<unsigned long long>(r.ingest_ops));
  }
  std::printf("# kernel TCP deltas (system-wide for this network namespace, "
              "best effort; the benchmark's traffic is loopback):%s retrans "
              "%lld, zero-window adv %lld, loss probes %lld\n",
              r.kernel.valid() ? "" : " UNAVAILABLE",
              static_cast<long long>(r.kernel.retrans_segs),
              static_cast<long long>(r.kernel.zero_window_adv),
              static_cast<long long>(r.kernel.loss_probes));
  std::printf("# cpu steal during the untraced phase: %.2f%% of the "
              "machine's CPU time\n",
              per(100.0 * static_cast<double>(r.kernel.steal_ticks),
                  static_cast<double>(r.kernel.cpu_ticks)));

  std::vector<Metric> reported = e2e;
  if (cfg.trace) {
    print_layer_table(cfg, out);
    reported = per_layer(cfg, out);
    std::printf("# per-layer metrics (traced phase)\n");
    for (const Metric& m : reported) {
      std::printf("#   %-32s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    const std::string path = ".bench_out/trace-" + cfg.workload + "-seed" +
                             std::to_string(cfg.seed) + ".json";
    write_chrome_trace(path, out);
    std::printf("# chrome trace: %s (%llu spans over the export cap left "
                "out)\n",
                path.c_str(),
                static_cast<unsigned long long>(out.traced.spans_dropped));
  }

  const std::uint64_t wrong = out.untraced.wrong + out.traced.wrong;
  const std::uint64_t perr =
      out.untraced.protocol_errors + out.traced.protocol_errors;
  const bool correct = wrong == 0 && perr == 0 && !r.latencies_ms.empty();
  if (perr != 0) {
    std::printf("# FAILED: %llu protocol errors\n",
                static_cast<unsigned long long>(perr));
  }
  if (wrong != 0) {
    std::printf("# FAILED: %llu wrong diffs\n",
                static_cast<unsigned long long>(wrong));
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " +
          std::to_string(out.untraced.attempted + out.traced.attempted);
  json += ", \"failed\": " +
          std::to_string(out.untraced.failed + out.traced.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    if (i != 0) json += ", ";
    json += "\"" + reported[i].name + "\": {\"value\": " +
            num(reported[i].value) + ", \"unit\": \"" + reported[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

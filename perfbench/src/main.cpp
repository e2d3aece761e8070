// coca_perfbench: one workload per invocation, every output checked.
//
//   coca_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--quick] [--out-dir DIR] [--pinned FILE]
//   coca_perfbench --print-meters --workload NAME --seed N   (a pin line)
//
// --trace 0 measures the end-to-end metrics on the workload's own entry
// point, untraced. --trace 1 measures the per-layer metrics: an untraced
// pass (round and route distributions, transport and engine counters), then
// the same instances again with a timing obs::Tracer attached, whose spans
// are attributed exactly to layers (attribution.cpp). Lines starting with
// '#' are the human-readable report; the last line is the JSON result.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <thread>

#include "crypto/sha256_compress.h"
#include "obs/export.h"
#include "workloads.h"

namespace perfbench {
namespace {

// ---------------------------------------------------------------------------
// Metric table.

struct MetricDef {
  std::string name;
  std::string unit;
};

/// Phase names of the library's PhaseScopes, as they appear in traces.
const std::vector<std::string>& phase_names() {
  static const std::vector<std::string> kPhases = {
      "AddLastBit",      "AddLastBlock",        "ApproxAgreement",
      "BA+",             "BroadcastTrimCA",     "DolevStrong",
      "FindPrefix",      "FindPrefixBlocks",    "FixedLengthCA",
      "FixedLengthCABlocks", "GetOutput",       "Gradecast",
      "GradecastAA",     "GradecastAll",        "HighCostCA",
      "PiN",             "PiZ",                 "SignedBroadcastCA",
      "VectorCA",        "lBA+",                "lBA+/distribute",
      "lBA+/root-agreement"};
  return kPhases;
}

/// Metric-name form of a phase: '+' -> "plus", '/' -> '.'.
std::string phase_key(const std::string& phase) {
  if (phase == "(none)" || phase == "(unattributed)") return "none";
  std::string out;
  for (const char ch : phase) {
    if (ch == '+') {
      out += "plus";
    } else if (ch == '/') {
      out += '.';
    } else {
      out += ch;
    }
  }
  return out;
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"},
      {"instance_ms_p50", "ms"},
      {"instance_ms_tail", "ms"},
      {"instances_per_s", "1/s"},
      {"honest_bits_per_instance", "bits"},
      {"rounds_per_instance", "rounds"},
      {"cpu_s_per_instance", "s"},
      {"peak_rss_mb", "MiB"},
  };
  return kDefs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> kDefs = [] {
    std::vector<MetricDef> d;
    for (const char* k : {"codec.rs_encode", "codec.rs_decode",
                          "crypto.merkle_build", "crypto.merkle_verify"}) {
      d.push_back({std::string(k) + ".calls", "calls/inst"});
      d.push_back({std::string(k) + ".ms", "ms/inst"});
    }
    d.push_back({"kernels.share", "share"});
    std::vector<std::string> phases;
    for (const std::string& p : phase_names()) phases.push_back(phase_key(p));
    phases.push_back("none");
    for (const std::string& p : phases) {
      d.push_back({"ca.phase." + p + ".self_ms", "ms/inst"});
      d.push_back({"ca.phase." + p + ".bits", "bits/inst"});
    }
    d.push_back({"ca.share", "share"});
    d.push_back({"net.controller_ms", "ms/inst"});
    d.push_back({"net.controller_share", "share"});
    d.push_back({"net.slices", "count/inst"});
    d.push_back({"net.rounds", "count/inst"});
    d.push_back({"net.honest_messages", "count/inst"});
    d.push_back({"net.payload_copies", "count/inst"});
    d.push_back({"net.round_us_p50", "us"});
    d.push_back({"net.round_us_p99", "us"});
    d.push_back({"svc.route_ms", "ms/inst"});
    d.push_back({"svc.handshake_ms", "ms/inst"});
    d.push_back({"svc.route_us_p50", "us"});
    d.push_back({"svc.route_us_p99", "us"});
    d.push_back({"svc.route_share", "share"});
    d.push_back({"svc.frames_per_round", "frames/round"});
    d.push_back({"svc.wire_bytes_per_round", "bytes/round"});
    d.push_back({"svc.wire_copies_per_round", "copies/round"});
    d.push_back({"svc.slab_allocs_per_round", "allocs/round"});
    d.push_back({"svc.reconnects", "count/inst"});
    d.push_back({"svc.replayed_rounds", "count/inst"});
    d.push_back({"svc.recovery_ms_p50", "ms"});
    d.push_back({"engine.kernel_batch.calls_per_flush", "calls/flush"});
    d.push_back({"engine.lane_events", "count/inst"});
    d.push_back({"engine.parallel_efficiency", "share"});
    d.push_back({"other.ms", "ms/inst"});
    d.push_back({"obs.traced_wall_ms", "ms/inst"});
    d.push_back({"obs.trace_overhead_share", "share"});
    d.push_back({"obs.unattributed_share", "share"});
    d.push_back({"obs.reconciled", "bool"});
    return d;
  }();
  return kDefs;
}

// ---------------------------------------------------------------------------
// Statistics and formatting.

/// Linear-interpolated percentile (p in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::vector<double> to_us(const std::vector<std::uint64_t>& ns) {
  std::vector<double> out;
  out.reserve(ns.size());
  for (const std::uint64_t x : ns) out.push_back(static_cast<double>(x) / 1e3);
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

double cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Ticks in which the hypervisor ran something else while this machine's
/// CPUs wanted to run ("steal" in /proc/stat), summed over CPUs; 0 where
/// not reported.
std::uint64_t steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t field[8] = {};
  in >> cpu;
  for (auto& f : field) in >> f;
  return in ? field[7] : 0;
}

double peak_rss_mib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Host and build fingerprint.

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  }
  return "unknown";
}

void print_fingerprint(const Config& cfg, const Workload& w) {
  std::cout << "# host: nproc=" << std::thread::hardware_concurrency()
            << " cpu=\"" << cpu_model() << "\"\n"
            << "# build: compiler=\"" << PERFBENCH_COMPILER
            << "\" type=" << PERFBENCH_BUILD_TYPE << " sha_ni="
            << (coca::crypto::detail::sha_ni_available() ? "yes" : "no")
            << " fibers="
            << (coca::net::fibers_available()
                    ? "ucontext"
                    : "os-threads (COCA_NO_FIBERS or COCA_TSAN)")
            << "\n"
            << "# workload: " << cfg.workload << " seed=" << cfg.seed
            << " seconds=" << num(cfg.seconds) << " trace=" << cfg.trace
            << (cfg.quick ? " quick" : "") << "\n"
            << "# inputs: " << w.describe() << "\n"
            << "# meters pinned for this seed: "
            << (w.pinned() ? "yes (checked)" : "no (reference runs only)")
            << "\n";
}

/// Restricts the process, and every thread it starts later, to the CPU it
/// runs on. Used by wire_uds: its round trip hands off between three
/// threads (client controller, client reader, daemon loop), and across
/// virtual CPUs each handoff pays the hypervisor's wake-up latency, which
/// doubled the session time and made it several times noisier than on one
/// CPU. On one CPU the handoffs are plain context switches.
int pin_to_current_cpu() {
  const int cpu = ::sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return ::sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

// ---------------------------------------------------------------------------
// Passes.

/// Runs units from `*next` until `seconds` elapsed (and, when `whole`, the
/// current cycle is complete), or exactly `cycles` cycles when > 0.
PassResult run_pass(Workload& w, Mode mode, double seconds, bool whole,
                    std::size_t cycles, std::size_t* next) {
  PassResult r;
  const std::size_t per = w.units_per_cycle(mode);
  const std::uint64_t budget = static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t t0 = now_ns();
  std::size_t done = 0;
  for (;;) {
    if (cycles > 0) {
      if (done == cycles * per) break;
    } else if (now_ns() - t0 >= budget && (!whole || done % per == 0) &&
               done > 0) {
      break;
    }
    w.run_unit((*next)++, mode, r);
    ++done;
  }
  r.loop_ns = now_ns() - t0;
  return r;
}

struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  void add(const PassResult& r) {
    attempted += r.instances;
    failed += r.failed;
    for (const auto& f : r.failures) {
      if (failures.size() < 8) failures.push_back(f);
    }
  }
};

template <class F>
double mean_over(const std::vector<Meters>& ms, F f) {
  double s = 0;
  for (const Meters& m : ms) s += static_cast<double>(f(m));
  return ms.empty() ? 0.0 : s / static_cast<double>(ms.size());
}

using Values = std::map<std::string, double>;

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics.

Values end_to_end(const Config& cfg, std::uint64_t process_start_ns,
                  Totals& totals) {
  // setup_s is the median of three whole set-ups (input pool, reference
  // runs, transport, warm-up), not one set-up timed from process start: a
  // single sample moved with host load from run to run. The report also
  // prints the first set-up measured from process start.
  const int reps = cfg.quick ? 1 : 3;
  std::vector<double> setups;
  std::unique_ptr<Workload> w;
  double first_setup_from_start = 0;
  for (int i = 0; i < reps; ++i) {
    w.reset();
    const std::uint64_t t0 = now_ns();
    w = make_workload(cfg);
    PassResult warm;
    w->setup(warm);
    totals.add(warm);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (i == 0) {
      first_setup_from_start =
          static_cast<double>(now_ns() - process_start_ns) / 1e9;
    }
  }
  print_fingerprint(cfg, *w);
  std::size_t next = 0;
  const std::uint64_t steal0 = steal_ticks();
  const double cpu0 = cpu_seconds();
  const PassResult r = cfg.quick ? run_pass(*w, Mode::kTimed, 0, false, 1, &next)
                                 : run_pass(*w, Mode::kTimed, cfg.seconds,
                                            false, 0, &next);
  const double cpu = cpu_seconds() - cpu0;
  const std::uint64_t steal = steal_ticks() - steal0;
  totals.add(r);

  const auto& ms = w->meters();
  // The workload's fixed tail percentile, lowered to the highest one that
  // still has 10 samples beyond it when the run is short: with N samples,
  // p = 100 (N - 11) / (N - 1) puts the interpolation point on index N - 11.
  const std::size_t n_samples = r.unit_ms.size();
  if (!cfg.quick && n_samples < 11) {
    throw coca::Error("perfbench: " + std::to_string(n_samples) +
                      " samples leave no percentile with 10 beyond it; "
                      "raise --seconds");
  }
  const double p_rule =
      n_samples < 11 ? 0.0
                     : 100.0 * static_cast<double>(n_samples - 11) /
                           static_cast<double>(n_samples - 1);
  const double p_tail =
      cfg.quick ? w->tail_percentile() : std::min(w->tail_percentile(), p_rule);
  const auto beyond = static_cast<std::size_t>(
      n_samples == 0 ? 0
                     : n_samples - 1 -
                           static_cast<std::size_t>(std::floor(
                               p_tail / 100.0 *
                               static_cast<double>(n_samples - 1))));
  const double loop_s = static_cast<double>(r.loop_ns) / 1e9;
  Values v;
  v["setup_s"] = percentile(setups, 50);
  v["instance_ms_p50"] = percentile(r.unit_ms, 50);
  v["instance_ms_tail"] = percentile(r.unit_ms, p_tail);
  v["instances_per_s"] =
      ratio(static_cast<double>(r.instances - r.failed), loop_s);
  v["honest_bits_per_instance"] =
      mean_over(ms, [](const Meters& m) { return m.honest_bytes * 8; });
  v["rounds_per_instance"] =
      mean_over(ms, [](const Meters& m) { return m.rounds; });
  v["cpu_s_per_instance"] = ratio(cpu, static_cast<double>(r.instances));
  v["peak_rss_mb"] = peak_rss_mib();

  const auto gaps = to_us(r.round_gaps_ns);
  const auto rec = to_us(r.recovery_ns);
  std::cout << "# setup: " << reps << " set-ups, median "
            << num(v["setup_s"]) << " s; process start to the first set-up's "
            << "end " << num(first_setup_from_start) << " s\n"
            << "# timed: " << r.units << " units, " << r.instances
            << " instances in " << num(loop_s)
            << " s; closed loop, no injected message delay\n"
            << "# host steal during the timed loop: "
            << num(ratio(static_cast<double>(steal) /
                             static_cast<double>(::sysconf(_SC_CLK_TCK)),
                         loop_s * std::thread::hardware_concurrency()))
            << " of all CPU time (time the hypervisor ran other guests)\n"
            << "# instance_ms_tail is p" << num(p_tail) << " of "
            << n_samples << " samples (" << beyond << " beyond it"
            << (p_tail < w->tail_percentile()
                    ? "; lowered from p" + num(w->tail_percentile()) +
                          " to keep 10 beyond it"
                    : std::string())
            << (cfg.quick ? "; quick run, not a measurement" : "") << ")\n";
  for (const auto& d : end_to_end_metrics()) {
    std::cout << "# " << d.name << " = " << num(v[d.name]) << " " << d.unit
              << "\n";
  }
  std::cout << "# round_us_p50 = "
            << (gaps.empty() ? "n/a" : num(percentile(gaps, 50)))
            << " us\n# round_us_p99 = "
            << (gaps.empty() ? "n/a" : num(percentile(gaps, 99))) << " us ("
            << gaps.size() << " round intervals)\n"
            << "# failed_frac = "
            << num(ratio(static_cast<double>(totals.failed),
                         static_cast<double>(totals.attempted)))
            << " (" << totals.failed << " of " << totals.attempted
            << " incl. warm-up)\n"
            << "# recovery_ms_p50 = "
            << (rec.empty() ? "n/a" : num(percentile(rec, 50) / 1e3))
            << " ms (" << rec.size() << " faulted rounds in "
            << r.faulted_sessions << " planned faulted sessions)\n";
  return v;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics.

Values per_layer(const Config& cfg, Totals& totals) {
  std::unique_ptr<Workload> w = make_workload(cfg);
  {
    PassResult warm;
    w->setup(warm);
    totals.add(warm);
  }
  print_fingerprint(cfg, *w);
  const bool sharded = cfg.workload == "sharded_mixed";
  const double s = cfg.seconds;
  std::size_t next = 0;
  Values v;

  if (sharded) {
    // Sharding layer, untraced: the same batch at one worker (the timed
    // configuration) and at W = nproc - 1.
    PassResult at_w;
    PassResult at_1;
    const std::uint64_t t0 = now_ns();
    do {
      w->run_unit(0, Mode::kParallel, at_w);
      w->run_unit(0, Mode::kTimed, at_1);
    } while (!cfg.quick && now_ns() - t0 < static_cast<std::uint64_t>(
                                                 0.35 * s * 1e9));
    totals.add(at_w);
    totals.add(at_1);
    const auto& kb = at_1.kernel_batch;
    v["engine.kernel_batch.calls_per_flush"] =
        ratio(static_cast<double>(kb.rs_calls + kb.merkle_calls),
              static_cast<double>(kb.flushes));
    v["engine.lane_events"] = ratio(static_cast<double>(at_1.lane_events),
                                    static_cast<double>(at_1.instances));
    v["engine.parallel_efficiency"] =
        ratio(percentile(at_1.unit_ms, 50),
              w->parallel_workers() * percentile(at_w.unit_ms, 50));
    std::cout << "# engine: " << at_w.units << " batches at W="
              << w->parallel_workers() << " (median "
              << num(percentile(at_w.unit_ms, 50))
              << " ms), " << at_1.units << " at W=1 (median "
              << num(percentile(at_1.unit_ms, 50)) << " ms); kernel batcher "
              << kb.flushes << " flushes, " << kb.rs_calls << " RS + "
              << kb.merkle_calls << " Merkle calls\n";
  }

  // Untraced pass over whole cycles, then the same cycles traced.
  const Mode plain = sharded ? Mode::kSerial : Mode::kTimed;
  PassResult u = cfg.quick
                     ? run_pass(*w, plain, 0, true, 1, &next)
                     : run_pass(*w, plain, (sharded ? 0.25 : 0.45) * s, true,
                                0, &next);
  const std::size_t cycles = u.units / w->units_per_cycle(plain);
  next = 0;
  PassResult tr = run_pass(*w, Mode::kTraced, 0, true, cycles, &next);
  totals.add(u);
  totals.add(tr);

  const Attribution& a = tr.attribution;
  const double inst = static_cast<double>(std::max<std::uint64_t>(1, a.instances));
  const double wall = static_cast<double>(a.wall_ns);
  const auto ms_per = [&](std::uint64_t ns) {
    return static_cast<double>(ns) / 1e6 / inst;
  };
  static const std::map<std::string, std::string> kKernels = {
      {"rs.encode", "codec.rs_encode"},
      {"rs.decode", "codec.rs_decode"},
      {"merkle.build", "crypto.merkle_build"},
      {"merkle.verify", "crypto.merkle_verify"}};
  // A span or phase without a metric of its own would leave its time out of
  // the per-layer table; the metric list must be extended instead.
  const auto unknown = [&](const std::string& what) {
    totals.failures.push_back("no per-layer metric for " + what +
                              "; add it to the metric table");
    ++totals.failed;
  };
  for (const auto& [name, ns] : a.kernel_ns) {
    const auto it = kKernels.find(name);
    if (it == kKernels.end()) {
      unknown("kernel span '" + name + "'");
      continue;
    }
    v[it->second + ".ms"] = ms_per(ns);
    const auto c = a.kernel_calls.find(name);
    v[it->second + ".calls"] =
        c == a.kernel_calls.end() ? 0 : static_cast<double>(c->second) / inst;
  }
  v["kernels.share"] = ratio(static_cast<double>(a.kernels_total_ns()), wall);

  std::set<std::string> known;
  for (const std::string& p : phase_names()) known.insert(phase_key(p));
  known.insert("none");
  for (const auto& [name, ns] : a.phase_self_ns) {
    if (!known.contains(phase_key(name))) {
      unknown("phase '" + name + "'");
      continue;
    }
    v["ca.phase." + phase_key(name) + ".self_ms"] += ms_per(ns);
  }
  const auto& ms = w->meters();
  std::set<std::string> unknown_metered;
  for (const Meters& m : ms) {
    for (const auto& [name, bytes] : m.phase_bytes) {
      if (!known.contains(phase_key(name))) {
        unknown_metered.insert(name);
        continue;
      }
      v["ca.phase." + phase_key(name) + ".bits"] +=
          static_cast<double>(bytes * 8) / static_cast<double>(ms.size());
    }
  }
  for (const std::string& name : unknown_metered) {
    unknown("metered phase '" + name + "'");
  }
  v["ca.share"] = ratio(static_cast<double>(a.phases_total_ns()), wall);

  v["net.controller_ms"] = ms_per(a.controller_ns);
  v["net.controller_share"] = ratio(static_cast<double>(a.controller_ns), wall);
  v["net.slices"] = static_cast<double>(a.slices) / inst;
  v["net.rounds"] = mean_over(ms, [](const Meters& m) { return m.rounds; });
  v["net.honest_messages"] =
      mean_over(ms, [](const Meters& m) { return m.honest_messages; });
  v["net.payload_copies"] =
      mean_over(ms, [](const Meters& m) { return m.payload_copies; });
  const auto gaps = to_us(u.round_gaps_ns);
  v["net.round_us_p50"] = percentile(gaps, 50);
  v["net.round_us_p99"] = percentile(gaps, 99);

  const double rounds_routed = static_cast<double>(u.routed_rounds);
  v["svc.route_ms"] = ms_per(a.route_ns);
  v["svc.handshake_ms"] = ms_per(a.handshake_ns);
  v["svc.route_us_p50"] = percentile(to_us(u.route_ns), 50);
  v["svc.route_us_p99"] = percentile(to_us(u.route_ns), 99);
  v["svc.route_share"] = ratio(static_cast<double>(a.route_ns), wall);
  v["svc.frames_per_round"] = ratio(static_cast<double>(u.frames), rounds_routed);
  v["svc.wire_bytes_per_round"] =
      ratio(static_cast<double>(u.wire_bytes), rounds_routed);
  v["svc.wire_copies_per_round"] =
      ratio(static_cast<double>(u.wire_copies), rounds_routed);
  v["svc.slab_allocs_per_round"] =
      ratio(static_cast<double>(u.slab_allocs), rounds_routed);
  const double sessions = static_cast<double>(u.sessions);
  v["svc.reconnects"] = ratio(static_cast<double>(u.reconnects), sessions);
  v["svc.replayed_rounds"] =
      ratio(static_cast<double>(u.replayed_rounds), sessions);
  v["svc.recovery_ms_p50"] = percentile(to_us(u.recovery_ns), 50) / 1e3;

  const auto untraced_ns = static_cast<double>(u.instance_ns);
  v["other.ms"] = ms_per(a.other_ns);
  v["obs.traced_wall_ms"] = ms_per(a.wall_ns);
  v["obs.trace_overhead_share"] = ratio(wall - untraced_ns, untraced_ns);
  v["obs.unattributed_share"] = ratio(static_cast<double>(a.other_ns), wall);
  const bool reconciled = a.exact && a.bucket_sum_ns() == a.wall_ns;
  v["obs.reconciled"] = reconciled ? 1 : 0;

  // Reconciliation table: every bucket in ns; they sum to the traced wall.
  std::cout << "# traced: " << a.instances << " instances (" << cycles
            << " cycles), untraced twin " << u.instances << " instances\n"
            << "# reconciliation (ns, summed over traced instances):\n";
  std::uint64_t sum = 0;
  const auto row = [&](const std::string& name, std::uint64_t ns) {
    sum += ns;
    std::cout << "#   " << name << " " << ns << "\n";
  };
  for (const auto& [name, ns] : a.kernel_ns) row("kernel " + name, ns);
  for (const auto& [name, ns] : a.phase_self_ns) row("phase " + name, ns);
  row("net.controller", a.controller_ns);
  row("svc.route", a.route_ns);
  row("svc.handshake", a.handshake_ns);
  row("other", a.other_ns);
  std::cout << "#   sum " << sum << " == traced wall " << a.wall_ns << ": "
            << (sum == a.wall_ns ? "yes" : "NO") << "; nesting checks "
            << (a.exact ? "hold" : "FAILED: " + a.problem) << "\n";
  if (!reconciled) {
    totals.failures.push_back("traced run does not reconcile: " + a.problem);
    ++totals.failed;
  }

  if (tr.last_trace) {
    const std::string path =
        cfg.out_dir + "/" + cfg.workload + ".perfetto.json";
    std::ofstream out(path);
    out << coca::obs::chrome_trace_json(*tr.last_trace);
    std::cout << "# perfetto export of the last traced instance: " << path
              << "\n";
  }
  for (const auto& d : per_layer_metrics()) {
    std::cout << "# " << d.name << " = " << num(v[d.name]) << " " << d.unit
              << "\n";
  }
  return v;
}

void print_result(const Totals& t, const Values& v,
                  const std::vector<MetricDef>& defs) {
  for (const auto& f : t.failures) std::cout << "# FAILED: " << f << "\n";
  std::ostringstream os;
  os << "{\"correct\": " << (t.failed == 0 && t.attempted > 0 ? "true" : "false")
     << ", \"attempted\": " << t.attempted << ", \"failed\": " << t.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& d : defs) {
    const auto it = v.find(d.name);
    os << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": "
       << num(it == v.end() ? 0.0 : it->second) << ", \"unit\": \"" << d.unit
       << "\"}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

/// The pin-file line of this workload and seed (pinned_meters.txt).
void print_meters(const Config& cfg) {
  Config c = cfg;
  c.pinned_path.clear();
  std::unique_ptr<Workload> w = make_workload(c);
  PassResult warm;
  w->setup(warm);
  std::size_t next = 0;
  const PassResult r = run_pass(*w, Mode::kTimed, 0, true, 1, &next);
  if (warm.failed + r.failed != 0) {
    throw coca::Error("perfbench: refusing to pin a failing pool: " +
                      (warm.failed ? warm.failures : r.failures).front());
  }
  std::cout << (c.quick ? c.workload + "/quick" : c.workload) << " " << c.seed
            << " " << pin_line(w->meters()) << "\n";
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "coca_perfbench: " << why
            << "\nusage: coca_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--quick] [--out-dir DIR] [--pinned FILE]\n"
               "       coca_perfbench --print-meters --workload NAME --seed N\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& s, const char* what) {
  std::uint64_t v = 0;
  const auto res = std::from_chars(s.data(), s.data() + s.size(), v);
  if (res.ec != std::errc() || res.ptr != s.data() + s.size()) {
    usage(std::string("bad ") + what + " '" + s + "'");
  }
  return v;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::uint64_t process_start_ns = now_ns();
  Config cfg;
  bool trace_set = false;
  bool print_pins = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      cfg.workload = next();
    } else if (arg == "--seed") {
      cfg.seed = parse_u64(next(), "seed");
    } else if (arg == "--seconds") {
      cfg.seconds = static_cast<double>(parse_u64(next(), "seconds"));
    } else if (arg == "--trace") {
      const std::string t = next();
      if (t != "0" && t != "1") usage("--trace takes 0 or 1");
      cfg.trace = t == "1";
      trace_set = true;
    } else if (arg == "--quick") {
      cfg.quick = true;
    } else if (arg == "--out-dir") {
      cfg.out_dir = next();
    } else if (arg == "--pinned") {
      cfg.pinned_path = next();
    } else if (arg == "--print-meters") {
      print_pins = true;
    } else {
      usage("unknown argument '" + arg + "'");
    }
  }
  if (std::getenv("COCA_THREADS") != nullptr) {
    std::cerr << "coca_perfbench: refusing to run with COCA_THREADS set (it "
                 "changes the round schedule); unset it\n";
    return 2;
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), cfg.workload) == names.end()) {
    usage("--workload must be one of piz_wide_input, piz_many_parties, "
          "sharded_mixed, wire_uds");
  }
  try {
    if (print_pins) {
      print_meters(cfg);
      return 0;
    }
    if (!trace_set) usage("--trace is required");
    if (cfg.seconds <= 0) usage("--seconds must be positive");
    if (cfg.workload == "wire_uds") {
      const int cpu = pin_to_current_cpu();
      std::cout << "# affinity: "
                << (cpu >= 0 ? "all threads on cpu " + std::to_string(cpu)
                             : std::string("pinning failed, unpinned"))
                << "\n";
    }
    Totals totals;
    if (cfg.trace) {
      const Values v = per_layer(cfg, totals);
      print_result(totals, v, per_layer_metrics());
    } else {
      const Values v = end_to_end(cfg, process_start_ns, totals);
      print_result(totals, v, end_to_end_metrics());
    }
  } catch (const std::exception& e) {
    std::cerr << "coca_perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

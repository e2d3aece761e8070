// bench_runner: reproducible protocol benchmarks with machine-readable output.
//
//   bench_runner                          # full pinned matrix to stdout
//   bench_runner --out BENCH_PR3.json     # write the JSON to a file
//   bench_runner --baseline seed.json     # embed a prior run for before/after
//   bench_runner --reps 5                 # best-of-N timing (default 3)
//   bench_runner --smoke                  # CI probe: one fast config plus the
//                                         # zero-copy broadcast check
//   bench_runner --trace                  # embed per-entry phase_bits (the
//                                         # leaf phase breakdown, in bits)
//   bench_runner --wire                   # add the "wire_entries" section:
//                                         # every protocol over an in-process
//                                         # epoll daemon (UDS and TCP
//                                         # loopback) vs. the simulator --
//                                         # plus "wire_fault_entries": the
//                                         # recovery cost (latency, replayed
//                                         # rounds/bytes, reconnects) of each
//                                         # wire-fault kind, bit-identical
//                                         # convergence enforced
//
// The matrix is pinned (protocol, n, ell, seed) so runs are
// comparable across commits; every entry reports wall-clock seconds,
// honest_bits, rounds, and payload_copies. Full runs additionally sweep a
// fault matrix -- one crash-recovery configuration at f = t per protocol
// target -- emitted as a separate "fault_entries" array so the honest
// "entries" array stays byte-comparable against pre-fault baselines. The
// JSON schema is versioned ("coca-bench-v2") so downstream tooling can
// detect shape changes. v2 is additive over v1: wire_entries rows gain
// "copies_per_round" (decoder remainder relocations, from
// PayloadMetrics::wire_copies) and "allocs_per_round" (fresh slab
// allocations, from net::BufferPool stats); v1 consumers that ignore
// unknown fields keep working.
//
// Exit status: 0 = success, 1 = a run failed agreement or a smoke invariant
// (honest broadcast must perform zero deep payload copies), 2 = usage error.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "adversary/degradation.h"
#include "adversary/fuzzer.h"
#include "engine/engine.h"
#include "ca/broadcast_ca.h"
#include "ca/driver.h"
#include "net/buffer_pool.h"
#include "net/payload.h"
#include "net/sync_network.h"
#include "svc/chaos.h"
#include "svc/client.h"
#include "svc/server.h"
#include "svc/wire_fault.h"
#include "util/rng.h"

namespace {

using namespace coca;

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "bench_runner: " << error << "\n\n";
  std::cerr << "usage: bench_runner [options]\n"
               "  --smoke            fast CI probe (one config + zero-copy "
               "broadcast check)\n"
               "  --out FILE         write JSON to FILE (default or '-': stdout)\n"
               "  --baseline FILE    embed FILE's JSON as the \"baseline\" "
               "field\n"
               "  --reps N           best-of-N wall-clock (default 3)\n"
               "  --trace            embed per-entry phase_bits breakdowns\n"
               "  --wire             add wire_entries (simulator vs UDS/TCP "
               "loopback daemon)\n"
               "                     and wire_fault_entries (recovery cost "
               "per fault kind)\n"
               "  --wire-uds PATH    with --wire: connect to an already "
               "running coca_serve\n"
               "                     on PATH instead of an in-process "
               "daemon (UDS rows only)\n";
  std::exit(2);
}

int max_t(int n) { return (n - 1) / 3; }

/// Input spread pinned by seed: top bit set so every value has exactly
/// `bits` bits, remainder uniform. Matches the seed-baseline capture.
std::vector<BigInt> spread_inputs(int n, std::size_t bits,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<BigInt> inputs;
  for (int i = 0; i < n; ++i) {
    inputs.emplace_back(BigNat::pow2(bits - 1) + rng.nat_below_pow2(bits - 1),
                        false);
  }
  return inputs;
}

struct Entry {
  const char* bench;
  const char* protocol;
  int n;
  std::size_t ell;
  adv::Kind kind;
  std::uint64_t seed;
};

std::vector<Entry> full_matrix() {
  std::vector<Entry> m;
  for (std::size_t ell : {std::size_t{1} << 14, std::size_t{1} << 16,
                          std::size_t{1} << 18, std::size_t{1} << 20}) {
    m.push_back({"comm_vs_ell", "PiZ", 13, ell, adv::Kind::kGarbage,
                 2000 + ell});
  }
  for (std::size_t ell :
       {std::size_t{1} << 14, std::size_t{1} << 16, std::size_t{1} << 18}) {
    m.push_back({"comm_vs_ell", "BroadcastTrim", 13, ell, adv::Kind::kGarbage,
                 2000 + ell});
  }
  for (int n : {13, 19, 25, 31}) {
    m.push_back({"comm_vs_n", "PiZ", n, 16384, adv::Kind::kSilent,
                 1001 + static_cast<unsigned>(n)});
  }
  return m;
}

std::vector<Entry> smoke_matrix() {
  return {{"smoke", "PiZ", 13, std::size_t{1} << 14, adv::Kind::kGarbage,
           2000 + (std::size_t{1} << 14)}};
}

/// The fault matrix: one benign-fault configuration per protocol target,
/// crash-recovery at the full charge budget f = t. These rows land in a
/// separate "fault_entries" JSON array (the honest "entries" array stays
/// byte-comparable against pre-fault baselines) so BENCH_*.json tracks
/// honest-bits/rounds stability under environment faults across commits.
struct FaultEntry {
  std::string protocol;
  int n;
  std::size_t ell;
  std::uint64_t seed;
};

std::vector<FaultEntry> fault_matrix() {
  std::vector<FaultEntry> m;
  for (const std::string& protocol : adv::known_protocols()) {
    m.push_back({protocol, 7, 256, 0xFA170000 + m.size()});
  }
  return m;
}

struct FaultResult {
  FaultEntry entry;
  double seconds = 0;
  std::uint64_t honest_bits = 0;
  std::size_t rounds = 0;
};

/// Runs one fault-matrix entry best-of-`reps` through the guarded engine;
/// throws if any oracle invariant breaks (f = t is within the covered
/// regime, so every guarantee is owed).
FaultResult run_fault_entry(const FaultEntry& e, int reps) {
  adv::FuzzCase c;
  c.protocol = e.protocol;
  c.n = e.n;
  c.t = max_t(e.n);
  c.ell = e.ell;
  c.input_seed = e.seed;
  c.faults =
      adv::degradation_plan(adv::FaultKind::kCrashRecovery, c.t, c.n);
  FaultResult out{e};
  out.seconds = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const adv::FuzzOutcome r = adv::execute_case(c);
    const auto stop = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(stop - start).count();
    if (s < out.seconds) out.seconds = s;
    if (!r.verdict.ok()) {
      throw Error("bench_runner: " + e.protocol +
                  " violated an invariant under crash-recovery at f=t: " +
                  r.verdict.violations.front());
    }
    out.honest_bits = r.stats.honest_bits();
    out.rounds = r.stats.rounds;
  }
  return out;
}

/// Instance-sharded engine throughput rows (full runs only): the same K
/// honest PiZ cases pushed through engine::Engine at each worker count.
/// Honest bits and rounds are schedule-independent (the engine's headline
/// invariant), so only `seconds` may move between the rows -- a cheap
/// cross-commit tripwire for both throughput and determinism.
struct ThroughputResult {
  int workers = 0;
  int instances = 0;
  double seconds = 0;
  std::uint64_t honest_bits = 0;
  std::uint64_t rounds = 0;
};

std::vector<ThroughputResult> run_throughput_matrix(int reps) {
  constexpr int kInstances = 16;
  std::vector<adv::FuzzCase> cases;
  for (int i = 0; i < kInstances; ++i) {
    adv::FuzzCase c;
    c.protocol = "PiZ";
    c.n = 7;
    c.t = 2;
    c.ell = std::size_t{1} << 14;
    c.input_seed = 0x7B06 + static_cast<std::uint64_t>(i);
    cases.push_back(std::move(c));
  }
  std::vector<ThroughputResult> rows;
  for (const int workers : {1, 8}) {
    ThroughputResult row;
    row.workers = workers;
    row.instances = kInstances;
    row.seconds = 1e100;
    for (int rep = 0; rep < reps; ++rep) {
      engine::EngineOptions opt;
      opt.workers = workers;
      opt.record_transcripts = false;
      const engine::EngineReport report = engine::Engine(opt).run(cases);
      if (report.seconds < row.seconds) row.seconds = report.seconds;
      row.honest_bits = report.honest_bytes * 8;
      row.rounds = report.rounds;
    }
    if (!rows.empty() && (rows.front().honest_bits != row.honest_bits ||
                          rows.front().rounds != row.rounds)) {
      throw Error(
          "bench_runner: engine throughput rows disagree on honest bits or "
          "rounds across worker counts (determinism breach)");
    }
    rows.push_back(row);
  }
  return rows;
}

/// Wire matrix (--wire): every protocol target at n=7, run three ways from
/// the same seed -- plain simulator, over an in-process epoll daemon via
/// UDS, and via TCP loopback. Honest bits/rounds/payload_copies must be
/// bit-identical across all three (the wire is a pure transport); only
/// wall-clock may differ, and that difference is the number the section
/// exists to track.
struct WireResult {
  std::string protocol;
  const char* transport = "uds";
  std::uint64_t seed = 0;
  double sim_seconds = 0;
  double wire_seconds = 0;
  std::uint64_t honest_bits = 0;
  std::uint64_t rounds = 0;
  std::uint64_t payload_copies = 0;
  /// v2 columns, sampled over the final (warmest) rep: decoder remainder
  /// relocations and fresh slab allocations per protocol round. Both sit
  /// at 0.000 in steady state -- the receive path reads into pooled slabs
  /// and delivers views, so nothing is copied or allocated per round.
  double copies_per_round = 0;
  double allocs_per_round = 0;
};

/// With `external_uds` empty, stands up an in-process daemon serving both
/// UDS and TCP loopback and emits one row per transport. With a path, it
/// connects to an already running coca_serve there (CI starts the real
/// binary) and emits UDS rows only.
std::vector<WireResult> run_wire_matrix(int reps,
                                        const std::string& external_uds) {
  const bool own_daemon = external_uds.empty();
  const std::string uds_path =
      own_daemon ? "/tmp/coca-bench-" + std::to_string(::getpid()) + ".sock"
                 : external_uds;
  std::unique_ptr<svc::Daemon> daemon;
  if (own_daemon) {
    svc::DaemonOptions dopt;
    dopt.uds_path = uds_path;
    dopt.tcp = true;
    daemon = std::make_unique<svc::Daemon>(dopt);
    daemon->start();
  }
  std::vector<WireResult> rows;
  {
    const auto uds_client = svc::WireClient::connect_uds_path(uds_path);
    const auto tcp_client =
        own_daemon ? svc::WireClient::connect_tcp(daemon->tcp_port())
                   : nullptr;
    std::uint64_t seed = 0x31BE;
    for (const std::string& protocol : adv::known_protocols()) {
      adv::FuzzCase c;
      c.protocol = protocol;
      c.n = 7;
      c.t = 2;
      c.ell = 256;
      c.input_seed = seed++;

      double sim_seconds = 1e100;
      adv::FuzzOutcome sim;
      for (int rep = 0; rep < reps; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        sim = adv::execute_case(c);
        const auto stop = std::chrono::steady_clock::now();
        sim_seconds = std::min(
            sim_seconds, std::chrono::duration<double>(stop - start).count());
      }
      if (!sim.verdict.ok()) {
        throw Error("bench_runner: " + protocol +
                    " failed its oracle in the wire baseline");
      }

      for (svc::WireClient* client : {uds_client.get(), tcp_client.get()}) {
        if (client == nullptr) continue;
        WireResult row;
        row.protocol = protocol;
        row.transport = client == uds_client.get() ? "uds" : "tcp";
        row.seed = c.input_seed;
        row.sim_seconds = sim_seconds;
        row.wire_seconds = 1e100;
        for (int rep = 0; rep < reps; ++rep) {
          const auto session = client->open(c.n, c.t);
          adv::ExecHooks hooks;
          hooks.router = session.get();
          const std::uint64_t copies_before = net::PayloadMetrics::wire_copies();
          const std::uint64_t allocs_before =
              net::BufferPool::instance().stats().slab_allocs;
          const auto start = std::chrono::steady_clock::now();
          const adv::FuzzOutcome wired = adv::execute_case(c, hooks);
          const auto stop = std::chrono::steady_clock::now();
          if (wired.stats.rounds > 0) {
            const double rounds_d = static_cast<double>(wired.stats.rounds);
            row.copies_per_round = static_cast<double>(
                net::PayloadMetrics::wire_copies() - copies_before) / rounds_d;
            row.allocs_per_round = static_cast<double>(
                net::BufferPool::instance().stats().slab_allocs -
                allocs_before) / rounds_d;
          }
          row.wire_seconds = std::min(
              row.wire_seconds,
              std::chrono::duration<double>(stop - start).count());
          if (wired.stats.honest_bits() != sim.stats.honest_bits() ||
              wired.stats.rounds != sim.stats.rounds ||
              wired.stats.payload_copies != sim.stats.payload_copies) {
            throw Error("bench_runner: " + protocol + " over " +
                        row.transport +
                        " diverged from the simulator (honest bits, rounds, "
                        "or payload copies)");
          }
          row.honest_bits = wired.stats.honest_bits();
          row.rounds = wired.stats.rounds;
          row.payload_copies = wired.stats.payload_copies;
        }
        rows.push_back(std::move(row));
      }
    }
  }
  if (own_daemon) {
    daemon->stop();
    ::unlink(uds_path.c_str());
  }
  return rows;
}

/// Wire-fault recovery matrix (--wire): one row per WireFaultPlan kind, a
/// single fault injected at round 1 of a BAPlus n=7 run through the chaos
/// harness (daemon + recovery-enabled client). Every row must recover
/// bit-identically -- a divergence is a hard abort, not a slow row -- so
/// what the section tracks across commits is the *cost* of recovery:
/// wall-clock, client-measured recovery latency, reconnects, and replayed
/// rounds/bytes per fault kind.
struct WireFaultBenchResult {
  const char* kind = "";
  std::uint64_t seed = 0;
  double seconds = 0;
  std::uint64_t recovery_ms = 0;
  std::uint64_t outages = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t replayed_rounds = 0;
  std::uint64_t replayed_bytes = 0;
};

std::vector<WireFaultBenchResult> run_wire_fault_matrix(int reps) {
  using Kind = svc::WireFaultPlan::Kind;
  std::vector<WireFaultBenchResult> rows;
  std::uint64_t seed = 0xFA17;
  for (const Kind kind :
       {Kind::kKillBeforeFlush, Kind::kKillAfterFlush, Kind::kDelayFlush,
        Kind::kStallRead, Kind::kTruncateFrame, Kind::kClientKill,
        Kind::kClientPartialWrite}) {
    adv::FuzzCase c;
    c.protocol = "BAPlus";
    c.n = 7;
    c.t = 2;
    c.ell = 256;
    c.input_seed = seed;

    svc::WireFaultPlan::Entry e;
    e.kind = kind;
    e.round = 1;
    if (kind == Kind::kDelayFlush || kind == Kind::kStallRead) {
      e.delay_ms = 50;
    }
    if (kind == Kind::kTruncateFrame || kind == Kind::kClientPartialWrite) {
      e.truncate_bytes = 40;
    }
    svc::ChaosOptions copt;
    copt.plan.entries.push_back(e);
    copt.backoff_initial_ms = 1;
    copt.backoff_max_ms = 20;

    WireFaultBenchResult row;
    row.kind = svc::to_string(kind);
    row.seed = seed++;
    row.seconds = 1e100;
    for (int rep = 0; rep < reps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      const svc::ChaosReport r = svc::run_case_under_wire_faults(c, copt);
      const auto stop = std::chrono::steady_clock::now();
      if (!r.identical) {
        throw Error(std::string("bench_runner: BAPlus under ") + row.kind +
                    " did not recover bit-identically: " +
                    (r.mismatch.empty() ? r.wired.failure : r.mismatch));
      }
      row.seconds = std::min(
          row.seconds, std::chrono::duration<double>(stop - start).count());
      row.recovery_ms = r.stats.client_recovery_ms;
      row.outages = r.stats.client_outages;
      row.reconnects = r.stats.client_reconnects;
      row.replayed_rounds = r.stats.daemon_replayed_rounds;
      row.replayed_bytes = r.stats.daemon_replayed_bytes;
    }
    rows.push_back(row);
  }
  return rows;
}

/// Zero-copy over the wire: the same honest all-to-all broadcast as
/// zero_copy_probe, but with every round crossing the UDS daemon. The send
/// path writes (header, payload-view) iovecs straight from the protocol's
/// buffers, and the receive path reads into pooled slabs and delivers
/// views, so payload_copies must stay exactly zero end to end -- and once
/// the pool is warm, a steady-state session must allocate no new slabs.
/// Probed with session resumption off: the replay log deliberately pins
/// receive slabs across committed rounds, which makes steady-state slab
/// demand fragmentation-dependent; retention's own no-leak discipline is
/// wire_soak's job.
bool wire_zero_copy_probe(std::string* detail) {
  const std::string uds_path =
      "/tmp/coca-bench-zc-" + std::to_string(::getpid()) + ".sock";
  svc::DaemonOptions dopt;
  dopt.uds_path = uds_path;
  dopt.resume_grace_ms = 0;  // no retention: the transport-only profile
  svc::Daemon daemon(dopt);
  daemon.start();
  net::RunStats stats;
  std::uint64_t steady_slab_allocs = 0;
  {
    const auto client = svc::WireClient::connect_uds_path(uds_path);
    const auto broadcast_session = [&client]() {
      const auto session = client->open(7, 2);
      net::SyncNetwork net(7, 2);
      net.set_round_router(session.get());
      for (int i = 0; i < 7; ++i) {
        net.set_honest(i, [](net::PartyContext& ctx) {
          for (int r = 0; r < 5; ++r) {
            Bytes big(4096, static_cast<std::uint8_t>(r));
            ctx.send_all(std::move(big));
            ctx.advance();
          }
        });
      }
      return net.run();
    };
    (void)broadcast_session();  // warm-up: the pool reaches its high-water
    const std::uint64_t warm = net::BufferPool::instance().stats().slab_allocs;
    stats = broadcast_session();
    steady_slab_allocs =
        net::BufferPool::instance().stats().slab_allocs - warm;
  }
  daemon.stop();
  ::unlink(uds_path.c_str());
  std::ostringstream os;
  os << "payload_copies=" << stats.payload_copies
     << " payload_bytes_copied=" << stats.payload_bytes_copied
     << " steady_state_slab_allocs=" << steady_slab_allocs;
  *detail = os.str();
  return stats.payload_copies == 0 && steady_slab_allocs == 0;
}

struct Result {
  Entry entry;
  double seconds = 0;
  std::uint64_t honest_bits = 0;
  std::size_t rounds = 0;
  std::uint64_t payload_copies = 0;
  /// Leaf phase breakdown in bits (--trace only); sums to honest_bits.
  std::map<std::string, std::uint64_t> phase_bits;
};

/// Runs one matrix entry best-of-`reps`; throws on protocol failure.
Result run_entry(const Entry& e, int reps, bool trace) {
  static const ca::ConvexAgreement pi_z;
  static const ca::DefaultBAStack stack;
  static const ca::BroadcastTrimCA broadcast(stack.kit());
  const ca::CAProtocol& proto =
      std::string(e.protocol) == "PiZ"
          ? static_cast<const ca::CAProtocol&>(pi_z)
          : static_cast<const ca::CAProtocol&>(broadcast);

  ca::SimConfig cfg;
  cfg.n = e.n;
  cfg.t = max_t(e.n);
  cfg.inputs = spread_inputs(e.n, e.ell, e.seed);
  for (int i = 0; i < cfg.t; ++i) {
    cfg.corruptions.push_back({(i * e.n) / std::max(1, cfg.t) + 1, e.kind});
  }
  cfg.extreme_low = BigInt(0);
  cfg.extreme_high = BigInt(BigNat::pow2(24), false);

  Result out;
  out.entry = e;
  out.seconds = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const ca::SimResult r = ca::run_simulation(proto, cfg);
    const auto stop = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(stop - start).count();
    if (s < out.seconds) out.seconds = s;
    out.honest_bits = r.stats.honest_bits();
    out.rounds = r.stats.rounds;
    out.payload_copies = r.stats.payload_copies;
    if (trace) {
      out.phase_bits.clear();
      for (const auto& [phase, bytes] : r.stats.phase_breakdown) {
        out.phase_bits[phase] = bytes * 8;
      }
    }
    if (!r.agreement()) {
      throw Error("bench_runner: agreement violated in benchmark run");
    }
  }
  return out;
}

/// The zero-copy invariant probe: honest-only all-to-all broadcast of a
/// 4 KiB payload. With the shared-buffer substrate this performs no deep
/// payload copies at all, and the tier-1 test suite pins the same property;
/// the smoke job fails loudly if a regression reintroduces copies.
bool zero_copy_probe(std::string* detail) {
  const int n = 7;
  const int rounds = 5;
  net::SyncNetwork net(n, 2);
  for (int i = 0; i < n; ++i) {
    net.set_honest(i, [rounds](net::PartyContext& ctx) {
      for (int r = 0; r < rounds; ++r) {
        Bytes big(4096, static_cast<std::uint8_t>(r));
        ctx.send_all(std::move(big));  // rvalue: wraps without copying
        ctx.advance();
      }
    });
  }
  const net::RunStats stats = net.run();
  std::ostringstream os;
  os << "payload_copies=" << stats.payload_copies
     << " payload_bytes_copied=" << stats.payload_bytes_copied;
  *detail = os.str();
  return stats.payload_copies == 0;
}

void write_json(std::ostream& os, const std::vector<Result>& results,
                const std::vector<FaultResult>& fault_results,
                const std::vector<ThroughputResult>& throughput_results,
                const std::vector<WireResult>& wire_results,
                const std::vector<WireFaultBenchResult>& wire_fault_results,
                const std::string& baseline_text, bool smoke) {
  os << "{\n";
  os << "  \"schema\": \"coca-bench-v2\",\n";
  os << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n";
  os << "  \"entries\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"bench\": \"%s\", \"protocol\": \"%s\", \"n\": %d, \"t\": %d, "
        "\"ell_bits\": %zu, \"threads\": 1, \"seed\": %llu, "
        "\"seconds\": %.6f, \"honest_bits\": %llu, \"rounds\": %zu, "
        "\"payload_copies\": %llu",
        r.entry.bench, r.entry.protocol, r.entry.n, max_t(r.entry.n),
        r.entry.ell, static_cast<unsigned long long>(r.entry.seed), r.seconds,
        static_cast<unsigned long long>(r.honest_bits), r.rounds,
        static_cast<unsigned long long>(r.payload_copies));
    os << buf;
    // Only --trace runs carry the breakdown, so untraced output stays
    // byte-identical to pre --trace baselines.
    if (!r.phase_bits.empty()) {
      os << ", \"phase_bits\": {";
      bool first = true;
      for (const auto& [phase, bits] : r.phase_bits) {
        os << (first ? "" : ", ") << "\"" << phase << "\": " << bits;
        first = false;
      }
      os << "}";
    }
    os << "}" << (i + 1 < results.size() ? ",\n" : "\n");
  }
  os << "  ]";
  if (!fault_results.empty()) {
    os << ",\n  \"fault_entries\": [\n";
    for (std::size_t i = 0; i < fault_results.size(); ++i) {
      const FaultResult& r = fault_results[i];
      char buf[512];
      std::snprintf(
          buf, sizeof(buf),
          "    {\"bench\": \"fault_recovery\", \"protocol\": \"%s\", "
          "\"n\": %d, \"t\": %d, \"ell_bits\": %zu, "
          "\"fault\": \"crash-recovery\", \"f\": %d, \"threads\": 1, "
          "\"seed\": %llu, \"seconds\": %.6f, \"honest_bits\": %llu, "
          "\"rounds\": %zu}%s",
          r.entry.protocol.c_str(), r.entry.n, max_t(r.entry.n), r.entry.ell,
          max_t(r.entry.n), static_cast<unsigned long long>(r.entry.seed),
          r.seconds, static_cast<unsigned long long>(r.honest_bits), r.rounds,
          i + 1 < fault_results.size() ? ",\n" : "\n");
      os << buf;
    }
    os << "  ]";
  }
  if (!throughput_results.empty()) {
    os << ",\n  \"throughput_entries\": [\n";
    for (std::size_t i = 0; i < throughput_results.size(); ++i) {
      const ThroughputResult& r = throughput_results[i];
      char buf[512];
      std::snprintf(
          buf, sizeof(buf),
          "    {\"bench\": \"throughput\", \"protocol\": \"PiZ\", "
          "\"n\": 7, \"t\": 2, \"ell_bits\": %zu, \"instances\": %d, "
          "\"workers\": %d, \"seconds\": %.6f, "
          "\"instances_per_sec\": %.3f, \"honest_bits\": %llu, "
          "\"honest_bits_per_sec\": %.0f, \"rounds\": %llu}%s",
          std::size_t{1} << 14, r.instances, r.workers, r.seconds,
          r.instances / r.seconds,
          static_cast<unsigned long long>(r.honest_bits),
          static_cast<double>(r.honest_bits) / r.seconds,
          static_cast<unsigned long long>(r.rounds),
          i + 1 < throughput_results.size() ? ",\n" : "\n");
      os << buf;
    }
    os << "  ]";
  }
  if (!wire_results.empty()) {
    os << ",\n  \"wire_entries\": [\n";
    for (std::size_t i = 0; i < wire_results.size(); ++i) {
      const WireResult& r = wire_results[i];
      char buf[512];
      std::snprintf(
          buf, sizeof(buf),
          "    {\"bench\": \"wire\", \"protocol\": \"%s\", "
          "\"transport\": \"%s\", \"n\": 7, \"t\": 2, \"ell_bits\": 256, "
          "\"threads\": 1, \"seed\": %llu, \"sim_seconds\": %.6f, "
          "\"wire_seconds\": %.6f, \"honest_bits\": %llu, \"rounds\": %llu, "
          "\"payload_copies\": %llu, \"copies_per_round\": %.3f, "
          "\"allocs_per_round\": %.3f}%s",
          r.protocol.c_str(), r.transport,
          static_cast<unsigned long long>(r.seed), r.sim_seconds,
          r.wire_seconds, static_cast<unsigned long long>(r.honest_bits),
          static_cast<unsigned long long>(r.rounds),
          static_cast<unsigned long long>(r.payload_copies),
          r.copies_per_round, r.allocs_per_round,
          i + 1 < wire_results.size() ? ",\n" : "\n");
      os << buf;
    }
    os << "  ]";
  }
  if (!wire_fault_results.empty()) {
    os << ",\n  \"wire_fault_entries\": [\n";
    for (std::size_t i = 0; i < wire_fault_results.size(); ++i) {
      const WireFaultBenchResult& r = wire_fault_results[i];
      char buf[512];
      std::snprintf(
          buf, sizeof(buf),
          "    {\"bench\": \"wire_fault\", \"protocol\": \"BAPlus\", "
          "\"fault\": \"%s\", \"n\": 7, \"t\": 2, \"ell_bits\": 256, "
          "\"threads\": 1, \"seed\": %llu, \"seconds\": %.6f, "
          "\"recovery_ms\": %llu, \"outages\": %llu, \"reconnects\": %llu, "
          "\"replayed_rounds\": %llu, \"replayed_bytes\": %llu}%s",
          r.kind, static_cast<unsigned long long>(r.seed), r.seconds,
          static_cast<unsigned long long>(r.recovery_ms),
          static_cast<unsigned long long>(r.outages),
          static_cast<unsigned long long>(r.reconnects),
          static_cast<unsigned long long>(r.replayed_rounds),
          static_cast<unsigned long long>(r.replayed_bytes),
          i + 1 < wire_fault_results.size() ? ",\n" : "\n");
      os << buf;
    }
    os << "  ]";
  }
  if (!baseline_text.empty()) {
    os << ",\n  \"baseline\": " << baseline_text;
  }
  os << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool trace = false;
  bool wire = false;
  int reps = 3;
  std::string out_path;
  std::string baseline_path;
  std::string wire_uds;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--wire") {
      wire = true;
    } else if (arg == "--wire-uds") {
      wire_uds = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--baseline") {
      baseline_path = next();
    } else if (arg == "--reps") {
      reps = std::stoi(next());
      if (reps < 1) usage("--reps must be >= 1");
    } else if (arg == "--help" || arg == "-h") {
      usage();
    } else {
      usage("unknown option " + arg);
    }
  }
  if (!wire_uds.empty() && !wire) usage("--wire-uds needs --wire");

  std::string baseline_text;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) usage("cannot read baseline file " + baseline_path);
    std::ostringstream ss;
    ss << in.rdbuf();
    baseline_text = ss.str();
    while (!baseline_text.empty() &&
           (baseline_text.back() == '\n' || baseline_text.back() == ' ')) {
      baseline_text.pop_back();
    }
  }

  int status = 0;
  if (smoke) {
    std::string detail;
    if (zero_copy_probe(&detail)) {
      std::cerr << "smoke: honest broadcast zero-copy ok (" << detail << ")\n";
    } else {
      std::cerr << "smoke: FAIL: honest broadcast copied payloads (" << detail
                << ")\n";
      status = 1;
    }
  }

  std::vector<Result> results;
  for (const Entry& e : smoke ? smoke_matrix() : full_matrix()) {
    try {
      results.push_back(run_entry(e, smoke ? 1 : reps, trace));
    } catch (const std::exception& ex) {
      std::cerr << "bench_runner: " << ex.what() << "\n";
      return 1;
    }
    const Result& r = results.back();
    std::cerr << r.entry.bench << " " << r.entry.protocol << " n=" << r.entry.n
              << " ell=" << r.entry.ell << ": " << r.seconds << "s, "
              << r.honest_bits << " honest bits, " << r.rounds << " rounds, "
              << r.payload_copies << " payload copies\n";
  }

  std::vector<WireResult> wire_results;
  std::vector<WireFaultBenchResult> wire_fault_results;
  if (wire) {
    std::string detail;
    if (wire_zero_copy_probe(&detail)) {
      std::cerr << "wire: honest broadcast over UDS zero-copy ok (" << detail
                << ")\n";
    } else {
      std::cerr << "wire: FAIL: honest broadcast over UDS copied payloads ("
                << detail << ")\n";
      status = 1;
    }
    try {
      wire_results = run_wire_matrix(smoke ? 1 : reps, wire_uds);
    } catch (const std::exception& ex) {
      std::cerr << "bench_runner: " << ex.what() << "\n";
      return 1;
    }
    for (const WireResult& r : wire_results) {
      std::cerr << "wire " << r.protocol << " over " << r.transport
                << ": sim " << r.sim_seconds << "s, wire " << r.wire_seconds
                << "s, " << r.honest_bits << " honest bits, " << r.rounds
                << " rounds (bit-identical)\n";
    }
    try {
      wire_fault_results = run_wire_fault_matrix(smoke ? 1 : reps);
    } catch (const std::exception& ex) {
      std::cerr << "bench_runner: " << ex.what() << "\n";
      return 1;
    }
    for (const WireFaultBenchResult& r : wire_fault_results) {
      std::cerr << "wire_fault " << r.kind << ": " << r.seconds << "s, "
                << r.recovery_ms << "ms recovery, " << r.reconnects
                << " reconnects, " << r.replayed_rounds
                << " rounds replayed (" << r.replayed_bytes
                << " bytes, bit-identical)\n";
    }
  }

  std::vector<FaultResult> fault_results;
  std::vector<ThroughputResult> throughput_results;
  if (!smoke) {
    try {
      throughput_results = run_throughput_matrix(reps);
    } catch (const std::exception& ex) {
      std::cerr << "bench_runner: " << ex.what() << "\n";
      return 1;
    }
    for (const ThroughputResult& r : throughput_results) {
      std::cerr << "throughput PiZ n=7 K=" << r.instances
                << " workers=" << r.workers << ": " << r.seconds << "s, "
                << r.instances / r.seconds << " instances/sec, "
                << r.honest_bits << " honest bits\n";
    }
    for (const FaultEntry& e : fault_matrix()) {
      try {
        fault_results.push_back(run_fault_entry(e, reps));
      } catch (const std::exception& ex) {
        std::cerr << "bench_runner: " << ex.what() << "\n";
        return 1;
      }
      const FaultResult& r = fault_results.back();
      std::cerr << "fault_recovery " << r.entry.protocol << " n=" << r.entry.n
                << " f=t=" << max_t(r.entry.n) << ": " << r.seconds << "s, "
                << r.honest_bits << " honest bits, " << r.rounds
                << " rounds\n";
    }
  }

  if (out_path.empty() || out_path == "-") {
    write_json(std::cout, results, fault_results, throughput_results,
               wire_results, wire_fault_results, baseline_text, smoke);
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "bench_runner: cannot write " << out_path << "\n";
      return 1;
    }
    write_json(out, results, fault_results, throughput_results, wire_results,
               wire_fault_results, baseline_text, smoke);
  }
  return status;
}

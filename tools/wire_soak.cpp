// wire_soak: concurrent chaos soak for the service runtime.
//
//   wire_soak --seconds 30 --sessions 4         # CI default
//   wire_soak --seconds 300 --sessions 8        # longer local hammering
//   wire_soak --seed 7 --out soak-fail.json     # reproducer on failure
//
// Runs K worker threads for a wall-clock budget. Each worker repeatedly
// draws a deterministic (case, wire-fault plan) pair -- protocols cycled,
// n in {4, 7}, plans sampled by svc::sample_wire_fault_plan, every fifth
// iteration additionally restarting the daemon mid-run -- and pushes it
// through svc::run_case_under_wire_faults: its own fresh daemon + recovery
// client on a unique UDS path, so K sessions genuinely fail and recover
// concurrently. Every iteration must satisfy the survivability contract
// (bit-identical recovery, or a structured give-up); the first violation is
// printed, optionally written to --out as a coca-wirechaos-v1 reproducer,
// and fails the run.
//
// Two watchdogs back the per-iteration check:
//  * a stall monitor on the main thread: any iteration exceeding
//    --stall-sec (default 60) means a wedged session -- the soak prints the
//    offender and hard-exits, because a hang is exactly the bug the
//    recovery layer exists to prevent;
//  * a pool-leak check at the end: the BufferPool's outstanding slab count
//    (allocs + reuses - releases) must return to its pre-soak value once
//    every daemon and client is down -- replay retention must pin slabs
//    only while sessions live.
//
// Exit status: 0 = every iteration ok and no leaks, 1 = violation, stuck
// session, or slab leak, 2 = usage error.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "adversary/fuzzer.h"
#include "net/buffer_pool.h"
#include "svc/chaos.h"
#include "svc/wire_fault.h"
#include "util/rng.h"

namespace {

using namespace coca;

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "wire_soak: " << error << "\n\n";
  std::cerr << "usage: wire_soak [options]\n"
               "  --seconds S    wall-clock soak budget (default 30)\n"
               "  --sessions K   concurrent worker sessions (default 4)\n"
               "  --seed S       soak stream seed (default 1)\n"
               "  --stall-sec S  per-iteration watchdog (default 60)\n"
               "  --out FILE     write the first failing case to FILE as a\n"
               "                 coca-wirechaos-v1 reproducer\n";
  std::exit(2);
}

/// Per-worker liveness record for the stall monitor. `iteration_start`
/// holds the steady-clock epoch milliseconds at which the current
/// iteration began, 0 while idle.
struct WorkerState {
  std::atomic<std::uint64_t> iteration_start{0};
  std::atomic<std::uint64_t> iterations{0};
  std::atomic<std::uint64_t> identical{0};
  std::atomic<std::uint64_t> structured{0};
  std::atomic<std::uint64_t> outages{0};
  std::atomic<std::uint64_t> replayed_rounds{0};
  std::atomic<std::uint64_t> restarts{0};
};

std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Deterministic case stream: protocols cycled, n alternating 4/7, seeds
/// derived from (soak seed, worker, iteration) so a reported failure names
/// everything needed to re-draw it.
adv::FuzzCase draw_case(const std::vector<std::string>& protocols,
                        std::uint64_t seed, int worker, std::uint64_t iter) {
  const std::uint64_t stream =
      Rng::derive_stream_seed(seed, (static_cast<std::uint64_t>(worker) << 32) | iter);
  adv::FuzzCase c;
  c.protocol = protocols[stream % protocols.size()];
  c.n = (stream >> 8) % 2 == 0 ? 4 : 7;
  c.t = (c.n - 1) / 3;
  c.ell = 16u << ((stream >> 16) % 4);  // 16..128 bits
  c.input_seed = stream;
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  double seconds = 30;
  int sessions = 4;
  std::uint64_t seed = 1;
  int stall_sec = 60;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--seconds") {
        seconds = std::stod(next());
        if (seconds <= 0) usage("--seconds must be > 0");
      } else if (arg == "--sessions") {
        sessions = std::stoi(next());
        if (sessions < 1) usage("--sessions must be >= 1");
      } else if (arg == "--seed") {
        seed = std::stoull(next());
      } else if (arg == "--stall-sec") {
        stall_sec = std::stoi(next());
        if (stall_sec < 1) usage("--stall-sec must be >= 1");
      } else if (arg == "--out") {
        out_path = next();
      } else if (arg == "--help" || arg == "-h") {
        usage();
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::invalid_argument&) {
      usage("bad numeric value for " + arg);
    }
  }

  const std::vector<std::string> protocols = adv::known_protocols();
  const auto pool_outstanding = [] {
    const net::BufferPool::Stats s = net::BufferPool::instance().stats();
    return s.slab_allocs + s.slab_reuses - s.slab_releases;
  };
  const std::uint64_t slabs_before = pool_outstanding();

  std::vector<WorkerState> states(static_cast<std::size_t>(sessions));
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<int> active{sessions};
  std::mutex report_mu;  // serializes failure reporting + --out

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  std::vector<std::thread> workers;
  for (int w = 0; w < sessions; ++w) {
    workers.emplace_back([&, w] {
      struct ActiveGuard {
        std::atomic<int>& n;
        ~ActiveGuard() { n.fetch_sub(1, std::memory_order_relaxed); }
      } guard{active};
      WorkerState& st = states[static_cast<std::size_t>(w)];
      for (std::uint64_t iter = 0;
           !stop.load(std::memory_order_relaxed) &&
           std::chrono::steady_clock::now() < deadline;
           ++iter) {
        const adv::FuzzCase c = draw_case(protocols, seed, w, iter);
        svc::WireFaultSampleConfig cfg;
        cfg.max_entries = 2;
        cfg.max_stall_ms = 20;
        cfg.seed = Rng::derive_stream_seed(
            seed,
            0x50AC0000ULL ^ (static_cast<std::uint64_t>(w) << 32) ^ iter);
        svc::ChaosOptions opt;
        opt.plan = svc::sample_wire_fault_plan(cfg);
        opt.backoff_initial_ms = 1;
        opt.backoff_max_ms = 20;
        opt.restart_daemon_mid_run =
            iter % 5 == 4 && !opt.plan.empty() && opt.plan.has_daemon_site();
        st.iteration_start.store(now_ms(), std::memory_order_relaxed);
        svc::ChaosReport rep;
        try {
          rep = svc::run_case_under_wire_faults(c, opt);
        } catch (const std::exception& e) {
          st.iteration_start.store(0, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lock(report_mu);
          std::cerr << "wire_soak: worker " << w << " iteration " << iter
                    << " threw: " << e.what() << "\n";
          failed.store(true);
          stop.store(true);
          return;
        }
        st.iteration_start.store(0, std::memory_order_relaxed);
        st.iterations.fetch_add(1, std::memory_order_relaxed);
        st.outages.fetch_add(rep.stats.client_outages,
                             std::memory_order_relaxed);
        st.replayed_rounds.fetch_add(rep.stats.daemon_replayed_rounds,
                                     std::memory_order_relaxed);
        st.restarts.fetch_add(rep.stats.daemon_restarts,
                              std::memory_order_relaxed);
        if (rep.ok()) {
          (rep.identical ? st.identical : st.structured)
              .fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        std::lock_guard<std::mutex> lock(report_mu);
        std::cerr << "wire_soak: VIOLATION at worker " << w << " iteration "
                  << iter << " (" << c.protocol << ", n=" << c.n << ", "
                  << opt.plan.entries.size() << " fault entries"
                  << (opt.restart_daemon_mid_run ? ", daemon restart" : "")
                  << "):\n  "
                  << (rep.mismatch.empty() ? "wired run did not resolve"
                                           : rep.mismatch)
                  << "\n";
        if (!out_path.empty() && !failed.load()) {
          adv::CorpusEntry entry;
          entry.c = c;
          entry.violations = {rep.mismatch.empty()
                                  ? "wired run did not resolve"
                                  : rep.mismatch};
          entry.note = "wire_soak worker " + std::to_string(w) +
                       " iteration " + std::to_string(iter);
          std::ofstream out(out_path);
          if (out) {
            out << svc::wire_chaos_to_json(entry, opt.plan);
            std::cerr << "wire_soak: wrote " << out_path << "\n";
          } else {
            std::cerr << "wire_soak: cannot write " << out_path << "\n";
          }
        }
        failed.store(true);
        stop.store(true);
        return;
      }
    });
  }

  // Stall monitor: a single wedged iteration means the recovery layer hung,
  // which join() would then inherit -- so report and hard-exit instead.
  while (active.load(std::memory_order_relaxed) > 0) {
    for (int w = 0; w < sessions; ++w) {
      const std::uint64_t start =
          states[static_cast<std::size_t>(w)].iteration_start.load(
              std::memory_order_relaxed);
      if (start != 0 &&
          now_ms() - start > static_cast<std::uint64_t>(stall_sec) * 1000) {
        std::cerr << "wire_soak: STUCK SESSION: worker " << w
                  << " has been inside one iteration for over " << stall_sec
                  << "s\n";
        std::_Exit(1);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  for (auto& t : workers) t.join();

  std::uint64_t iterations = 0;
  std::uint64_t identical = 0;
  std::uint64_t structured = 0;
  std::uint64_t outages = 0;
  std::uint64_t replayed = 0;
  std::uint64_t restarts = 0;
  for (const WorkerState& st : states) {
    iterations += st.iterations.load();
    identical += st.identical.load();
    structured += st.structured.load();
    outages += st.outages.load();
    replayed += st.replayed_rounds.load();
    restarts += st.restarts.load();
  }
  std::cerr << "wire_soak: " << iterations << " iterations across "
            << sessions << " workers: " << identical << " bit-identical, "
            << structured << " structured give-ups, " << outages
            << " outages absorbed, " << replayed << " rounds replayed, "
            << restarts << " daemon restarts\n";

  if (failed.load()) return 1;
  const std::uint64_t slabs_after = pool_outstanding();
  if (slabs_after != slabs_before) {
    std::cerr << "wire_soak: SLAB LEAK: outstanding pooled slabs went from "
              << slabs_before << " to " << slabs_after
              << " with every session closed\n";
    return 1;
  }
  std::cerr << "wire_soak: no leaks: outstanding slabs back to "
            << slabs_before << "\n";
  return 0;
}

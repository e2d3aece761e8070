// fuzz_driver: command-line front end for the adversary search (adv::Fuzzer).
//
//   fuzz_driver --budget-sec 60                 # sweep everything for 60s
//   fuzz_driver --protocols PiZ,BAPlus --n 4    # focus the search
//   fuzz_driver --corpus-out tests/corpus       # persist minimized repros
//   fuzz_driver --replay tests/corpus/x.json    # deterministic re-execution
//   fuzz_driver --expect-violation ...          # CI canary: fail unless the
//                                               # oracle catches something
//   fuzz_driver --sharded ...                   # run every case as the
//                                               # victim inside a sharded
//                                               # engine; the oracle also
//                                               # checks neighbor isolation
//   fuzz_driver --wire-faults ...               # run every case through the
//                                               # wire-chaos harness with a
//                                               # sampled WireFaultPlan; the
//                                               # oracle requires the wired
//                                               # run to be bit-identical or
//                                               # to resolve structurally
//   fuzz_driver --wire-replay FILE              # re-execute one
//                                               # coca-wirechaos-v1 repro
//
// Exit status: 0 = verdict matches expectation (clean sweep, or a violation
// under --expect-violation), 1 = it does not, 2 = usage error.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/fuzzer.h"
#include "engine/engine.h"
#include "obs/adapt.h"
#include "svc/chaos.h"
#include "svc/wire_fault.h"
#include "util/parse.h"
#include "util/rng.h"
#include "obs/export.h"
#include "obs/obs.h"

namespace {

using coca::adv::CorpusEntry;
using coca::adv::FuzzerOptions;

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "fuzz_driver: " << error << "\n\n";
  std::cerr <<
      "usage: fuzz_driver [options]\n"
      "  --budget-sec S       wall-clock search budget (default 10)\n"
      "  --iters N            max cases to execute (default unlimited)\n"
      "  --protocols A,B,...  targets to sweep (default: all; see --list)\n"
      "  --n N1,N2,...        network sizes to draw from (default 4,7)\n"
      "  --seed S             search-stream seed (default 1)\n"
      "  --faults             also draw environment fault plans (crashes,\n"
      "                       link cuts, partitions, shuffles) as a search\n"
      "                       dimension, keeping |corrupted|+|charged| <= t\n"
      "  --no-shrink          report violations without minimizing them\n"
      "  --corpus-out DIR     write each minimized violation to DIR/*.json,\n"
      "                       plus a canonical *.trace.json metrics trace of\n"
      "                       the counterexample's execution\n"
      "  --replay FILE        re-execute one corpus entry instead of searching\n"
      "  --expect-violation   invert the exit status (canary runs must fail)\n"
      "  --sharded            run each case as the victim instance inside a\n"
      "                       sharded engine (engine::check_isolation): the\n"
      "                       oracle additionally requires every honest\n"
      "                       neighbor instance to be bit-identical to its\n"
      "                       solo run (works with --replay too)\n"
      "  --wire-faults        run each case through a daemon + recovery\n"
      "                       client under a sampled wire-fault schedule\n"
      "                       (svc::run_case_under_wire_faults): the wired\n"
      "                       run must be bit-identical to the fault-free\n"
      "                       baseline or resolve to a structured give-up;\n"
      "                       anything else is a violation, shrunk by\n"
      "                       greedily dropping plan entries and written to\n"
      "                       --corpus-out as wire-*.json (coca-wirechaos-v1)\n"
      "  --wire-replay FILE   re-execute one coca-wirechaos-v1 reproducer\n"
      "  --list               print the known protocol targets\n";
  std::exit(2);
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::string arg_value(int argc, char** argv, int& i, const std::string& flag) {
  if (i + 1 >= argc) usage("missing value for " + flag);
  return argv[++i];
}

int replay(const std::string& path, bool sharded) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "fuzz_driver: cannot open " << path << "\n";
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const CorpusEntry entry = coca::adv::corpus_entry_from_json(buf.str());
  if (sharded) {
    const coca::engine::IsolationReport report =
        coca::engine::check_isolation(entry.c, coca::engine::ShardedCaseOptions{});
    std::cout << "replay (sharded) " << path << " (" << entry.c.protocol
              << ", n=" << entry.c.n << ", seed=" << entry.c.mutation.seed
              << ")\n";
    for (const auto& v : report.victim.violations) {
      std::cout << "  violation: " << v << "\n";
    }
    for (const auto& v : report.violations) {
      std::cout << "  isolation breach: " << v << "\n";
    }
    if (report.victim.ok() && report.ok()) {
      std::cout << "  oracle: victim invariants hold, neighbors untouched\n";
      return 0;
    }
    return 1;
  }
  const auto outcome = coca::adv::execute_case(entry.c);
  std::cout << "replay " << path << " (" << entry.c.protocol
            << ", n=" << entry.c.n << ", seed=" << entry.c.mutation.seed
            << ")\n";
  if (outcome.verdict.ok()) {
    std::cout << "  oracle: all invariants hold ("
              << outcome.stats.rounds << " rounds, "
              << outcome.stats.honest_bits() << " honest bits)\n";
    return 0;
  }
  for (const auto& v : outcome.verdict.violations) {
    std::cout << "  violation: " << v << "\n";
  }
  return 1;
}

/// The sharded-engine search target: every drawn case becomes the victim of
/// an engine::check_isolation run. Only cross-instance leaks count as
/// violations here -- the victim's own oracle verdict is the plain target's
/// job -- so a breach means the engine let a byzantine instance perturb an
/// honest neighbor.
int run_sharded_search(const FuzzerOptions& options,
                       const std::string& corpus_out, bool expect_violation) {
  coca::adv::Fuzzer fuzzer(options);
  coca::engine::ShardedCaseOptions shard;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(options.budget_sec);
  std::size_t executed = 0;
  std::size_t breaches = 0;
  while (std::chrono::steady_clock::now() < deadline &&
         (options.max_cases == 0 || executed < options.max_cases)) {
    coca::adv::FuzzCase c = fuzzer.next_case();
    // Sharded runs multiply each case by the neighbor count; keep the
    // payload scale bounded so the sweep stays a search, not a bench.
    c.ell = std::min<std::size_t>(c.ell, 256);
    shard.neighbor_seed =
        coca::Rng::derive_stream_seed(options.seed, 0x5A4DULL + executed);
    const coca::engine::IsolationReport report =
        coca::engine::check_isolation(c, shard);
    ++executed;
    if (report.ok()) continue;
    ++breaches;
    std::cout << "isolation breach (" << c.protocol << ", n=" << c.n
              << ", mutation seed=" << c.mutation.seed << "):\n";
    for (const auto& v : report.violations) {
      std::cout << "  " << v << "\n";
    }
    if (!corpus_out.empty()) {
      CorpusEntry entry;
      entry.c = c;
      entry.violations = report.violations;
      entry.note = "sharded-engine isolation victim";
      const std::string path = corpus_out + "/sharded-" + c.protocol + "-" +
                               std::to_string(c.mutation.seed) + ".json";
      std::ofstream out(path);
      if (!out) {
        std::cerr << "fuzz_driver: cannot write " << path << "\n";
        return 2;
      }
      out << coca::adv::to_json(entry);
      std::cout << "  wrote " << path << "\n";
    }
  }
  std::cout << "executed " << executed << " sharded cases, " << breaches
            << " isolation breaches\n";
  if (breaches == 0) {
    std::cout << "no violations: every neighbor matched its solo run\n";
  }
  const bool violated = breaches != 0;
  return expect_violation ? (violated ? 0 : 1) : (violated ? 1 : 0);
}

void print_wire_failure(const coca::adv::FuzzCase& c,
                        const coca::svc::WireFaultPlan& plan,
                        const coca::svc::ChaosReport& rep) {
  std::cout << "wire-chaos violation (" << c.protocol << ", n=" << c.n
            << ", mutation seed=" << c.mutation.seed << ", "
            << plan.entries.size() << " fault entries):\n";
  if (!rep.mismatch.empty()) std::cout << "  " << rep.mismatch << "\n";
  if (!rep.wired.failure.empty()) {
    std::cout << "  wired failure: " << rep.wired.failure << "\n";
  }
  for (const auto& e : plan.entries) {
    std::cout << "  fault: " << coca::svc::to_string(e.kind) << " at round "
              << e.round << "\n";
  }
}

/// The wire-fault search target: every drawn case rides the chaos harness
/// with a seeded WireFaultPlan. A violation is a run that neither converged
/// bit-identically to the fault-free baseline nor resolved structurally.
/// Counterexamples shrink by greedily dropping plan entries (the case
/// itself is left alone: the plan is the search dimension here) and land in
/// --corpus-out as self-contained coca-wirechaos-v1 reproducers.
int run_wire_fault_search(const FuzzerOptions& options,
                          const std::string& corpus_out,
                          bool expect_violation) {
  coca::adv::Fuzzer fuzzer(options);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(options.budget_sec);
  std::size_t executed = 0;
  std::size_t failures = 0;
  while (std::chrono::steady_clock::now() < deadline &&
         (options.max_cases == 0 || executed < options.max_cases)) {
    coca::adv::FuzzCase c = fuzzer.next_case();
    // Each case runs twice (baseline + wired) plus shrink reruns; keep the
    // payload scale bounded so the sweep stays a search.
    c.ell = std::min<std::size_t>(c.ell, 256);
    coca::svc::WireFaultSampleConfig cfg;
    cfg.seed = coca::Rng::derive_stream_seed(options.seed, 0x31BEULL + executed);
    const coca::svc::WireFaultPlan plan =
        coca::svc::sample_wire_fault_plan(cfg);
    ++executed;
    if (plan.empty()) continue;
    const coca::svc::ChaosReport rep =
        coca::svc::run_case_under_wire_faults(c, {.plan = plan});
    if (rep.ok()) continue;
    ++failures;
    // Greedy entry-wise shrink: drop each fault in turn, keep the drop if
    // the violation survives without it.
    coca::svc::WireFaultPlan shrunk = plan;
    coca::svc::ChaosReport last = rep;
    if (options.shrink) {
      for (std::size_t i = 0; i < shrunk.entries.size();) {
        coca::svc::WireFaultPlan trial = shrunk;
        trial.entries.erase(trial.entries.begin() +
                            static_cast<std::ptrdiff_t>(i));
        const coca::svc::ChaosReport r =
            coca::svc::run_case_under_wire_faults(c, {.plan = trial});
        if (!r.ok()) {
          shrunk = std::move(trial);
          last = r;
        } else {
          ++i;
        }
      }
    }
    print_wire_failure(c, shrunk, last);
    if (!corpus_out.empty()) {
      CorpusEntry entry;
      entry.c = c;
      entry.violations = {last.mismatch.empty() ? "wired run did not resolve"
                                                : last.mismatch};
      entry.note = "wire-chaos counterexample";
      const std::string path = corpus_out + "/wire-" + c.protocol + "-" +
                               std::to_string(c.mutation.seed) + ".json";
      std::ofstream out(path);
      if (!out) {
        std::cerr << "fuzz_driver: cannot write " << path << "\n";
        return 2;
      }
      out << coca::svc::wire_chaos_to_json(entry, shrunk);
      std::cout << "  wrote " << path << "\n";
    }
  }
  std::cout << "executed " << executed << " wire-chaos cases, " << failures
            << " violations\n";
  if (failures == 0) {
    std::cout << "no violations: every wired run converged bit-identically "
                 "or resolved structurally\n";
  }
  const bool violated = failures != 0;
  return expect_violation ? (violated ? 0 : 1) : (violated ? 1 : 0);
}

/// Re-executes one coca-wirechaos-v1 reproducer deterministically.
int wire_replay(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "fuzz_driver: cannot open " << path << "\n";
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const coca::svc::WireChaosCase wc =
      coca::svc::wire_chaos_from_json(buf.str());
  std::cout << "wire-replay " << path << " (" << wc.entry.c.protocol
            << ", n=" << wc.entry.c.n << ", seed="
            << wc.entry.c.mutation.seed << ", " << wc.plan.entries.size()
            << " fault entries)\n";
  const coca::svc::ChaosReport rep = coca::svc::run_case_under_wire_faults(
      wc.entry.c, {.plan = wc.plan});
  if (rep.identical) {
    std::cout << "  recovered bit-identically ("
              << rep.stats.client_outages << " outages, "
              << rep.stats.daemon_replayed_rounds << " rounds replayed)\n";
    return 0;
  }
  if (rep.structured) {
    std::cout << "  resolved structurally: "
              << (rep.wired.failure.empty() ? "per-party outcomes"
                                            : rep.wired.failure)
              << "\n";
    return 0;
  }
  print_wire_failure(wc.entry.c, wc.plan, rep);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  FuzzerOptions options;
  options.sizes = {4, 7};
  std::string corpus_out;
  std::string replay_path;
  std::string wire_replay_path;
  bool expect_violation = false;
  bool sharded = false;
  bool wire_faults = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg == "--budget-sec") {
        options.budget_sec =
            coca::parse_double(arg_value(argc, argv, i, arg));
      } else if (arg == "--iters") {
        options.max_cases =
            coca::parse_int<std::size_t>(arg_value(argc, argv, i, arg));
      } else if (arg == "--protocols") {
        options.protocols = split_csv(arg_value(argc, argv, i, arg));
      } else if (arg == "--n") {
        options.sizes.clear();
        for (const auto& s : split_csv(arg_value(argc, argv, i, arg))) {
          options.sizes.push_back(coca::parse_int<int>(s));
        }
      } else if (arg == "--seed") {
        options.seed =
            coca::parse_int<std::uint64_t>(arg_value(argc, argv, i, arg));
      } else if (arg == "--faults") {
        options.faults = true;
      } else if (arg == "--no-shrink") {
        options.shrink = false;
      } else if (arg == "--corpus-out") {
        corpus_out = arg_value(argc, argv, i, arg);
      } else if (arg == "--replay") {
        replay_path = arg_value(argc, argv, i, arg);
      } else if (arg == "--expect-violation") {
        expect_violation = true;
      } else if (arg == "--sharded") {
        sharded = true;
      } else if (arg == "--wire-faults") {
        wire_faults = true;
      } else if (arg == "--wire-replay") {
        wire_replay_path = arg_value(argc, argv, i, arg);
      } else if (arg == "--list") {
        for (const auto& p : coca::adv::known_protocols()) {
          std::cout << p << "\n";
        }
        return 0;
      } else if (arg == "--help" || arg == "-h") {
        usage();
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::invalid_argument&) {
      usage("bad value for " + arg);
    } catch (const std::out_of_range&) {
      usage("bad value for " + arg);
    }
  }

  if (sharded && wire_faults) usage("--sharded and --wire-faults conflict");

  try {
    if (!wire_replay_path.empty()) {
      const int status = wire_replay(wire_replay_path);
      if (status == 2) return 2;
      return expect_violation ? (status == 1 ? 0 : 1) : status;
    }

    if (!replay_path.empty()) {
      const int status = replay(replay_path, sharded);
      if (status == 2) return 2;
      return expect_violation ? (status == 1 ? 0 : 1) : status;
    }

    if (wire_faults) {
      return run_wire_fault_search(options, corpus_out, expect_violation);
    }

    if (sharded) {
      return run_sharded_search(options, corpus_out, expect_violation);
    }

    coca::adv::Fuzzer fuzzer(options);
    const auto report = fuzzer.run();
    std::cout << "executed " << report.executed << " cases:";
    for (const auto& [proto, count] : report.cases_by_protocol) {
      std::cout << " " << proto << "=" << count;
    }
    std::cout << "\n";
    for (const auto& entry : report.violations) {
      std::cout << "violation (" << entry.c.protocol << ", n=" << entry.c.n
                << ", mutation seed=" << entry.c.mutation.seed << "):\n";
      for (const auto& v : entry.violations) {
        std::cout << "  " << v << "\n";
      }
      if (!corpus_out.empty()) {
        const std::string path = corpus_out + "/" + entry.c.protocol + "-" +
                                 std::to_string(entry.c.mutation.seed) +
                                 ".json";
        std::ofstream out(path);
        if (!out) {
          std::cerr << "fuzz_driver: cannot write " << path << "\n";
          return 2;
        }
        out << coca::adv::to_json(entry);
        std::cout << "  wrote " << path << "\n";
        // Attach a canonical (timing-free, schedule-independent) metrics
        // trace of the minimized counterexample next to the entry.
        namespace obs = coca::obs;
        obs::Tracer tracer(obs::Tracer::Options{/*timing=*/false});
        const auto traced =
            coca::adv::execute_case(entry.c, /*transcript=*/nullptr, &tracer);
        obs::RunMeta meta;
        meta.protocol = entry.c.protocol;
        meta.n = entry.c.n;
        meta.t = entry.c.t;
        meta.ell_bits = entry.c.ell;
        meta.seed = entry.c.input_seed;
        meta.notes = "fuzz counterexample, mutation seed " +
                     std::to_string(entry.c.mutation.seed);
        const std::string trace_path =
            corpus_out + "/" + entry.c.protocol + "-" +
            std::to_string(entry.c.mutation.seed) + ".trace.json";
        std::ofstream trace_out(trace_path);
        if (!trace_out) {
          std::cerr << "fuzz_driver: cannot write " << trace_path << "\n";
          return 2;
        }
        trace_out << obs::metrics_json(tracer, meta,
                                       obs::stats_view(traced.stats),
                                       /*include_timing=*/false);
        std::cout << "  wrote " << trace_path << "\n";
      }
    }
    if (report.violations.empty()) {
      std::cout << "no violations: every execution satisfied the oracle\n";
    }
    const bool violated = !report.violations.empty();
    return expect_violation ? (violated ? 0 : 1) : (violated ? 1 : 0);
  } catch (const std::exception& e) {
    std::cerr << "fuzz_driver: " << e.what() << "\n";
    return 2;
  }
}

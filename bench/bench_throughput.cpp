// bench_throughput: instance-sharded engine throughput (the T-throughput
// table in EXPERIMENTS.md).
//
//   bench_throughput                          # K=64, n=7, ell=2^14 sweep
//                                             # over workers {1, 2, 4, 8}
//   bench_throughput --smoke                  # CI probe: K=8, n=4, ell=2^12
//   bench_throughput --threads 8              # one worker count only
//   bench_throughput --out BENCH_PR6.json     # coca-bench-v1 artifact
//   bench_throughput --per-instance-out f.json# deterministic per-instance
//                                             # metrics (no timing, no meta)
//
// Every sweep runs the SAME K cases at each worker count; the per-instance
// metrics (honest bits/messages/rounds, leaf phase breakdown) must be
// identical across worker counts -- the binary exits 1 if they are not, and
// the CI throughput-smoke job additionally byte-diffs the
// --per-instance-out files of a serial and an 8-worker invocation. Only
// wall-clock throughput (instances/sec, honest bits/sec) may move.
//
// The main JSON keeps the host-dependent fields ("meta", with the machine's
// core count, and the timed "throughput_entries") separable: "meta" is a
// single line so the established `grep -v '"meta"'` byte-diff pattern
// applies.
//
// Exit status: 0 = success, 1 = determinism breach or run failure,
// 2 = usage error.
#include <cstdio>
#include <fstream>
#include <map>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"

namespace {

using namespace coca;

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "bench_throughput: " << error << "\n\n";
  std::cerr
      << "usage: bench_throughput [options]\n"
         "  --smoke                fast CI probe (K=8, n=4, ell=4096)\n"
         "  --threads W            run one worker count instead of the\n"
         "                         {1, 2, 4, 8} sweep\n"
         "  --instances K          concurrent instances (default 64)\n"
         "  --n N                  network size (default 7)\n"
         "  --ell L                input bit-length (default 16384)\n"
         "  --protocol P           protocol target (default PiZ)\n"
         "  --seed S               base input seed (default 0x7B06)\n"
         "  --out FILE             write the coca-bench-v1 JSON to FILE\n"
         "  --per-instance-out F   write deterministic per-instance metrics\n";
  std::exit(2);
}

struct Config {
  int instances = 64;
  int n = 7;
  std::size_t ell = std::size_t{1} << 14;
  std::string protocol = "PiZ";
  std::uint64_t seed = 0x7B06;
  std::vector<int> workers = {1, 2, 4, 8};
  bool smoke = false;
};

/// One worker count's timed row.
struct ThroughputRow {
  int workers = 0;
  double seconds = 0;
  std::uint64_t honest_bits = 0;
  std::uint64_t rounds = 0;
};

/// Schedule-independent per-instance snapshot: the fields the CI byte-diff
/// compares across worker counts.
struct InstanceRow {
  std::uint64_t honest_bits = 0;
  std::uint64_t honest_messages = 0;
  std::uint64_t rounds = 0;
  std::map<std::string, std::uint64_t> phase_bits;

  bool operator==(const InstanceRow&) const = default;
};

std::vector<adv::FuzzCase> build_cases(const Config& cfg) {
  std::vector<adv::FuzzCase> cases;
  for (int i = 0; i < cfg.instances; ++i) {
    adv::FuzzCase c;
    c.protocol = cfg.protocol;
    c.n = cfg.n;
    c.t = (cfg.n - 1) / 3;
    c.ell = cfg.ell;
    c.input_seed = cfg.seed + static_cast<std::uint64_t>(i);
    cases.push_back(std::move(c));
  }
  return cases;
}

std::vector<InstanceRow> snapshot(const engine::EngineReport& report) {
  std::vector<InstanceRow> rows;
  rows.reserve(report.instances.size());
  for (const engine::InstanceResult& res : report.instances) {
    InstanceRow row;
    row.honest_bits = res.outcome.stats.honest_bits();
    row.honest_messages = res.outcome.stats.honest_messages;
    row.rounds = res.outcome.stats.rounds;
    for (const auto& [phase, bytes] : res.outcome.stats.phase_breakdown) {
      row.phase_bits[phase] = bytes * 8;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void write_json(std::ostream& os, const Config& cfg,
                const std::vector<ThroughputRow>& rows) {
  os << "{\n";
  os << "  \"schema\": \"coca-bench-v1\",\n";
  os << "  \"mode\": \"" << (cfg.smoke ? "throughput_smoke" : "throughput")
     << "\",\n";
  // Host-dependent context on one line so the grep -v '"meta"' byte-diff
  // pattern strips it alongside the timing-free comparisons.
  os << "  \"meta\": {\"host_cores\": " << std::thread::hardware_concurrency()
     << ", \"instances\": " << cfg.instances << ", \"protocol\": \""
     << cfg.protocol << "\", \"n\": " << cfg.n
     << ", \"t\": " << (cfg.n - 1) / 3 << ", \"ell_bits\": " << cfg.ell
     << ", \"seed\": " << cfg.seed << "},\n";
  os << "  \"throughput_entries\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ThroughputRow& r = rows[i];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"bench\": \"throughput\", \"workers\": %d, "
        "\"seconds\": %.6f, \"instances_per_sec\": %.3f, "
        "\"honest_bits\": %llu, \"honest_bits_per_sec\": %.0f, "
        "\"rounds\": %llu}%s",
        r.workers, r.seconds, cfg.instances / r.seconds,
        static_cast<unsigned long long>(r.honest_bits),
        static_cast<double>(r.honest_bits) / r.seconds,
        static_cast<unsigned long long>(r.rounds),
        i + 1 < rows.size() ? ",\n" : "\n");
    os << buf;
  }
  os << "  ]\n}\n";
}

/// The deterministic companion file: per-instance metrics only, no meta, no
/// timing. Byte-identical across worker counts by construction (and the CI
/// smoke job cmp(1)s a serial vs an 8-worker run to prove it).
void write_per_instance_json(std::ostream& os, const Config& cfg,
                             const std::vector<InstanceRow>& rows) {
  os << "{\n";
  os << "  \"schema\": \"coca-bench-v1\",\n";
  os << "  \"mode\": \"throughput_per_instance\",\n";
  os << "  \"instances\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const InstanceRow& r = rows[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"instance\": %zu, \"protocol\": \"%s\", "
                  "\"honest_bits\": %llu, \"honest_messages\": %llu, "
                  "\"rounds\": %llu, \"phase_bits\": {",
                  i, cfg.protocol.c_str(),
                  static_cast<unsigned long long>(r.honest_bits),
                  static_cast<unsigned long long>(r.honest_messages),
                  static_cast<unsigned long long>(r.rounds));
    os << buf;
    bool first = true;
    for (const auto& [phase, bits] : r.phase_bits) {
      os << (first ? "" : ", ") << "\"" << phase << "\": " << bits;
      first = false;
    }
    os << "}}" << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  bool threads_set = false;
  std::string out_path;
  std::string per_instance_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--smoke") {
        cfg.smoke = true;
      } else if (arg == "--threads") {
        const int w = std::stoi(next());
        if (w < 1) usage("--threads must be >= 1");
        cfg.workers = {w};
        threads_set = true;
      } else if (arg == "--instances") {
        cfg.instances = std::stoi(next());
        if (cfg.instances < 1) usage("--instances must be >= 1");
      } else if (arg == "--n") {
        cfg.n = std::stoi(next());
      } else if (arg == "--ell") {
        cfg.ell = std::stoull(next());
      } else if (arg == "--protocol") {
        cfg.protocol = next();
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(next());
      } else if (arg == "--out") {
        out_path = next();
      } else if (arg == "--per-instance-out") {
        per_instance_path = next();
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
  if (cfg.smoke) {
    cfg.instances = 8;
    cfg.n = 4;
    cfg.ell = std::size_t{1} << 12;
    if (!threads_set) cfg.workers = {1};
  }

  const std::vector<adv::FuzzCase> cases = build_cases(cfg);
  std::vector<ThroughputRow> rows;
  std::vector<InstanceRow> reference;
  try {
    for (const int workers : cfg.workers) {
      engine::EngineOptions opt;
      opt.workers = workers;
      opt.record_transcripts = false;  // equivalence is tier-1's job
      const engine::EngineReport report = engine::Engine(opt).run(cases);
      ThroughputRow row;
      row.workers = workers;
      row.seconds = report.seconds;
      row.honest_bits = report.honest_bytes * 8;
      row.rounds = report.rounds;
      rows.push_back(row);
      const std::vector<InstanceRow> snap = snapshot(report);
      if (reference.empty()) {
        reference = snap;
      } else if (snap != reference) {
        std::cerr << "bench_throughput: FAIL: per-instance metrics at "
                  << workers << " workers differ from the first sweep point; "
                  << "the engine's schedule-independence invariant broke\n";
        return 1;
      }
      std::cerr << "throughput " << cfg.protocol << " K=" << cfg.instances
                << " n=" << cfg.n << " ell=" << cfg.ell
                << " workers=" << workers << ": " << row.seconds << "s, "
                << cfg.instances / row.seconds << " instances/sec, "
                << static_cast<double>(row.honest_bits) / row.seconds
                << " honest bits/sec\n";
    }
  } catch (const std::exception& ex) {
    std::cerr << "bench_throughput: " << ex.what() << "\n";
    return 1;
  }

  if (out_path.empty()) {
    write_json(std::cout, cfg, rows);
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "bench_throughput: cannot write " << out_path << "\n";
      return 1;
    }
    write_json(out, cfg, rows);
  }
  if (!per_instance_path.empty()) {
    std::ofstream out(per_instance_path);
    if (!out) {
      std::cerr << "bench_throughput: cannot write " << per_instance_path
                << "\n";
      return 1;
    }
    write_per_instance_json(out, cfg, reference);
  }
  return 0;
}

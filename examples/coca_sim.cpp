// coca_sim -- command-line protocol runner.
//
// A downstream user's driver: pick a protocol, network size, corruption
// pattern, and input workload; get the agreed value, property verdicts, and
// cost metrics. Everything the library can do, reachable from a shell.
//
// Usage:
//   coca_sim [--protocol piz|broadcast|highcost]
//            [--n N] [--t T]
//            [--inputs v1,v2,...]       explicit integers (decimal)
//            [--random-bits B]          or: random B-bit magnitudes
//            [--seed S]
//            [--adversary kind[,kind...]]  corrupt the last parties with
//                                          silent|garbage|spam|replay|echo|
//                                          zeroes|ones|extreme-low|
//                                          extreme-high|split-brain
//            [--phases]                 print per-phase bit breakdown
//
// Examples:
//   coca_sim --n 7 --t 2 --inputs -10042,... --adversary extreme-high,...
//   coca_sim --protocol broadcast --n 10 --random-bits 4096 --adversary spam
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "ca/broadcast_ca.h"
#include "ca/driver.h"
#include "util/parse.h"
#include "util/rng.h"

namespace {

using namespace coca;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "coca_sim: %s\n(see the header of coca_sim.cpp)\n",
               msg);
  std::exit(2);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::optional<adv::Kind> parse_kind(const std::string& name) {
  for (const adv::Kind kind : adv::kAllKinds) {
    if (name == adv::to_string(kind)) return kind;
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  std::string protocol_name = "piz";
  int n = 7;
  int t = -1;
  std::vector<BigInt> inputs;
  std::size_t random_bits = 0;
  std::uint64_t seed = 1;
  std::vector<adv::Kind> adversaries;
  bool show_phases = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    // Numbers and --inputs values that do not parse, or do not fit, end
    // in the usage message like every other bad argument.
    try {
      if (arg == "--protocol") {
        protocol_name = next();
      } else if (arg == "--n") {
        n = parse_int<int>(next());
      } else if (arg == "--t") {
        t = parse_int<int>(next());
      } else if (arg == "--inputs") {
        for (const auto& v : split(next(), ',')) {
          inputs.push_back(BigInt::from_decimal(v));
        }
      } else if (arg == "--random-bits") {
        random_bits = parse_int<std::size_t>(next());
      } else if (arg == "--seed") {
        seed = parse_int<std::uint64_t>(next());
      } else if (arg == "--adversary") {
        for (const auto& name : split(next(), ',')) {
          const auto kind = parse_kind(name);
          if (!kind) usage(("unknown adversary kind: " + name).c_str());
          adversaries.push_back(*kind);
        }
      } else if (arg == "--phases") {
        show_phases = true;
      } else if (arg == "--help" || arg == "-h") {
        usage("usage");
      } else {
        usage(("unknown argument: " + arg).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + arg).c_str());
    }
  }

  if (n < 1) usage("--n must be positive");
  if (t < 0) t = (n - 1) / 3;
  if (static_cast<int>(adversaries.size()) > t) {
    usage("more adversaries than the corruption budget t");
  }
  if (inputs.empty()) {
    if (random_bits == 0) random_bits = 64;
    Rng rng(seed);
    for (int i = 0; i < n; ++i) {
      inputs.emplace_back(
          BigNat::pow2(random_bits - 1) + rng.nat_below_pow2(random_bits - 1),
          false);
    }
  }
  if (inputs.size() != static_cast<std::size_t>(n)) {
    usage("--inputs must list exactly n values");
  }

  ca::DefaultBAStack stack;
  std::unique_ptr<ca::CAProtocol> protocol;
  if (protocol_name == "piz") {
    protocol = std::make_unique<ca::ConvexAgreement>();
  } else if (protocol_name == "broadcast") {
    protocol = std::make_unique<ca::BroadcastTrimCA>(stack.kit());
  } else if (protocol_name == "highcost") {
    protocol = std::make_unique<ca::HighCostCAProtocol>(stack.kit());
  } else {
    usage("unknown protocol (piz|broadcast|highcost)");
  }

  ca::SimConfig config;
  config.n = n;
  config.t = t;
  config.inputs = inputs;
  for (std::size_t i = 0; i < adversaries.size(); ++i) {
    config.corruptions.push_back(
        {n - 1 - static_cast<int>(i), adversaries[i]});
  }

  const ca::SimResult result = ca::run_simulation(*protocol, config);

  std::printf("protocol        : %s\n", protocol->name().c_str());
  std::printf("n / t / corrupt : %d / %d / %zu\n", n, t, adversaries.size());
  for (int id = 0; id < n; ++id) {
    const auto& out = result.outputs[static_cast<std::size_t>(id)];
    std::printf("party %-3d input=%s  ->  %s\n", id,
                inputs[static_cast<std::size_t>(id)].to_decimal().c_str(),
                out ? out->to_decimal().c_str() : "(byzantine)");
  }
  std::printf("agreement       : %s\n", result.agreement() ? "yes" : "NO");
  std::printf("convex validity : %s\n",
              result.convex_validity(inputs) ? "yes" : "NO");
  std::printf("rounds          : %zu\n", result.stats.rounds);
  std::printf("honest bits     : %llu\n",
              static_cast<unsigned long long>(result.stats.honest_bits()));
  std::printf("honest messages : %llu\n",
              static_cast<unsigned long long>(result.stats.honest_messages));
  if (show_phases) {
    std::printf("per-phase honest bits (phases nest):\n");
    for (const auto& [name, bytes] : result.stats.honest_bytes_by_phase) {
      std::printf("  %-24s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(bytes * 8));
    }
  }
  return result.agreement() && result.convex_validity(inputs) ? 0 : 1;
}

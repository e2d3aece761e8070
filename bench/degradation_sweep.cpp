// degradation_sweep: the graceful-degradation campaign at the t < n/3
// boundary (the T-degrade table in EXPERIMENTS.md).
//
//   degradation_sweep                       # full campaign at n = 7
//   degradation_sweep --n 4 --fmax 2        # CI smoke variant
//   degradation_sweep --out degrade.json    # machine-readable artifact
//   degradation_sweep --md table.md         # EXPERIMENTS.md table
//
// Exit status: 0 = every cell met its expectation (invariants hold while
// f <= t, graceful structured degradation beyond), 1 = some cell failed,
// 2 = usage error.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "adversary/degradation.h"

namespace {

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "degradation_sweep: " << error << "\n\n";
  std::cerr <<
      "usage: degradation_sweep [options]\n"
      "  --n N              network size (default 7; t = floor((n-1)/3))\n"
      "  --ell L            input bit-length scale (default 16)\n"
      "  --fmax F           highest charged-party count swept "
      "(default t + 2)\n"
      "  --protocols A,B    targets to sweep (default: all)\n"
      "  --seed S           honest-workload seed\n"
      "  --out FILE         write the campaign JSON artifact\n"
      "  --md FILE          write the markdown T-degrade table\n";
  std::exit(2);
}

std::string arg_value(int argc, char** argv, int& i, const std::string& flag) {
  if (i + 1 >= argc) usage("missing value for " + flag);
  return argv[++i];
}

}  // namespace

int main(int argc, char** argv) {
  coca::adv::DegradationConfig cfg;
  std::string out_path;
  std::string md_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg == "--n") {
        cfg.n = std::stoi(arg_value(argc, argv, i, arg));
      } else if (arg == "--ell") {
        cfg.ell = std::stoull(arg_value(argc, argv, i, arg));
      } else if (arg == "--fmax") {
        cfg.f_max = std::stoi(arg_value(argc, argv, i, arg));
      } else if (arg == "--protocols") {
        std::stringstream ss(arg_value(argc, argv, i, arg));
        std::string item;
        while (std::getline(ss, item, ',')) {
          if (!item.empty()) cfg.protocols.push_back(item);
        }
      } else if (arg == "--seed") {
        cfg.input_seed = std::stoull(arg_value(argc, argv, i, arg));
      } else if (arg == "--out") {
        out_path = arg_value(argc, argv, i, arg);
      } else if (arg == "--md") {
        md_path = arg_value(argc, argv, i, arg);
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

  try {
    const auto report = coca::adv::run_degradation_campaign(cfg);
    for (const auto& row : report.rows) {
      std::cout << row.protocol << " " << coca::adv::to_string(row.kind)
                << " f=" << row.f << (row.hold_required ? "" : " (>t)")
                << ": "
                << (!row.passed()          ? "FAIL"
                    : row.hold_required    ? "hold"
                    : row.invariants_held  ? "hold (not required)"
                                           : "graceful degradation")
                << " [rounds=" << row.rounds << ", bits=" << row.honest_bits
                << "]\n";
      for (const auto& v : row.violations) {
        std::cout << "    " << (row.passed() ? "observed: " : "violation: ")
                  << v << "\n";
      }
    }
    std::cout << "campaign: " << report.rows.size() << " cells at n="
              << report.config.n << " t=" << report.t << ", "
              << report.failures() << " failed\n";
    if (!out_path.empty()) {
      std::ofstream out(out_path);
      if (!out) {
        std::cerr << "degradation_sweep: cannot write " << out_path << "\n";
        return 2;
      }
      out << coca::adv::degradation_json(report);
    }
    if (!md_path.empty()) {
      std::ofstream md(md_path);
      if (!md) {
        std::cerr << "degradation_sweep: cannot write " << md_path << "\n";
        return 2;
      }
      md << coca::adv::degradation_markdown(report);
    }
    return report.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "degradation_sweep: " << e.what() << "\n";
    return 2;
  }
}

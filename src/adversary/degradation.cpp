#include "adversary/degradation.h"

#include <algorithm>
#include <sstream>

#include "util/json.h"

namespace coca::adv {

const std::vector<FaultKind>& all_fault_kinds() {
  static const std::vector<FaultKind> kKinds = {
      FaultKind::kCrashStop, FaultKind::kCrashRecovery, FaultKind::kLinkCut,
      FaultKind::kPartition, FaultKind::kShuffle,
  };
  return kKinds;
}

std::string_view to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrashStop:
      return "crash-stop";
    case FaultKind::kCrashRecovery:
      return "crash-recovery";
    case FaultKind::kLinkCut:
      return "link-cut";
    case FaultKind::kPartition:
      return "partition";
    case FaultKind::kShuffle:
      return "shuffle";
  }
  return "unknown";
}

net::FaultPlan degradation_plan(FaultKind kind, int f, int n) {
  net::FaultPlan plan;
  if (kind == FaultKind::kShuffle) {
    require(f == 0, "degradation_plan: shuffle charges nobody (f must be 0)");
    plan.shuffles.push_back({/*party=*/-1, /*seed=*/11});
    return plan;
  }
  require(f >= 1 && f < n, "degradation_plan: need 1 <= f < n");
  switch (kind) {
    case FaultKind::kCrashStop:
      // Staggered: party i dies at round 1 + i, so the run sees the
      // network thin out instead of one synchronized blackout.
      for (int i = 0; i < f; ++i) {
        plan.crashes.push_back(
            {i, /*from=*/1 + static_cast<std::size_t>(i), net::kNoRecovery});
      }
      break;
    case FaultKind::kCrashRecovery:
      // Three missed rounds each, staggered the same way.
      for (int i = 0; i < f; ++i) {
        const auto a = 2 + static_cast<std::size_t>(i);
        plan.crashes.push_back({i, a, a + 3});
      }
      break;
    case FaultKind::kLinkCut:
      // Directed send-omission: party i silently loses its link to its
      // successor for the protocol's opening rounds.
      for (int i = 0; i < f; ++i) {
        plan.cuts.push_back({i, (i + 1) % n, /*from=*/1, /*until=*/8});
      }
      break;
    case FaultKind::kPartition:
      // One episode: the charged side is split off for four rounds.
      {
        net::FaultPlan::Partition p;
        for (int i = 0; i < f; ++i) p.side.push_back(i);
        p.from_round = 2;
        p.until_round = 6;
        plan.partitions.push_back(std::move(p));
      }
      break;
    case FaultKind::kShuffle:
      break;  // handled above
  }
  return plan;
}

bool DegradationReport::ok() const { return failures() == 0; }

std::size_t DegradationReport::failures() const {
  std::size_t count = 0;
  for (const DegradationRow& row : rows) {
    if (!row.passed()) ++count;
  }
  return count;
}

namespace {

DegradationRow run_cell(const DegradationConfig& cfg, int t,
                        const std::string& protocol, FaultKind kind, int f) {
  DegradationRow row;
  row.protocol = protocol;
  row.kind = kind;
  row.f = f;
  row.hold_required = f <= t;
  FuzzCase c;
  c.protocol = protocol;
  c.n = cfg.n;
  c.t = t;
  c.ell = cfg.ell;
  c.input_seed = cfg.input_seed;
  c.faults = degradation_plan(kind, f, cfg.n);
  try {
    const FuzzOutcome out = execute_case(c);
    row.graceful = true;  // the engine returned structured outcomes
    row.invariants_held = out.verdict.ok();
    row.violations = out.verdict.violations;
    row.rounds = out.stats.rounds;
    row.honest_bits = out.stats.honest_bits();
    for (const net::PartyOutcome& o : out.outcomes) {
      ++row.outcome_counts[net::to_string(o.outcome)];
      if (o.outcome != net::Outcome::kDecided) {
        const std::string phase = o.phase.empty() ? "(none)" : o.phase;
        ++row.outcome_phases[std::string(net::to_string(o.outcome)) + "@" +
                             phase];
      }
    }
  } catch (const std::exception& e) {
    row.graceful = false;
    row.violations = {std::string("escaped: ") + e.what()};
  }
  return row;
}

}  // namespace

DegradationReport run_degradation_campaign(const DegradationConfig& cfg) {
  require(cfg.n >= 4, "degradation: need n >= 4");
  const int t = (cfg.n - 1) / 3;
  DegradationReport report;
  report.config = cfg;
  report.t = t;
  int f_max = cfg.f_max < 0 ? t + 2 : cfg.f_max;
  f_max = std::min(f_max, cfg.n - 1);
  const std::vector<std::string>& protocols =
      cfg.protocols.empty() ? known_protocols() : cfg.protocols;
  for (const std::string& protocol : protocols) {
    const auto& known = known_protocols();
    require(std::find(known.begin(), known.end(), protocol) != known.end(),
            "degradation: unknown protocol");
    // f = 0 baseline / order-insensitivity: the shuffle charges nobody.
    report.rows.push_back(
        run_cell(cfg, t, protocol, FaultKind::kShuffle, 0));
    for (const FaultKind kind :
         {FaultKind::kCrashStop, FaultKind::kCrashRecovery,
          FaultKind::kLinkCut, FaultKind::kPartition}) {
      for (int f = 1; f <= f_max; ++f) {
        report.rows.push_back(run_cell(cfg, t, protocol, kind, f));
      }
    }
  }
  return report;
}

std::string degradation_markdown(const DegradationReport& report) {
  // One row per (protocol, fault kind), one column per f. Cell legend:
  //   hold    -- f <= t and every invariant held (required)
  //   hold*   -- f > t, no guarantee owed, yet every invariant still held
  //   degrade -- f > t, graceful structured end, some invariant broke
  //   FAIL    -- the cell missed its expectation
  int f_max = 0;
  for (const DegradationRow& row : report.rows) f_max = std::max(f_max, row.f);
  std::ostringstream os;
  os << "| protocol | fault |";
  for (int f = 0; f <= f_max; ++f) {
    os << " f=" << f << (f > report.t ? " (>t)" : "") << " |";
  }
  os << "\n|---|---|";
  for (int f = 0; f <= f_max; ++f) os << "---|";
  os << "\n";
  std::string current_key;
  for (const DegradationRow& row : report.rows) {
    const std::string key = row.protocol + "/" + std::string(to_string(row.kind));
    if (key != current_key) {
      if (!current_key.empty()) os << "\n";
      os << "| " << row.protocol << " | " << to_string(row.kind) << " |";
      // Shuffle rows only have the f = 0 cell; charging kinds start at 1.
      if (row.kind != FaultKind::kShuffle) os << " -- |";
      current_key = key;
    }
    const char* cell = !row.passed()        ? "FAIL"
                       : row.hold_required  ? "hold"
                       : row.invariants_held ? "hold\\*"
                                             : "degrade";
    os << " " << cell << " |";
    if (row.kind == FaultKind::kShuffle) {
      for (int f = 1; f <= f_max; ++f) os << " -- |";
    }
  }
  os << "\n";
  return os.str();
}

std::string degradation_json(const DegradationReport& report) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"coca-degrade-v1\",\n";
  os << "  \"n\": " << report.config.n << ",\n";
  os << "  \"t\": " << report.t << ",\n";
  os << "  \"ell\": " << report.config.ell << ",\n";
  os << "  \"input_seed\": " << report.config.input_seed << ",\n";
  os << "  \"failures\": " << report.failures() << ",\n";
  os << "  \"rows\": [\n";
  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    const DegradationRow& row = report.rows[i];
    os << "    {\"protocol\": \"" << row.protocol << "\", \"fault\": \""
       << to_string(row.kind) << "\", \"f\": " << row.f
       << ", \"hold_required\": " << (row.hold_required ? "true" : "false")
       << ", \"invariants_held\": " << (row.invariants_held ? "true" : "false")
       << ", \"graceful\": " << (row.graceful ? "true" : "false")
       << ", \"rounds\": " << row.rounds
       << ", \"honest_bits\": " << row.honest_bits << ", \"outcomes\": {";
    bool first = true;
    for (const auto& [name, count] : row.outcome_counts) {
      os << (first ? "" : ", ") << "\"" << name << "\": " << count;
      first = false;
    }
    os << "}, \"outcome_phases\": {";
    first = true;
    for (const auto& [name, count] : row.outcome_phases) {
      os << (first ? "" : ", ") << "\"" << json::escape(name)
         << "\": " << count;
      first = false;
    }
    os << "}, \"violations\": [";
    for (std::size_t v = 0; v < row.violations.size(); ++v) {
      os << (v ? ", " : "") << "\"" << json::escape(row.violations[v]) << "\"";
    }
    os << "]}" << (i + 1 < report.rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace coca::adv

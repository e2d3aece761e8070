#include "net/fault_plan.h"

#include <algorithm>
#include <set>

#include "util/rng.h"

namespace coca::net {

namespace {

bool in_window(std::size_t round, std::size_t from, std::size_t until) {
  return round >= from && round < until;
}

void check_window(std::size_t from, std::size_t until, const char* what) {
  if (until <= from) {
    throw Error(std::string("FaultPlan: ") + what +
                " window is empty (until_round <= from_round)");
  }
}

void check_party(int party, int n, const char* what) {
  if (party < 0 || party >= n) {
    throw Error(std::string("FaultPlan: ") + what + " party id out of range");
  }
}

}  // namespace

void FaultPlan::validate(int n) const {
  for (const Crash& c : crashes) {
    check_party(c.party, n, "crash");
    check_window(c.from_round, c.until_round, "crash");
  }
  for (const LinkCut& c : cuts) {
    check_party(c.from, n, "cut");
    check_party(c.to, n, "cut");
    check_window(c.from_round, c.until_round, "cut");
  }
  for (const Partition& p : partitions) {
    require(!p.side.empty(), "FaultPlan: partition side is empty");
    std::set<int> seen;
    for (int id : p.side) {
      check_party(id, n, "partition");
      require(seen.insert(id).second, "FaultPlan: duplicate partition id");
    }
    require(p.side.size() < static_cast<std::size_t>(n),
            "FaultPlan: partition side contains every party");
    check_window(p.from_round, p.until_round, "partition");
  }
  for (const Shuffle& s : shuffles) {
    require(s.party == -1 || (s.party >= 0 && s.party < n),
            "FaultPlan: shuffle party id out of range");
  }
}

bool FaultPlan::crashed(int party, std::size_t round) const {
  for (const Crash& c : crashes) {
    if (c.party == party && in_window(round, c.from_round, c.until_round)) {
      return true;
    }
  }
  return false;
}

bool FaultPlan::crash_stopped(int party, std::size_t round) const {
  for (const Crash& c : crashes) {
    if (c.party == party && c.until_round == kNoRecovery &&
        round >= c.from_round) {
      return true;
    }
  }
  return false;
}

bool FaultPlan::link_cut(int from, int to, std::size_t round) const {
  for (const LinkCut& c : cuts) {
    if (c.from == from && c.to == to &&
        in_window(round, c.from_round, c.until_round)) {
      return true;
    }
  }
  for (const Partition& p : partitions) {
    if (!in_window(round, p.from_round, p.until_round)) continue;
    const bool from_in =
        std::find(p.side.begin(), p.side.end(), from) != p.side.end();
    const bool to_in =
        std::find(p.side.begin(), p.side.end(), to) != p.side.end();
    if (from_in != to_in) return true;
  }
  return false;
}

std::optional<std::uint64_t> FaultPlan::shuffle_seed(int party) const {
  for (const Shuffle& s : shuffles) {
    if (s.party == -1 || s.party == party) return s.seed;
  }
  return std::nullopt;
}

std::vector<int> FaultPlan::charged() const {
  std::set<int> out;
  for (const Crash& c : crashes) out.insert(c.party);
  for (const LinkCut& c : cuts) out.insert(c.from);
  for (const Partition& p : partitions) {
    for (int id : p.side) out.insert(id);
  }
  return std::vector<int>(out.begin(), out.end());
}

FaultPlan sample_fault_plan(const FaultSampleConfig& cfg) {
  require(cfg.n >= 2, "sample_fault_plan: need n >= 2");
  require(cfg.horizon >= 2, "sample_fault_plan: need horizon >= 2");
  Rng rng = Rng::stream(cfg.seed, 0xFA017ULL);
  FaultPlan plan;

  // Pick the charged set: distinct parties, at most max_charged of them.
  const int budget = std::min(cfg.max_charged, cfg.n - 1);
  std::vector<int> victims;
  if (budget > 0) {
    std::set<int> picked;
    const int count = 1 + static_cast<int>(rng.below(
                              static_cast<std::uint64_t>(budget)));
    while (static_cast<int>(picked.size()) < count) {
      picked.insert(static_cast<int>(rng.below(cfg.n)));
    }
    victims.assign(picked.begin(), picked.end());
  }

  const auto window = [&](std::size_t* from, std::size_t* until) {
    *from = rng.below(cfg.horizon - 1);
    *until = *from + 1 + rng.below(cfg.horizon - *from);
  };

  // A coin-weighted partition episode swallows the whole charged set;
  // otherwise each victim independently draws a crash or an outgoing cut.
  if (cfg.allow_partition && !victims.empty() && rng.below(4) == 0) {
    FaultPlan::Partition p;
    p.side = victims;
    window(&p.from_round, &p.until_round);
    plan.partitions.push_back(std::move(p));
  } else {
    for (int v : victims) {
      const bool crash = !cfg.allow_cuts || (cfg.allow_crash && rng.next_bool());
      if (crash && cfg.allow_crash) {
        FaultPlan::Crash c;
        c.party = v;
        if (rng.next_bool()) {  // crash-stop
          c.from_round = rng.below(cfg.horizon);
          c.until_round = kNoRecovery;
        } else {  // crash-recovery
          window(&c.from_round, &c.until_round);
        }
        plan.crashes.push_back(c);
      } else if (cfg.allow_cuts) {
        FaultPlan::LinkCut c;
        c.from = v;
        c.to = static_cast<int>(rng.below(cfg.n));
        window(&c.from_round, &c.until_round);
        plan.cuts.push_back(c);
      }
    }
  }

  if (cfg.allow_shuffle && rng.below(3) == 0) {
    plan.shuffles.push_back({/*party=*/-1, /*seed=*/rng.next_u64() | 1});
  }
  return plan;
}

const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::kDecided:  return "Decided";
    case Outcome::kTimedOut: return "TimedOut";
    case Outcome::kCrashed:  return "Crashed";
    case Outcome::kAborted:  return "AbortedWithEvidence";
  }
  return "?";
}

}  // namespace coca::net

// Simulation driver: runs a whole CA protocol over a SyncNetwork with a
// configurable corruption pattern, and checks the paper's three properties.
//
// Used by the tests (property sweeps), the examples, and every protocol
// bench; keeping it in the library means all three measure the exact same
// execution path.
#pragma once

#include <optional>
#include <vector>

#include "adversary/spec.h"
#include "ca/convex_agreement.h"

namespace coca::obs {
class Tracer;
}

namespace coca::ca {

struct Corruption {
  int id = 0;
  adv::Kind kind = adv::Kind::kSilent;
};

struct SimConfig {
  int n = 4;
  int t = 1;
  /// Inputs indexed by party id; entries of corrupted parties are ignored
  /// (except that extreme/split-brain corruptions derive their adversarial
  /// inputs from `extreme_low` / `extreme_high` below).
  std::vector<BigInt> inputs;
  std::vector<Corruption> corruptions;
  /// Adversarial inputs for protocol-running corruptions.
  BigInt extreme_low = BigInt(-1'000'000'000);
  BigInt extreme_high = BigInt(1'000'000'000);
  std::size_t max_rounds = net::SyncNetwork::kDefaultMaxRounds;
  /// Optional canonical message-transcript sink (must outlive the call).
  net::Transcript* transcript = nullptr;
  /// Optional observability tracer (fresh per run, must outlive the call);
  /// see SyncNetwork::set_tracer.
  obs::Tracer* tracer = nullptr;
};

struct SimResult {
  /// Outputs indexed by party id; engaged exactly for honest parties.
  std::vector<std::optional<BigInt>> outputs;
  net::RunStats stats;

  /// Agreement (Definition 1): all honest outputs equal.
  bool agreement() const;
  /// Convex Validity: honest outputs lie in [min, max] of `honest_inputs`
  /// (the inputs of the parties that produced outputs).
  bool convex_validity(const std::vector<BigInt>& inputs_by_id) const;
};

/// Runs `protocol` under `config`; throws on protocol errors or round-limit.
SimResult run_simulation(const CAProtocol& protocol, const SimConfig& config);

}  // namespace coca::ca

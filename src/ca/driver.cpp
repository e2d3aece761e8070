#include "ca/driver.h"

#include <algorithm>

namespace coca::ca {

bool SimResult::agreement() const {
  const BigInt* first = nullptr;
  for (const auto& out : outputs) {
    if (!out) continue;
    if (first == nullptr) {
      first = &*out;
    } else if (*out != *first) {
      return false;
    }
  }
  return true;
}

bool SimResult::convex_validity(const std::vector<BigInt>& inputs_by_id) const {
  std::optional<BigInt> lo, hi;
  for (std::size_t id = 0; id < outputs.size(); ++id) {
    if (!outputs[id]) continue;  // corrupted party
    const BigInt& in = inputs_by_id[id];
    if (!lo || in < *lo) lo = in;
    if (!hi || in > *hi) hi = in;
  }
  if (!lo) return true;  // no honest parties: vacuous
  return std::all_of(outputs.begin(), outputs.end(), [&](const auto& out) {
    return !out || (*lo <= *out && *out <= *hi);
  });
}

SimResult run_simulation(const CAProtocol& protocol, const SimConfig& config) {
  require(config.inputs.size() == static_cast<std::size_t>(config.n),
          "run_simulation: need one input slot per party");
  net::SyncNetwork net(config.n, config.t);
  if (config.transcript != nullptr) net.set_transcript(config.transcript);
  if (config.tracer != nullptr) net.set_tracer(config.tracer);
  SimResult result;
  result.outputs.resize(static_cast<std::size_t>(config.n));

  std::vector<bool> corrupted(static_cast<std::size_t>(config.n), false);
  const auto runner_with_input = [&protocol](BigInt input) {
    return [&protocol, input = std::move(input)](net::PartyContext& ctx) {
      protocol.run(ctx, input);
    };
  };
  const adv::ProtocolHooks hooks{runner_with_input(config.extreme_low),
                                 runner_with_input(config.extreme_high)};
  for (const Corruption& c : config.corruptions) {
    require(c.id >= 0 && c.id < config.n && !corrupted[c.id],
            "run_simulation: bad corruption id");
    corrupted[static_cast<std::size_t>(c.id)] = true;
    adv::install(net, c.id, c.kind, hooks);
  }
  for (int id = 0; id < config.n; ++id) {
    if (corrupted[static_cast<std::size_t>(id)]) continue;
    auto* slot = &result.outputs[static_cast<std::size_t>(id)];
    const BigInt input = config.inputs[static_cast<std::size_t>(id)];
    net.set_honest(id, [&protocol, slot, input](net::PartyContext& ctx) {
      *slot = protocol.run(ctx, input);
    });
  }

  result.stats = net.run(config.max_rounds);
  return result;
}

}  // namespace coca::ca

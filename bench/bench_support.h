// Shared benchmark plumbing: workload generators, cost measurement, and
// table printing. Every table/figure binary (T1..T8, F1, F2) uses these so
// all experiments measure the exact same execution paths as the tests.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "ca/broadcast_ca.h"
#include "ca/driver.h"
#include "util/rng.h"

namespace coca::bench {

inline int max_t(int n) { return (n - 1) / 3; }

/// The sweep benches take no arguments; call first thing in main() so a
/// stray flag fails loudly (exit 2) instead of being ignored.
inline void parse_args(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "unknown argument: %s (this bench takes none)\n",
                 argv[1]);
    std::exit(2);
  }
}

/// Uniform random `bits`-bit magnitudes (top bit set so every input has the
/// same length): the adversarial-spread workload -- prefix search gets no
/// help from shared honest prefixes.
inline std::vector<BigInt> spread_inputs(int n, std::size_t bits,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<BigInt> inputs;
  inputs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    inputs.emplace_back(BigNat::pow2(bits - 1) + rng.nat_below_pow2(bits - 1),
                        false);
  }
  return inputs;
}

/// Sensor-style workload: values share all but the low `spread_bits` bits.
inline std::vector<BigInt> clustered_inputs(int n, std::size_t bits,
                                            std::size_t spread_bits,
                                            std::uint64_t seed) {
  Rng rng(seed);
  const BigNat base = BigNat::pow2(bits - 1) + rng.nat_below_pow2(bits - 1);
  std::vector<BigInt> inputs;
  inputs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    inputs.emplace_back(base + rng.nat_below_pow2(spread_bits), false);
  }
  return inputs;
}

struct Cost {
  std::uint64_t bits = 0;
  std::size_t rounds = 0;
};

/// Runs `proto` on `inputs` with `byz_count` corrupted parties of `kind`
/// (spread over the id space) and returns the honest cost. Aborts the
/// process on any property violation: a bench must never report numbers
/// from a broken run.
inline Cost measure(const ca::CAProtocol& proto, int n,
                    const std::vector<BigInt>& inputs,
                    int byz_count = 0,
                    adv::Kind kind = adv::Kind::kSilent) {
  ca::SimConfig cfg;
  cfg.n = n;
  cfg.t = max_t(n);
  cfg.inputs = inputs;
  for (int i = 0; i < byz_count; ++i) {
    cfg.corruptions.push_back({(i * n) / std::max(1, byz_count) + 1, kind});
  }
  cfg.extreme_low = BigInt(0);
  cfg.extreme_high = BigInt(BigNat::pow2(24), false);
  const ca::SimResult r = ca::run_simulation(proto, cfg);
  if (!r.agreement() || !r.convex_validity(cfg.inputs)) {
    std::fprintf(stderr, "FATAL: property violation in bench run (%s)\n",
                 proto.name().c_str());
    std::abort();
  }
  return {r.stats.honest_bits(), r.stats.rounds};
}

/// Least-squares slope of log(y) against log(x): the empirical exponent.
inline double loglog_slope(const std::vector<double>& xs,
                           const std::vector<double>& ys) {
  const std::size_t m = xs.size();
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const double lx = std::log(xs[i]);
    const double ly = std::log(ys[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  const double dm = static_cast<double>(m);
  return (dm * sxy - sx * sy) / (dm * sxx - sx * sx);
}

/// Runs a sub-protocol body (ctx, id) -> void at every party and returns
/// the run's cost stats. Used by the benches that measure building blocks
/// (Pi_BA+, Pi_lBA+, FixedLengthCA variants) below the CAProtocol level.
inline net::RunStats run_subprotocol(
    int n, int t,
    const std::function<void(net::PartyContext&, int)>& body) {
  net::SyncNetwork net(n, t);
  for (int id = 0; id < n; ++id) {
    net.set_honest(id, [&body, id](net::PartyContext& ctx) { body(ctx, id); });
  }
  return net.run();
}

inline std::string human_bits(std::uint64_t bits) {
  char buf[32];
  if (bits >= 8ull * 1024 * 1024) {
    std::snprintf(buf, sizeof buf, "%.2f Mbit",
                  static_cast<double>(bits) / (1024.0 * 1024.0));
  } else if (bits >= 8ull * 1024) {
    std::snprintf(buf, sizeof buf, "%.1f Kbit",
                  static_cast<double>(bits) / 1024.0);
  } else {
    std::snprintf(buf, sizeof buf, "%llu bit",
                  static_cast<unsigned long long>(bits));
  }
  return buf;
}

}  // namespace coca::bench

// The paper's claims, printed and checked: the tables of DESIGN.md's
// per-experiment index (T1, T2, F1, T3, T4, T5, F2, T6, T7, T8, BA-abl) go
// to stdout in that order; then each claim's shape is checked on the exact
// bits and rounds just measured, every failure is named (table, row, band)
// on stderr and the exit status is 1. A run that throws or breaks
// agreement or convex validity fails its table, so no table reports
// numbers from a broken run. Runs are deterministic (fixed seeds). Takes
// no arguments (any argument exits 2); ctest runs it as a tier-1 test.
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "ba/ba_plus.h"
#include "ba/long_ba_plus.h"
#include "ba/phase_king.h"
#include "ca/broadcast_ca.h"
#include "ca/driver.h"
#include "ca/fixed_length_ca.h"
#include "ca/fixed_length_ca_blocks.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace coca::bench {
namespace {

int max_t(int n) { return (n - 1) / 3; }

/// Uniform random `bits`-bit magnitudes (top bit set so every input has the
/// same length): the adversarial-spread workload -- prefix search gets no
/// help from shared honest prefixes.
std::vector<BigInt> spread_inputs(int n, std::size_t bits,
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
std::vector<BigInt> clustered_inputs(int n, std::size_t bits,
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
/// (spread over the id space) and returns the honest cost. Throws on any
/// property violation, which fails the table.
Cost measure(const ca::CAProtocol& proto, int n,
             const std::vector<BigInt>& inputs, int byz_count = 0,
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
    throw Error(proto.name() + " violates agreement or convex validity at n=" +
                std::to_string(n));
  }
  return {r.stats.honest_bits(), r.stats.rounds};
}

/// Runs a sub-protocol body (ctx, id) -> void at every party and returns
/// the run's cost stats: the tables that measure building blocks (Pi_BA+,
/// Pi_lBA+, FixedLengthCA variants) below the CAProtocol level.
net::RunStats run_subprotocol(
    int n, int t, const std::function<void(net::PartyContext&, int)>& body) {
  net::SyncNetwork net(n, t);
  for (int id = 0; id < n; ++id) {
    net.set_honest(id, [&body, id](net::PartyContext& ctx) { body(ctx, id); });
  }
  return net.run();
}

/// Least-squares slope of log(y) against log(x): the empirical exponent.
double loglog_slope(const std::vector<double>& xs,
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

std::string human_bits(std::uint64_t bits) {
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

double ratio(std::uint64_t num, std::uint64_t den) {
  return static_cast<double>(num) / static_cast<double>(den);
}

/// Bits per input bit per party.
double per_bit(std::uint64_t bits, std::size_t ell, int n) {
  return static_cast<double>(bits) / (static_cast<double>(ell) * n);
}

__attribute__((format(printf, 1, 2))) std::string fmt(const char* f, ...) {
  char buf[160];
  va_list args;
  va_start(args, f);
  std::vsnprintf(buf, sizeof buf, f, args);
  va_end(args);
  return buf;
}

/// The failed claims, reported once every table is printed. `at` names
/// the table and row, `band` what must hold there.
class Claims {
 public:
  void expect(bool ok, const std::string& at, const std::string& band) {
    if (!ok) failures_.push_back(at + ": " + band);
  }
  void within(double x, double lo, double hi, const std::string& at,
              const char* what) {
    expect(lo <= x && x <= hi, at,
           fmt("%s = %.3f outside [%g, %g]", what, x, lo, hi));
  }
  /// `x` is not below the previous row's `prev`, which becomes `x`.
  void rising(double x, double& prev, const std::string& at,
              const char* what) {
    expect(x >= prev, at, fmt("%s = %.2f fell from %.2f", what, x, prev));
    prev = x;
  }
  /// Prints every failure to stderr; returns the exit status.
  int report() const {
    for (const std::string& f : failures_) {
      std::fprintf(stderr, "claim failed: %s\n", f.c_str());
    }
    return failures_.empty() ? 0 : 1;
  }

 private:
  std::vector<std::string> failures_;
};

/// The whole-protocol CAs the tables compare, and the default BA stack the
/// baselines and the sub-protocol tables run on.
struct Protocols {
  ca::ConvexAgreement pi_z;
  ca::DefaultBAStack stack;
  ca::BroadcastTrimCA broadcast{stack.kit()};
  ca::HighCostCAProtocol high_cost{stack.kit()};
};

// T1 -- bits vs n (Theorem 5 / Corollary 1): Pi_Z's O(l n + kappa n^2
// log^2 n) beats O(l n^2) BroadcastTrimCA and O(l n^3) HighCostCA. At
// l = kappa n log^2 n (T1b) Pi_Z's bits/(l n) stays flat.
void t1_comm_vs_n(const Protocols& p, Claims& claims) {
  const std::size_t ell = 16384;
  const int ns[] = {4, 7, 10, 13, 16, 19, 25, 31};

  std::printf("# T1: honest communication vs n (l = %zu bits, spread inputs, "
              "t = floor((n-1)/3), t silent corruptions)\n",
              ell);
  std::printf("%-5s %-16s %-18s %-16s %-12s\n", "n", "PiZ", "BroadcastTrim",
              "HighCostCA", "PiZ/(l*n)");

  std::vector<double> xs, ours, bc, hc;
  for (const int n : ns) {
    const auto inputs = spread_inputs(n, ell, 1001 + static_cast<unsigned>(n));
    const Cost a = measure(p.pi_z, n, inputs, max_t(n));
    const Cost b = measure(p.broadcast, n, inputs, max_t(n));
    // HighCostCA moves l*n^3 bits; cap the sweep where that stays sane.
    const bool run_hc = n <= 19;
    const Cost c =
        run_hc ? measure(p.high_cost, n, inputs, max_t(n)) : Cost{};
    xs.push_back(n);
    ours.push_back(static_cast<double>(a.bits));
    bc.push_back(static_cast<double>(b.bits));
    if (run_hc) hc.push_back(static_cast<double>(c.bits));
    std::printf("%-5d %-16s %-18s %-16s %-12.2f\n", n,
                human_bits(a.bits).c_str(), human_bits(b.bits).c_str(),
                run_hc ? human_bits(c.bits).c_str() : "-",
                per_bit(a.bits, ell, n));
    const std::string at = fmt("T1, n=%d", n);
    claims.expect(a.bits < b.bits, at, "PiZ < BroadcastTrim");
    if (run_hc) claims.expect(b.bits < c.bits, at, "Broadcast < HighCost");
  }

  std::vector<double> xs_hc(xs.begin(), xs.begin() + hc.size());
  std::printf("\nempirical log-log slope in n:  PiZ=%.2f  Broadcast=%.2f  "
              "HighCost=%.2f\n",
              loglog_slope(xs, ours), loglog_slope(xs, bc),
              loglog_slope(xs_hc, hc));
  std::printf("(theory: Broadcast ~2, HighCost ~3. At fixed moderate l the "
              "kappa n^2 log^2 n term drives PiZ toward ~2 as n grows -- the "
              "optimality threshold l = Omega(kappa n log^2 n) recedes; part "
              "b keeps l in the optimal regime.)\n");

  std::printf("\n# T1b: same sweep with l = kappa*n*log2(n)^2 (optimal "
              "regime)\n");
  std::printf("%-5s %-10s %-16s %-18s %-12s %-10s\n", "n", "l(bits)", "PiZ",
              "BroadcastTrim", "PiZ/(l*n)", "ratio");
  std::vector<double> ours_b;
  double last_ratio = 0;
  for (const int n : ns) {
    const double log2n = std::log2(static_cast<double>(n));
    const std::size_t ell_b =
        static_cast<std::size_t>(256.0 * n * log2n * log2n);
    const auto inputs =
        spread_inputs(n, ell_b, 1100 + static_cast<unsigned>(n));
    const Cost a = measure(p.pi_z, n, inputs, max_t(n));
    const Cost b = measure(p.broadcast, n, inputs, max_t(n));
    ours_b.push_back(static_cast<double>(a.bits));
    const double pz = per_bit(a.bits, ell_b, n);
    const double r = ratio(b.bits, a.bits);
    std::printf("%-5d %-10zu %-16s %-18s %-12.2f %-10.2f\n", n, ell_b,
                human_bits(a.bits).c_str(), human_bits(b.bits).c_str(), pz,
                r);
    const std::string at = fmt("T1b, n=%d", n);
    claims.within(pz, 1.5, 5, at, "PiZ/(l*n)");
    claims.rising(r, last_ratio, at, "Broadcast/PiZ");
  }
  claims.within(last_ratio, 30, INFINITY, "T1b, n=31", "Broadcast/PiZ");
  std::printf("\nempirical log-log slope in n (optimal regime): PiZ=%.2f "
              "(theory: ~2.6, because l itself grows ~ n log^2 n here; the "
              "optimality evidence is the flat PiZ/(l*n) column = Theta(l n) "
              "bits, and the baseline ratio growing ~ n)\n",
              loglog_slope(xs, ours_b));
}

// T2 -- bits vs l: slopes ~c*n, ~c*n^2, ~c*n^3; Pi_Z's bits per input
// bit per party falls to a constant, the paper's communication optimality.
void t2_comm_vs_ell(const Protocols& p, Claims& claims) {
  const int n = 13;
  const std::size_t ells[] = {1u << 10, 1u << 12, 1u << 14, 1u << 16,
                              1u << 18};

  std::printf("# T2: honest communication vs l (n = %d, t = %d, spread "
              "inputs, t garbage corruptions)\n",
              n, max_t(n));
  std::printf("%-10s %-16s %-18s %-16s %-14s\n", "l(bits)", "PiZ",
              "BroadcastTrim", "HighCostCA", "PiZ bits/(l*n)");

  std::vector<double> xs, ours, bc;
  double last = INFINITY;
  for (const std::size_t ell : ells) {
    const auto inputs = spread_inputs(n, ell, 2000 + ell);
    const Cost a = measure(p.pi_z, n, inputs, max_t(n), adv::Kind::kGarbage);
    const Cost b =
        measure(p.broadcast, n, inputs, max_t(n), adv::Kind::kGarbage);
    const bool run_hc = ell <= (1u << 14);
    const Cost c = run_hc ? measure(p.high_cost, n, inputs, max_t(n),
                                    adv::Kind::kGarbage)
                          : Cost{};
    xs.push_back(static_cast<double>(ell));
    ours.push_back(static_cast<double>(a.bits));
    bc.push_back(static_cast<double>(b.bits));
    const double pz = per_bit(a.bits, ell, n);
    std::printf("%-10zu %-16s %-18s %-16s %-14.2f\n", ell,
                human_bits(a.bits).c_str(), human_bits(b.bits).c_str(),
                run_hc ? human_bits(c.bits).c_str() : "-", pz);
    const std::string at = fmt("T2, l=%zu", ell);
    claims.expect(a.bits < b.bits, at, "PiZ < BroadcastTrim");
    claims.expect(pz < last, at,
                  fmt("PiZ bits/(l*n) = %.2f, not below %.2f", pz, last));
    last = pz;
  }
  claims.within(last, 0, 1.2, "T2, l=262144", "PiZ bits/(l*n)");

  std::printf("\nempirical log-log slope in l:  PiZ=%.2f  Broadcast=%.2f   "
              "(theory: -> 1 as l grows)\n",
              loglog_slope(xs, ours), loglog_slope(xs, bc));
}

// F1 -- crossover: the first l where HighCostCA costs more than Pi_Z
// tracks l = Omega(kappa n log^2 n); past it the ratio keeps growing.
void f1_crossover(const Protocols& p, Claims& claims) {
  const int ns[] = {4, 7, 13};
  const std::size_t expected_crossover[] = {512, 1024, 1024};
  const std::size_t ells[] = {1u << 6,  1u << 8,  1u << 9,  1u << 10,
                              1u << 12, 1u << 14, 1u << 16, 1u << 18};

  std::printf("# F1: cost ratio HighCostCA / PiZ over l (ratio > 1 means "
              "PiZ wins; crossover l* grows with n)\n");
  std::printf("%-10s", "l(bits)");
  for (const int n : ns) std::printf(" n=%-10d", n);
  std::printf("\n");

  std::vector<std::size_t> crossover(std::size(ns), 0);
  std::vector<double> widest(std::size(ns), 0);  // ratio at the last l
  for (const std::size_t ell : ells) {
    std::printf("%-10zu", ell);
    for (std::size_t i = 0; i < std::size(ns); ++i) {
      const int n = ns[i];
      // Keep the cubic baseline affordable.
      if (static_cast<double>(ell) * n * n * n > 3e10) {
        std::printf(" %-11s", "-");
        continue;
      }
      const auto inputs =
          spread_inputs(n, ell, 3000 + ell + static_cast<unsigned>(n));
      const Cost ours = measure(p.pi_z, n, inputs, max_t(n));
      const Cost base = measure(p.high_cost, n, inputs, max_t(n));
      const double r = ratio(base.bits, ours.bits);
      if (r > 1.0 && crossover[i] == 0) crossover[i] = ell;
      widest[i] = r;
      std::printf(" %-11.2f", r);
    }
    std::printf("\n");
  }

  std::printf("\ncrossover l* (first swept l with ratio > 1):");
  for (std::size_t i = 0; i < std::size(ns); ++i) {
    if (crossover[i] != 0) {
      std::printf("  n=%d: %zu", ns[i], crossover[i]);
    } else {
      std::printf("  n=%d: > sweep", ns[i]);
    }
    claims.expect(crossover[i] == expected_crossover[i],
                  fmt("F1, n=%d", ns[i]),
                  fmt("crossover l* = %zu, expected %zu", crossover[i],
                      expected_crossover[i]));
    if (i > 0) {
      claims.expect(widest[i] > widest[i - 1],
                    fmt("F1, l=262144, n=%d", ns[i]),
                    fmt("ratio %.2f, not above n=%d's %.2f", widest[i],
                        ns[i - 1], widest[i - 1]));
    }
  }
  std::printf("\n(theory: l* = Theta(kappa n log^2 n) against the cubic "
              "baseline's l n^3 vs our l n + kappa n^2 log^2 n)\n");
}

// T3 -- rounds vs n (Corollary 2): Pi_Z O(n log n), HighCostCA O(n).
// BroadcastTrimCA runs its n broadcasts one after another (factor n).
void t3_rounds(const Protocols& p, Claims& claims) {
  const std::size_t ell = 4096;
  const int ns[] = {4, 7, 10, 13, 16, 19, 25, 31};

  std::printf("# T3: rounds vs n (l = %zu bits, spread inputs)\n", ell);
  std::printf("%-5s %-10s %-14s %-12s %-18s\n", "n", "PiZ", "HighCostCA",
              "Broadcast", "PiZ/(n*log2(n))");

  std::vector<double> xs, ours, hc;
  for (const int n : ns) {
    const auto inputs = spread_inputs(n, ell, 4000 + static_cast<unsigned>(n));
    const Cost a = measure(p.pi_z, n, inputs, max_t(n));
    const Cost c = measure(p.high_cost, n, inputs, max_t(n));
    const Cost b = measure(p.broadcast, n, inputs, max_t(n));
    xs.push_back(n);
    ours.push_back(static_cast<double>(a.rounds));
    hc.push_back(static_cast<double>(c.rounds));
    const double per_nlogn = static_cast<double>(a.rounds) /
                             (n * std::log2(static_cast<double>(n)));
    std::printf("%-5d %-10zu %-14zu %-12zu %-18.2f\n", n, a.rounds, c.rounds,
                b.rounds, per_nlogn);
    const std::string at = fmt("T3, n=%d", n);
    claims.expect(a.rounds > c.rounds, at, "PiZ rounds > HighCostCA rounds");
    claims.within(per_nlogn, 5, 30, at, "PiZ/(n*log2(n))");
  }

  const double slope = loglog_slope(xs, ours);
  std::printf("\nempirical log-log slope in n:  PiZ=%.2f  HighCost=%.2f   "
              "(theory: ~1.x with log factor, ~1)\n",
              slope, loglog_slope(xs, hc));
  claims.within(slope, 0.8, 1.2, "T3, slope", "PiZ log-log slope");
}

// T4 -- Pi_lBA+ (Theorem 1) against Turpin-Coan's O(l n^2): the ratio
// grows with l (toward ~2n/3) and with n.
void t4_ba_ext(const Protocols& p, Claims& claims) {
  const ba::BAKit kit = p.stack.kit();
  const ba::LongBAPlus lba(kit);
  const auto& tc = *kit.multivalued;
  const auto bits = [&](int n, const Bytes& value) {
    const int t = max_t(n);
    const auto ext = run_subprotocol(
        n, t, [&](net::PartyContext& ctx, int) { (void)lba.run(ctx, value); });
    const auto naive = run_subprotocol(n, t, [&](net::PartyContext& ctx, int) {
      (void)tc.run(ctx, value);
    });
    return std::pair{ext.honest_bits(), naive.honest_bits()};
  };

  std::printf("# T4a: BA for long messages, bits vs l (n = 10, t = 3, all "
              "parties share the input)\n");
  std::printf("%-10s %-16s %-18s %-8s\n", "l(bits)", "Pi_lBA+", "TurpinCoan",
              "ratio");
  Rng rng(55);
  double last_ratio = 0;
  for (const std::size_t ell :
       {1u << 10, 1u << 12, 1u << 14, 1u << 16, 1u << 18, 1u << 20}) {
    const auto [ext, naive] = bits(10, rng.bytes(ell / 8));
    const double r = ratio(naive, ext);
    std::printf("%-10zu %-16s %-18s %-8.2f\n", ell, human_bits(ext).c_str(),
                human_bits(naive).c_str(), r);
    claims.rising(r, last_ratio, fmt("T4a, l=%zu", ell), "ratio");
  }

  std::printf("\n# T4b: bits vs n (l = 2^16)\n");
  std::printf("%-5s %-16s %-18s %-8s %-20s\n", "n", "Pi_lBA+", "TurpinCoan",
              "ratio", "Pi_lBA+ bits/(l*n)");
  const std::size_t ell = 1u << 16;
  const Bytes value = rng.bytes(ell / 8);
  last_ratio = 0;
  for (const int n : {4, 7, 10, 13, 16, 19, 25, 31}) {
    const auto [ext, naive] = bits(n, value);
    const double r = ratio(naive, ext);
    const double ext_per_bit = per_bit(ext, ell, n);
    std::printf("%-5d %-16s %-18s %-8.2f %-20.2f\n", n,
                human_bits(ext).c_str(), human_bits(naive).c_str(), r,
                ext_per_bit);
    const std::string at = fmt("T4b, n=%d", n);
    claims.rising(r, last_ratio, at, "ratio");
    claims.within(ext_per_bit, 2.5, 6, at, "Pi_lBA+ bits/(l*n)");
  }
  std::printf("\n(theory: T4a ratio grows toward ~n * 2/3; T4b Pi_lBA+ "
              "bits/(l*n) flattens while the ratio grows with n)\n");
}

// T5 -- Pi_BA+ (Theorem 6): Intrusion Tolerance and Bounded Pre-Agreement
// cost a constant factor over one multivalued Pi_BA run.
void t5_ba_plus(const Protocols& p, Claims& claims) {
  const ba::BAKit kit = p.stack.kit();
  const ba::BAPlus bap(kit);

  std::printf("# T5: Pi_BA+ on kappa-bit values (kappa = 256) vs plain "
              "multivalued Pi_BA (Turpin-Coan instantiation)\n");
  std::printf("%-5s %-14s %-14s %-10s %-16s %-12s\n", "n", "Pi_BA+",
              "Pi_BA(kappa)", "overhead", "Pi_BA+/(k*n^2)", "rounds");

  Rng rng(66);
  const Bytes digest_like = rng.bytes(32);
  // Worst-ish case: two honest camps, so both the a- and b-agreement
  // stages run in full.
  const auto camp_input = [&](int id) {
    Bytes v = digest_like;
    v[0] = static_cast<std::uint8_t>(id % 2);
    return v;
  };
  for (const int n : {4, 7, 10, 13, 16, 19, 25, 31, 40}) {
    const int t = max_t(n);
    const auto plus =
        run_subprotocol(n, t, [&](net::PartyContext& ctx, int id) {
          (void)bap.run(ctx, camp_input(id));
        });
    const auto plain =
        run_subprotocol(n, t, [&](net::PartyContext& ctx, int id) {
          (void)kit.multivalued->run(ctx, camp_input(id));
        });
    const double overhead = ratio(plus.honest_bits(), plain.honest_bits());
    const double per_kn2 =
        static_cast<double>(plus.honest_bits()) / (256.0 * n * n);
    std::printf("%-5d %-14s %-14s %-10.2f %-16.3f %-12zu\n", n,
                human_bits(plus.honest_bits()).c_str(),
                human_bits(plain.honest_bits()).c_str(), overhead, per_kn2,
                plus.rounds);
    const std::string at = fmt("T5, n=%d", n);
    claims.within(overhead, 3, 5, at, "overhead");
    claims.within(per_kn2, 5, 8, at, "Pi_BA+/(k*n^2)");
  }
  std::printf("\n(theory: overhead a small constant; bits/(kappa n^2) "
              "bounded; rounds dominated by the 4 Pi_BA invocations)\n");
}

// F2 -- Pi_Z's bits per phase over l, read off a canonical obs::Tracer's
// span tree; GetOutput stays O(n^2) whatever l is. The leaf breakdown must
// sum to the honest bytes, so the table cannot drift from the meter.
void f2_breakdown(const Protocols& p, Claims& claims) {
  const int n = 10;
  const int t = max_t(n);

  const auto table = [&](const char* workload, const auto& make_inputs) {
    std::printf("\n## workload: %s\n", workload);
    std::printf("%-10s %-12s %-14s %-14s %-14s %-12s %-12s\n", "l(bits)",
                "total", "prefix-search", "lBA+ total", "lBA+ distrib",
                "last-unit", "GetOutput");
    std::vector<std::uint64_t> get_output;
    for (const std::size_t ell : {1u << 10, 1u << 13, 1u << 16, 1u << 18}) {
      obs::Tracer tracer(obs::Tracer::Options{/*timing=*/false});
      ca::SimConfig cfg;
      cfg.n = n;
      cfg.t = t;
      cfg.inputs = make_inputs(ell);
      cfg.tracer = &tracer;
      const ca::SimResult r = ca::run_simulation(p.pi_z, cfg);
      const auto phases = tracer.inclusive_bytes_by_name();
      const auto get = [&](const char* key) -> std::uint64_t {
        const auto it = phases.find(key);
        return it == phases.end() ? 0 : it->second * 8;
      };
      std::uint64_t leaf_sum = 0;
      for (const auto& [phase, bytes] : r.stats.phase_breakdown) {
        leaf_sum += bytes;
      }
      claims.expect(leaf_sum == r.stats.honest_bytes,
                    fmt("F2, %s, l=%zu", workload, ell),
                    "leaf phase_breakdown sums to the honest bytes");
      const std::uint64_t search =
          get("FindPrefix") + get("FindPrefixBlocks");
      const std::uint64_t last_unit =
          get("AddLastBit") + get("AddLastBlock");
      get_output.push_back(get("GetOutput"));
      std::printf("%-10zu %-12s %-14s %-14s %-14s %-12s %-12s\n", ell,
                  human_bits(r.stats.honest_bits()).c_str(),
                  human_bits(search).c_str(), human_bits(get("lBA+")).c_str(),
                  human_bits(get("lBA+/distribute")).c_str(),
                  human_bits(last_unit).c_str(),
                  human_bits(get_output.back()).c_str());
    }
    // GetOutput is skipped when the search settles the value (the
    // clustered workload's shortest l); wherever it runs it costs the same.
    const std::uint64_t widest = get_output.back();
    for (const std::uint64_t g : get_output) {
      claims.expect(widest > 0 && (g == 0 || g == widest),
                    fmt("F2, %s", workload),
                    fmt("GetOutput %s at some l, %s at l=262144",
                        human_bits(g).c_str(), human_bits(widest).c_str()));
    }
  };
  table("clustered (shared 'sensor' prefix, 24 spread bits)",
        [&](std::size_t ell) {
          return clustered_inputs(n, ell, 24, 7500 + ell);
        });
  table("spread (uniform random values)",
        [&](std::size_t ell) { return spread_inputs(n, ell, 7000 + ell); });
  std::printf("\n(theory: both carry Theta(l n) + poly bits, through "
              "different doors. Clustered inputs agree inside Pi_lBA+, so "
              "the l-term flows through the distributing step; spread inputs "
              "drive every Pi_lBA+ to bottom, so the search stays cheap and "
              "the l-term flows through AddLastBlock's HighCostCA on one "
              "l/n^2-bit block = O(l/n^2 * n^3) = O(l n). Last-unit and "
              "GetOutput stay flat in the clustered case.)\n");
}

// T6 -- bit search (Section 3, O(log l) Pi_lBA+ iterations) vs block
// search (Section 4, O(log n^2) and one HighCostCA block): the block
// variant's rounds do not depend on l.
void t6_blocks_ablation(const Protocols& p, Claims& claims) {
  const int n = 7;
  const int t = max_t(n);
  const std::size_t n2 = static_cast<std::size_t>(n) * n;

  const ca::FixedLengthCA bit_version(p.stack.kit());
  const ca::FixedLengthCABlocks block_version(p.stack.kit());

  std::printf("# T6: FixedLengthCA (bit search) vs FixedLengthCABlocks "
              "(n^2-block search), n = %d, t = %d\n",
              n, t);
  const auto table = [&](const char* workload, const bool clustered) {
    std::printf("\n## workload: %s\n", workload);
    std::printf("%-10s %-16s %-10s %-16s %-10s %-18s\n", "l(bits)",
                "bits:bit", "rounds", "bits:block", "rounds",
                "round savings");
    Rng rng(88);
    std::size_t block_rounds = 0;
    double last_savings = 1;
    for (std::size_t ell : {1u << 12, 1u << 14, 1u << 16, 1u << 18, 1u << 20}) {
      ell = (ell / n2) * n2;  // block variant needs a multiple of n^2
      std::vector<Bitstring> inputs;
      const Bitstring head = rng.bits(ell - 16);
      for (int i = 0; i < n; ++i) {
        if (clustered) {
          Bitstring v = head;
          v.append(rng.bits(16));
          inputs.push_back(std::move(v));
        } else {
          inputs.push_back(rng.bits(ell));
        }
      }
      const auto run_with = [&](const auto& proto) {
        return run_subprotocol(n, t, [&](net::PartyContext& ctx, int id) {
          (void)proto.run(ctx, ell, inputs[static_cast<std::size_t>(id)]);
        });
      };
      const auto bits_run = run_with(bit_version);
      const auto blocks_run = run_with(block_version);
      const double savings = ratio(bits_run.rounds, blocks_run.rounds);
      std::printf("%-10zu %-16s %-10zu %-16s %-10zu %-18.2f\n", ell,
                  human_bits(bits_run.honest_bits()).c_str(), bits_run.rounds,
                  human_bits(blocks_run.honest_bits()).c_str(),
                  blocks_run.rounds, savings);
      const std::string at = fmt("T6, %s, l=%zu", workload, ell);
      if (block_rounds == 0) block_rounds = blocks_run.rounds;
      claims.expect(blocks_run.rounds == block_rounds, at,
                    fmt("block rounds %zu, %zu at the shortest l",
                        blocks_run.rounds, block_rounds));
      claims.expect(savings > 1, at, "round savings > 1");
      claims.rising(savings, last_savings, at, "round savings");
    }
  };
  table("clustered (all but 16 tail bits shared)", true);
  table("spread (uniform random values)", false);
  std::printf("\n(theory: clustered -- both variants pay Theta(l n) "
              "distribution bits, the block variant in fewer, larger "
              "Pi_lBA+ iterations, so it saves rounds at similar bits. "
              "Spread -- every Pi_lBA+ returns bottom, so the bit variant "
              "stays poly-only while the block variant still pays "
              "AddLastBlock's O(l/n^2 * n^3) = O(l n): the bits/rounds "
              "trade-off Section 4 accepts for round efficiency.)\n");
}

// T7 -- Pi_Z's honest parties never forward unverified long payloads, so
// bits per honest party and rounds do not depend on the adversary.
void t7_adversary(const Protocols& p, Claims& claims) {
  const int n = 13;
  const int t = max_t(n);
  const std::size_t ell = 1u << 14;

  const auto inputs = clustered_inputs(n, ell, 24, 9000);
  const Cost clean = measure(p.pi_z, n, inputs, 0);
  // Corrupted parties send no honest bytes, so compare *per honest party*.
  const double clean_pp = static_cast<double>(clean.bits) / n;

  std::printf("# T7: Pi_Z honest cost vs adversary (n = %d, t = %d, l = %zu, "
              "clustered inputs; baseline row = no corruption; the ratio "
              "compares bits per honest party)\n",
              n, t, ell);
  std::printf("%-14s %-16s %-10s %-22s\n", "adversary", "honest bits",
              "rounds", "bits/honest vs clean");
  std::printf("%-14s %-16s %-10zu %-22s\n", "(none)",
              human_bits(clean.bits).c_str(), clean.rounds, "1.00");

  for (const adv::Kind kind : adv::kAllKinds) {
    const Cost c = measure(p.pi_z, n, inputs, t, kind);
    const double per_party = static_cast<double>(c.bits) / (n - t);
    const std::string name(adv::to_string(kind));
    std::printf("%-14s %-16s %-10zu %-22.2f\n", name.c_str(),
                human_bits(c.bits).c_str(), c.rounds, per_party / clean_pp);
    const std::string at = "T7, " + name;
    claims.within(per_party / clean_pp, 0.95, 1.05, at, "bits/honest vs clean");
    claims.expect(c.rounds == clean.rounds, at,
                  fmt("%zu rounds, %zu without corruption", c.rounds,
                      clean.rounds));
  }
  std::printf("\n(theory: every ratio stays near 1; small deviations come "
              "from data-dependent branch choices in the prefix search, not "
              "from forwarding adversarial bytes)\n");
}

// T8 -- input patterns: identical inputs finish after FindPrefix (fewest
// rounds), spread ones make every probe return bottom (most rounds, fewest
// bits); all stay O(l n + poly).
void t8_inputs(const Protocols& p, Claims& claims) {
  const int n = 10;
  const int t = max_t(n);
  const std::size_t ell = 1u << 14;

  struct PatternCase {
    const char* name;
    std::vector<BigInt> inputs;
  };
  Rng rng(101);
  const BigInt identical(BigNat::pow2(ell - 1) + rng.nat_below_pow2(ell - 2),
                         false);
  // Two camps at maximal prefix distance: 2^(l-1)-1 vs 2^(l-1).
  std::vector<BigInt> camps;
  for (int i = 0; i < n; ++i) {
    camps.emplace_back(i % 2 == 0 ? BigNat::pow2(ell - 1) - BigNat(1)
                                  : BigNat::pow2(ell - 1),
                       false);
  }
  const PatternCase cases[] = {
      {"identical",
       std::vector<BigInt>(static_cast<std::size_t>(n), identical)},
      {"cluster-8bit", clustered_inputs(n, ell, 8, 102)},
      {"cluster-64bit", clustered_inputs(n, ell, 64, 103)},
      {"cluster-1024bit", clustered_inputs(n, ell, 1024, 104)},
      {"spread", spread_inputs(n, ell, 105)},
      {"carry-boundary", std::move(camps)}};

  std::printf("# T8: Pi_Z cost vs honest input pattern (n = %d, t = %d, "
              "l = %zu, t replay corruptions)\n",
              n, t, ell);
  std::printf("%-16s %-16s %-10s\n", "pattern", "honest bits", "rounds");
  std::vector<Cost> costs;
  for (const auto& c : cases) {
    costs.push_back(measure(p.pi_z, n, c.inputs, t, adv::Kind::kReplay));
    std::printf("%-16s %-16s %-10zu\n", c.name,
                human_bits(costs.back().bits).c_str(), costs.back().rounds);
  }
  const Cost& same = costs[0];
  const Cost& spread = costs[4];
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const std::string at = fmt("T8, %s", cases[i].name);
    claims.within(per_bit(costs[i].bits, ell, n), 2.5, 16, at, "bits/(l*n)");
    claims.expect(same.rounds <= costs[i].rounds, at, "rounds >= identical's");
    claims.expect(spread.rounds >= costs[i].rounds, at, "rounds <= spread's");
    claims.expect(spread.bits <= costs[i].bits, at, "bits >= spread's");
  }
  std::printf("\n(theory: identical inputs skip GetOutput; cost rises mildly "
              "with spread as more Pi_lBA+ iterations return bottom and "
              "re-run on updated values; all stay O(l n + poly))\n");
}

// BA-abl -- Pi_BA inside Pi_Z: (a) Turpin-Coan over binary Phase-King,
// O(kappa n^2 + n^3) bits, vs (b) multivalued Phase-King, O(kappa n^3).
// The l-term is the same, so the gap is the O(log n) * BITS_kappa(Pi_BA)
// term.
void ba_choice(const Protocols& p, Claims& claims) {
  const ba::PhaseKingMultivalued mvpk;
  const ba::BAKit tc_kit = p.stack.kit();
  const char* names[] = {"TC-over-PhaseKing", "Multivalued-PhaseKing"};
  const ca::PiZ variants[] = {ca::PiZ(tc_kit),
                              ca::PiZ({tc_kit.binary, &mvpk})};

  const std::size_t ell = 1u << 14;
  std::printf("# Ablation: Pi_BA instantiation inside Pi_Z (l = %zu bits, "
              "spread inputs)\n",
              ell);
  std::printf("%-5s", "n");
  for (const char* name : names) std::printf(" %-24s", name);
  std::printf(" %s\n", "overhead(b/a)");

  for (const int n : {4, 7, 10, 13, 16, 19}) {
    const int t = max_t(n);
    const auto inputs = spread_inputs(n, ell, 12000 + static_cast<unsigned>(n));
    std::uint64_t bits[2] = {};
    for (std::size_t v = 0; v < 2; ++v) {
      const auto stats =
          run_subprotocol(n, t, [&](net::PartyContext& ctx, int id) {
            (void)variants[v].run(ctx, inputs[static_cast<std::size_t>(id)]);
          });
      bits[v] = stats.honest_bits();
    }
    const double overhead = ratio(bits[1], bits[0]);
    std::printf("%-5d %-24s %-24s %.2f\n", n, human_bits(bits[0]).c_str(),
                human_bits(bits[1]).c_str(), overhead);
    // Neutral while the BA term is small; n = 19 is where it bites.
    claims.within(overhead, n < 19 ? 0.9 : 1.25, n < 19 ? 1.1 : 2,
                  fmt("BA-abl, n=%d", n), "overhead(b/a)");
  }
  std::printf("\n(theory: the gap grows with n -- direct multivalued "
              "Phase-King pays kappa-bit values in every universal exchange "
              "of every one of its t+1 phases)\n");
}

}  // namespace
}  // namespace coca::bench

int main(int argc, char** argv) {
  using namespace coca::bench;
  if (argc > 1) {
    std::fprintf(stderr, "unknown argument: %s (this bench takes none)\n",
                 argv[1]);
    return 2;
  }
  const struct {
    const char* id;
    void (*print)(const Protocols&, Claims&);
  } tables[] = {{"T1", t1_comm_vs_n},       {"T2", t2_comm_vs_ell},
                {"F1", f1_crossover},       {"T3", t3_rounds},
                {"T4", t4_ba_ext},          {"T5", t5_ba_plus},
                {"F2", f2_breakdown},       {"T6", t6_blocks_ablation},
                {"T7", t7_adversary},       {"T8", t8_inputs},
                {"BA-abl", ba_choice}};
  const Protocols p;
  Claims claims;
  for (const auto& table : tables) {
    try {
      table.print(p, claims);
    } catch (const std::exception& e) {
      claims.expect(false, fmt("%s, a run", table.id), e.what());
    }
  }
  std::fflush(stdout);
  return claims.report();
}

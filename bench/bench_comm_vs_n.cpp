// T1 -- honest communication vs n at fixed l.
//
// Claim under test (Theorem 5 / Corollary 1 vs the baselines): at a fixed
// input length l large enough for the O(l n) term to dominate,
//   BITS(Pi_Z)            = O(l n    + kappa n^2 log^2 n)
//   BITS(BroadcastTrimCA) = O(l n^2  + kappa n^3 log n)
//   BITS(HighCostCA)      = O(l n^3)
// so the measured log-log slopes in n should order roughly 1 < 2 < 3 and
// Pi_Z must win everywhere in the sweep.
#include "bench_support.h"

int main(int argc, char** argv) {
  coca::bench::parse_args(argc, argv);
  using namespace coca;
  using namespace coca::bench;

  const std::size_t ell = 16384;
  const int ns[] = {4, 7, 10, 13, 16, 19, 25, 31};

  const ca::ConvexAgreement pi_z;
  const ca::DefaultBAStack stack;
  const ca::BroadcastTrimCA broadcast(stack.kit());
  const ca::HighCostCAProtocol high_cost(stack.kit());

  std::printf("# T1: honest communication vs n (l = %zu bits, spread inputs, "
              "t = floor((n-1)/3), t silent corruptions)\n",
              ell);
  std::printf("%-5s %-16s %-18s %-16s %-12s\n", "n", "PiZ", "BroadcastTrim",
              "HighCostCA", "PiZ/(l*n)");

  std::vector<double> xs, ours, bc, hc;
  for (const int n : ns) {
    const auto inputs = spread_inputs(n, ell, 1001 + static_cast<unsigned>(n));
    const Cost a = measure(pi_z, n, inputs, max_t(n));
    const Cost b = measure(broadcast, n, inputs, max_t(n));
    // HighCostCA moves l*n^3 bits; cap the sweep where that stays sane.
    const bool run_hc = n <= 19;
    const Cost c = run_hc ? measure(high_cost, n, inputs, max_t(n)) : Cost{};
    xs.push_back(n);
    ours.push_back(static_cast<double>(a.bits));
    bc.push_back(static_cast<double>(b.bits));
    if (run_hc) hc.push_back(static_cast<double>(c.bits));
    std::printf("%-5d %-16s %-18s %-16s %-12.2f\n", n,
                human_bits(a.bits).c_str(), human_bits(b.bits).c_str(),
                run_hc ? human_bits(c.bits).c_str() : "-",
                static_cast<double>(a.bits) /
                    (static_cast<double>(ell) * n));
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

  // ---- Part (b): scale l = kappa * n * log^2 n so every point sits in the
  // paper's optimality regime; here PiZ must look linear in n.
  std::printf("\n# T1b: same sweep with l = kappa*n*log2(n)^2 (optimal "
              "regime)\n");
  std::printf("%-5s %-10s %-16s %-18s %-12s %-10s\n", "n", "l(bits)", "PiZ",
              "BroadcastTrim", "PiZ/(l*n)", "ratio");
  std::vector<double> xs_b, ours_b;
  for (const int n : ns) {
    const double log2n = std::log2(static_cast<double>(n));
    const std::size_t ell_b =
        static_cast<std::size_t>(256.0 * n * log2n * log2n);
    const auto inputs = spread_inputs(n, ell_b, 1100 + static_cast<unsigned>(n));
    const Cost a = measure(pi_z, n, inputs, max_t(n));
    const Cost b = measure(broadcast, n, inputs, max_t(n));
    xs_b.push_back(n);
    ours_b.push_back(static_cast<double>(a.bits));
    std::printf("%-5d %-10zu %-16s %-18s %-12.2f %-10.2f\n", n, ell_b,
                human_bits(a.bits).c_str(), human_bits(b.bits).c_str(),
                static_cast<double>(a.bits) /
                    (static_cast<double>(ell_b) * n),
                static_cast<double>(b.bits) / static_cast<double>(a.bits));
  }
  std::printf("\nempirical log-log slope in n (optimal regime): PiZ=%.2f "
              "(theory: ~2.6, because l itself grows ~ n log^2 n here; the "
              "optimality evidence is the flat PiZ/(l*n) column = Theta(l n) "
              "bits, and the baseline ratio growing ~ n)\n",
              loglog_slope(xs_b, ours_b));
  return 0;
}

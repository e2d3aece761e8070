#include "ca/pi_n.h"

namespace coca::ca {

BigNat PiN::run(net::PartyContext& ctx, const BigNat& v_in) const {
  const std::size_t n = static_cast<std::size_t>(ctx.n());
  const std::size_t n2 = n * n;
  auto phase = ctx.phase("PiN");

  // Line 1: agree on the length regime.
  const bool long_regime =
      kit_.binary->run(ctx, v_in.bit_length() > n2);

  if (!long_regime) {
    // Lines 3-7: short regime. Some honest party has at most n^2 bits, so
    // 2^{n^2}-1 is valid for anyone longer; then find the smallest power of
    // two no honest party exceeds (guaranteed by BA Validity at the last
    // iteration, since every value now fits in n^2 <= 2^{ceil log n^2} bits).
    BigNat v = v_in.bit_length() > n2 ? BigNat::max_with_bits(n2) : v_in;
    const std::size_t last = ceil_log2(std::max<std::size_t>(n2, 2));
    for (std::size_t i = 0; i <= last; ++i) {
      const std::size_t two_i = std::size_t{1} << i;
      const bool too_long = kit_.binary->run(ctx, v.bit_length() > two_i);
      if (!too_long) {
        const std::size_t ell_est = two_i;
        if (v.bit_length() > ell_est) v = BigNat::max_with_bits(ell_est);
        return BigNat::from_bits(fixed_.run(ctx, ell_est, v.to_bits(ell_est)));
      }
    }
    // Unreachable with t' <= t corruptions (the last iteration's BA has all
    // honest inputs 0); a deterministic fallback keeps harsher runs defined.
    const std::size_t ell_est = std::size_t{1} << last;
    v = BigNat::max_with_bits(ell_est);
    return BigNat::from_bits(fixed_.run(ctx, ell_est, v.to_bits(ell_est)));
  }

  // Lines 9-11: long regime. Agree on the block size, pad, and run the
  // block-search protocol.
  const HighCostCA high_cost;
  const BigNat block_size =
      high_cost.run(ctx, BigNat(ceil_div(v_in.bit_length(), n2)));
  // Block sizes are ceil(l/n^2) for honest l, so the agreed value fits in a
  // machine word for any realizable input (validity keeps it in range).
  const std::size_t ell_est =
      static_cast<std::size_t>(block_size.to_u64()) * n2;
  if (ell_est == 0) {
    // BLOCKSIZE' = 0 implies some honest party held the empty value, so 0
    // is valid; the branch is agreed because BLOCKSIZE' is agreed.
    return BigNat(0);
  }
  // The paper's line 10 replaces v when |BITS(v)| >= l_EST; we replace only
  // when strictly longer -- a value of exactly l_EST bits already fits, and
  // replacing it by 2^{l_EST}-1 could leave the honest range.
  Bitstring v = v_in.bit_length() > ell_est ? Bitstring::ones(ell_est)
                                            : v_in.to_bits(ell_est);
  return BigNat::from_bits(fixed_blocks_.run(ctx, ell_est, std::move(v)));
}

}  // namespace coca::ca

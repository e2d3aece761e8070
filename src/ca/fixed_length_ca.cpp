#include "ca/fixed_length_ca.h"

namespace coca::ca {

Bitstring FixedLengthCA::run(net::PartyContext& ctx, std::size_t ell,
                             Bitstring v_in) const {
  require(v_in.size() == ell, "FixedLengthCA: input must have ell bits");
  require(ell >= 1, "FixedLengthCA: ell must be positive");
  auto phase = ctx.phase("FixedLengthCA");

  // Line 1: prefix search.
  FindPrefixResult fp = find_prefix(ctx, lba_plus_, ell, std::move(v_in));
  if (fp.prefix.size() == ell) return fp.v;

  // Line 2: extend the prefix by one bit.
  Bitstring prefix =
      add_last_bit(ctx, *kit_.binary, ell, fp.v, std::move(fp.prefix));

  // Line 3: decide between the two remaining candidates.
  return get_output(ctx, *kit_.binary, ell, fp.v_bot(), prefix);
}

}  // namespace coca::ca

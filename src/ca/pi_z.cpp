#include "ca/pi_z.h"

namespace coca::ca {

BigInt PiZ::run(net::PartyContext& ctx, const BigInt& v_in) const {
  auto phase = ctx.phase("PiZ");
  // Line 1: agree on the sign.
  const bool sign_out = kit_.binary->run(ctx, v_in.sign_bit());
  // Line 2: parties on the wrong side contribute 0 (valid by Corollary 1's
  // proof: the agreed sign is some honest party's sign, so the honest range
  // crosses or touches 0 whenever signs were mixed).
  const BigNat zero;
  const BigNat& magnitude =
      sign_out == v_in.sign_bit() ? v_in.magnitude() : zero;
  // Line 3.
  return BigInt(pi_n_.run(ctx, magnitude), sign_out);
}

}  // namespace coca::ca

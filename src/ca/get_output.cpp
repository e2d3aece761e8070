#include "ca/get_output.h"

namespace coca::ca {

Bitstring add_last_bit(net::PartyContext& ctx, const ba::BinaryBA& bin,
                       std::size_t ell, const Bitstring& v, Bitstring prefix) {
  require(prefix.size() < ell, "add_last_bit: prefix already ell bits");
  auto phase = ctx.phase("AddLastBit");
  // Paper line 1: BA on bit i*+1 of v (the paper indexes bits from 1; our
  // bit() from 0, so this is bit(|prefix|)).
  const bool b = bin.run(ctx, v.bit(prefix.size()));
  prefix.push_back(b);
  return prefix;
}

Bitstring get_output(net::PartyContext& ctx, const ba::BinaryBA& bin,
                     std::size_t ell, const Bitstring& v_bot,
                     const Bitstring& prefix) {
  require(v_bot.size() == ell && prefix.size() <= ell,
          "get_output: size mismatch");
  auto phase = ctx.phase("GetOutput");

  // Lines 1-3: parties whose witness diverges from PREFIX* announce which
  // side it lies on. B = 0 means "below MIN_l(PREFIX*)" (so MIN is valid),
  // B = 1 means "above MAX_l(PREFIX*)". Both fills agree with PREFIX* up to
  // its length, so the side is the witness's bit where it first leaves it.
  const std::size_t agree = Bitstring::common_prefix_len(v_bot, prefix);
  if (agree < prefix.size()) {
    const bool below = !v_bot.bit(agree);
    ctx.send_all(Bytes{static_cast<std::uint8_t>(below ? 0 : 1)});
  }

  // Line 4: CHOICE := a bit received from ceil(m/2) of the m announcers;
  // with t+1 honest announcements, the majority bit is honest.
  int count[2] = {0, 0};
  for (const auto& e : net::first_per_sender(ctx.advance())) {
    if (e.payload.size() == 1 && e.payload[0] <= 1) ++count[e.payload[0]];
  }
  const int m = count[0] + count[1];
  const bool choice = m > 0 && count[0] < (m + 1) / 2;

  // Line 5: binary BA on the choice; 0 => MIN_l(PREFIX*), 1 => MAX_l(PREFIX*).
  return bin.run(ctx, choice) ? Bitstring::max_fill(prefix, ell)
                              : Bitstring::min_fill(prefix, ell);
}

}  // namespace coca::ca

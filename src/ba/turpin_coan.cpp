#include "ba/turpin_coan.h"

#include <map>

namespace coca::ba {

namespace {
constexpr std::uint8_t kNoneTag = 2;  // round-2 "no candidate" marker
}  // namespace

MaybeBytes TurpinCoan::run(net::PartyContext& ctx,
                           const MaybeBytes& input) const {
  const int n = ctx.n();
  const int t = ctx.t();

  // Round 1: distribute inputs; y is the unique value received from >= n-t
  // senders, if any (two values cannot both qualify when t < n/2).
  ctx.send_all(encode_maybe(input));
  // Payload-view keys: counting and re-sending the winning encoding are
  // pure view operations -- no byte is copied between receive and echo.
  std::map<net::Payload, int> counts;
  for (const auto& e : net::first_per_sender(ctx.advance())) {
    if (decode_maybe(e.payload)) ++counts[e.payload];
  }
  bool have_y = false;
  net::Payload y_enc;
  for (const auto& [enc, cnt] : counts) {
    if (cnt >= n - t) {
      y_enc = enc;
      have_y = true;
      break;
    }
  }

  // Round 2: distribute y (or none). Honest y's can name at most one value,
  // so a value echoed by >= n-t senders certifies near pre-agreement.
  ctx.send_all(have_y ? y_enc : net::Payload::inline_of({kNoneTag}));
  std::map<net::Payload, int> echoes;
  for (const auto& e : net::first_per_sender(ctx.advance())) {
    if (decode_maybe(e.payload)) ++echoes[e.payload];
  }
  bool certified = false;
  for (const auto& [enc, cnt] : echoes) {
    if (cnt >= n - t) {
      certified = true;
      break;
    }
  }

  // Binary BA decides whether the certified value is adopted.
  if (!binary_->run(ctx, certified)) return std::nullopt;

  // Agreement on 1 implies >= t+1 honest parties echoed the same value w,
  // so every honest party sees w at least t+1 times and nothing else can
  // reach t+1 (honest echoes name at most one value).
  for (const auto& [enc, cnt] : echoes) {
    if (cnt >= t + 1) return *decode_maybe(enc);
  }
  // Unreachable when at most t parties are corrupted; deterministic
  // fallback keeps behaviour defined under harsher test conditions.
  return std::nullopt;
}

}  // namespace coca::ba

#include "ba/turpin_coan.h"

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
  // Counted values are payload views: re-sending the winning encoding
  // copies no byte between receive and echo.
  const auto counts = net::tally(ctx.advance(), is_maybe);
  const net::ValueCount* y = net::first_reaching(counts, n - t);

  // Round 2: distribute y (or none). Honest y's can name at most one value,
  // so a value echoed by >= n-t senders certifies near pre-agreement.
  ctx.send_all(y ? y->value : net::Payload::inline_of({kNoneTag}));
  const auto echoes = net::tally(ctx.advance(), is_maybe);
  const bool certified = net::first_reaching(echoes, n - t) != nullptr;

  // Binary BA decides whether the certified value is adopted.
  if (!binary_->run(ctx, certified)) return std::nullopt;

  // Agreement on 1 implies >= t+1 honest parties echoed the same value w,
  // so every honest party sees w at least t+1 times and nothing else can
  // reach t+1 (honest echoes name at most one value).
  if (const auto* w = net::first_reaching(echoes, t + 1)) {
    return *decode_maybe(w->value);
  }
  // Unreachable when at most t parties are corrupted; deterministic
  // fallback keeps behaviour defined under harsher test conditions.
  return std::nullopt;
}

}  // namespace coca::ba

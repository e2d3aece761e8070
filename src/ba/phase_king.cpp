#include "ba/phase_king.h"

namespace coca::ba {

namespace {

// Round-2 wire tag for "no value survived round 1" in the multivalued
// variant; distinct from every domain encoding (those start with 0 or 1).
constexpr std::uint8_t kNoneTag = 2;

}  // namespace

bool PhaseKingBinary::run(net::PartyContext& ctx, bool input) const {
  const int n = ctx.n();
  const int t = ctx.t();
  std::uint8_t v = input ? 1 : 0;

  for (int phase = 0; phase <= t; ++phase) {
    // Round 1: universal exchange of v in {0,1}; adopt the unique value
    // received from >= n-t senders, else the sentinel 2.
    ctx.send_all(net::Payload::inline_of({v}));
    int c[2] = {0, 0};
    for (const auto& e : net::first_per_sender(ctx.advance())) {
      if (e.payload.size() == 1 && e.payload[0] <= 1) ++c[e.payload[0]];
    }
    std::uint8_t u = 2;
    if (c[0] >= n - t) {
      u = 0;
    } else if (c[1] >= n - t) {
      u = 1;
    }

    // Round 2: universal exchange of u in {0,1,2}; m is the most frequent
    // real value (ties to 0), "strong" if it reached n-t occurrences.
    ctx.send_all(net::Payload::inline_of({u}));
    int d[3] = {0, 0, 0};
    for (const auto& e : net::first_per_sender(ctx.advance())) {
      if (e.payload.size() == 1 && e.payload[0] <= 2) ++d[e.payload[0]];
    }
    const std::uint8_t m = d[1] > d[0] ? 1 : 0;
    const bool strong = d[m] >= n - t;

    // Round 3: the phase king broadcasts its m; non-strong parties adopt it
    // (a missing or malformed king message reads as 0).
    if (ctx.id() == phase) ctx.send_all(net::Payload::inline_of({m}));
    std::uint8_t king_value = 0;
    for (const auto& e : net::first_per_sender(ctx.advance())) {
      if (e.from == phase && e.payload.size() == 1 && e.payload[0] <= 1) {
        king_value = e.payload[0];
      }
    }
    v = strong ? m : king_value;
  }
  return v == 1;
}

MaybeBytes PhaseKingMultivalued::run(net::PartyContext& ctx,
                                     const MaybeBytes& input) const {
  const int n = ctx.n();
  const int t = ctx.t();
  MaybeBytes v = input;

  for (int phase = 0; phase <= t; ++phase) {
    // Round 1: exchange v; adopt the unique value with >= n-t occurrences.
    ctx.send_all(encode_maybe(v));
    // At most one value can reach n-t distinct senders.
    const auto counts = net::tally(ctx.advance(), is_maybe);
    const net::ValueCount* u = net::first_reaching(counts, n - t);

    // Round 2: exchange u (or the none sentinel). m is the most frequent
    // real value, ties to the lexicographically smallest encoding; when no
    // real value was seen at all, m falls back to domain bottom.
    ctx.send_all(u ? u->value.owned() : Bytes{kNoneTag});
    const auto us = net::tally(ctx.advance(), is_maybe);
    const net::ValueCount* most = nullptr;
    for (const net::ValueCount& c : us) {
      // Ascending order = deterministic tiebreak.
      if (most == nullptr || c.count > most->count) most = &c;
    }
    // Bottom unless a real value was observed.
    const MaybeBytes m = most ? *decode_maybe(most->value) : std::nullopt;
    const bool strong = most != nullptr && most->count >= n - t;

    // Round 3: king broadcast; missing/malformed reads as bottom.
    if (ctx.id() == phase) ctx.send_all(encode_maybe(m));
    MaybeBytes king_value;
    for (const auto& e : net::first_per_sender(ctx.advance())) {
      if (e.from == phase) {
        if (auto dec = decode_maybe(e.payload)) king_value = std::move(*dec);
      }
    }
    v = strong ? m : king_value;
  }
  return v;
}

}  // namespace coca::ba

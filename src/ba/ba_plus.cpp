#include "ba/ba_plus.h"

#include <algorithm>

namespace coca::ba {

namespace {

/// The (at most two) values counted at least `threshold` times, most
/// frequent first, ties in value order: the paper proves at most two exist,
/// and the order keeps behaviour deterministic beyond the model's t.
std::vector<net::ValueCount> top_two(std::vector<net::ValueCount> counts,
                                     int threshold) {
  std::stable_sort(counts.begin(), counts.end(),
                   [](const auto& x, const auto& y) {
                     return x.count > y.count;
                   });
  std::erase_if(counts, [&](const auto& c) { return c.count < threshold; });
  if (counts.size() > 2) counts.resize(2);
  return counts;
}

}  // namespace

MaybeBytes BAPlus::run(net::PartyContext& ctx, Bytes input) const {
  const int n = ctx.n();
  const int t = ctx.t();
  auto phase = ctx.phase("BA+");

  // Line 1: distribute inputs. Any byte string counts as a value here;
  // inputs are opaque to the protocol.
  ctx.send_all(std::move(input));
  const auto any = [](const net::Payload&) { return true; };

  // Line 2: vote for every value received from >= n-2t senders.
  const auto candidates = top_two(net::tally(ctx.advance(), any), n - 2 * t);
  Writer vote;
  vote.u8(narrow<std::uint8_t>(candidates.size()));
  for (const net::ValueCount& c : candidates) vote.bytes(c.value);
  ctx.send_all(std::move(vote).take());

  // Line 3: a and b are the (at most two) values voted by >= n-t parties.
  // A voted value is a slice of its vote message, not a copy.
  std::vector<net::ValueCount> votes;
  for (const auto& e : net::first_per_sender(ctx.advance())) {
    Reader r(e.payload);
    const auto k = r.u8();
    if (!k || *k > 2) continue;
    net::Payload first;
    for (std::uint8_t i = 0; i < *k; ++i) {
      const auto v = r.bytes_view();
      if (!v) break;
      net::Payload value = e.payload.slice(
          static_cast<std::size_t>(v->data() - e.payload.data()), v->size());
      // A sender's vote counts once per distinct value.
      if (i == 1 && value == first) continue;
      first = value;
      net::count_value(votes, std::move(value));
    }
  }
  const auto heavy = top_two(std::move(votes), n - t);
  MaybeBytes a, b;
  if (!heavy.empty()) {  // a <= b in value order
    const auto [lo, hi] = std::minmax(heavy.front().value, heavy.back().value);
    a = lo.owned();
    b = hi.owned();
  }

  // Line 4: try to agree on a.
  const MaybeBytes a_prime = kit_.multivalued->run(ctx, a);
  const bool happy_a = kit_.binary->run(ctx, a_prime == a && a.has_value());
  if (happy_a) return a_prime;

  // Line 5: try to agree on b.
  const MaybeBytes b_prime = kit_.multivalued->run(ctx, b);
  const bool happy_b = kit_.binary->run(ctx, b_prime == b && b.has_value());
  if (happy_b) return b_prime;
  return std::nullopt;
}

}  // namespace coca::ba

#include "ba/ba_plus.h"

#include <algorithm>
#include <map>

namespace coca::ba {

MaybeBytes BAPlus::run(net::PartyContext& ctx, const Bytes& input) const {
  const int n = ctx.n();
  const int t = ctx.t();
  auto phase = ctx.phase("BA+");

  // Line 1: distribute inputs. Any byte string counts as a value here;
  // inputs are opaque to the protocol.
  ctx.send_all(input);
  // Keyed by payload *views*: counting received values costs refcount
  // bumps, not byte copies (ordering matches Bytes ordering bit for bit).
  std::map<net::Payload, int> counts;
  for (const auto& e : net::first_per_sender(ctx.advance())) {
    ++counts[e.payload];
  }

  // Line 2: vote for every value received from >= n-2t senders. The paper
  // proves at most two such values exist; we order candidates by
  // (count desc, value asc) so behaviour stays deterministic even under
  // more corruptions than the model allows.
  std::vector<net::Payload> candidates;
  for (const auto& [value, cnt] : counts) {
    if (cnt >= n - 2 * t) candidates.push_back(value);
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](const net::Payload& x, const net::Payload& y) {
                     return counts[x] > counts[y];
                   });
  if (candidates.size() > 2) candidates.resize(2);
  {
    Writer vote;
    vote.u8(narrow<std::uint8_t>(candidates.size()));
    for (const net::Payload& c : candidates) vote.bytes(c);
    ctx.send_all(std::move(vote).take());
  }

  // Line 3: a and b are the (at most two) values voted by >= n-t parties.
  std::map<Bytes, int, BytesLess> votes;
  for (const auto& e : net::first_per_sender(ctx.advance())) {
    Reader r(e.payload);
    const auto k = r.u8();
    if (!k || *k > 2) continue;
    Bytes seen[2];
    std::size_t got = 0;
    for (std::uint8_t i = 0; i < *k; ++i) {
      auto v = r.bytes();
      if (!v) break;
      // A sender's vote counts once per distinct value.
      if (got == 1 && seen[0] == *v) continue;
      seen[got++] = std::move(*v);
    }
    for (std::size_t i = 0; i < got; ++i) ++votes[seen[i]];
  }
  std::vector<Bytes> heavy;
  for (const auto& [value, cnt] : votes) {
    if (cnt >= n - t) heavy.push_back(value);
  }
  std::stable_sort(heavy.begin(), heavy.end(),
                   [&](const Bytes& x, const Bytes& y) {
                     return votes[x] > votes[y];
                   });
  if (heavy.size() > 2) heavy.resize(2);
  std::sort(heavy.begin(), heavy.end(), BytesLess{});  // a <= b in value order

  MaybeBytes a, b;
  if (heavy.size() == 1) {
    a = heavy[0];
    b = heavy[0];
  } else if (heavy.size() == 2) {
    a = heavy[0];
    b = heavy[1];
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

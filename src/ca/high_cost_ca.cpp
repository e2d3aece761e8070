#include "ca/high_cost_ca.h"

#include <algorithm>

#include "util/wire.h"

namespace coca::ca {

namespace {

Bytes encode_nat(const BigNat& v) {
  Writer w;
  w.bignat(v);
  return std::move(w).take();
}

/// The natural a whole message carries, viewed in place; nullopt when the
/// message is malformed (the paper's "ignore values outside N").
std::optional<NatView> nat_view(std::span<const std::uint8_t> raw) {
  Reader r(raw);
  const auto v = r.bignat_view();
  return r.at_end() ? v : std::nullopt;
}

/// Numeric order of two messages `nat_view` accepts: a padding bit never
/// makes a second value.
bool nat_order(const net::Payload& a, const net::Payload& b) {
  return *nat_view(a) < *nat_view(b);
}

}  // namespace

BigNat HighCostCA::run(net::PartyContext& ctx, const BigNat& input) const {
  const int n = ctx.n();
  const int t = ctx.t();
  auto phase = ctx.phase("HighCostCA");

  // ---- Setup stage ----
  // Distribute inputs; with r = (n - t) + k values received, at most k are
  // byzantine, so the (k+1)-th lowest / highest received values bracket a
  // sub-interval of the honest inputs' range (Lemma 10).
  ctx.send_all(encode_nat(input));
  const auto inputs = net::first_per_sender(ctx.advance());
  std::vector<NatView> received;
  for (const auto& e : inputs) {
    if (const auto v = nat_view(e.payload)) received.push_back(*v);
  }
  std::sort(received.begin(), received.end());
  const int r = narrow<int>(received.size());
  const int k = std::max(0, r - (n - t));  // max(.,0) only guards t' > t runs
  ensure(r > 2 * k, "HighCostCA: fewer values than honest parties");
  const BigNat interval_min = received[static_cast<std::size_t>(k)].decode();
  const BigNat interval_max =
      received[static_cast<std::size_t>(r - 1 - k)].decode();

  // Exchange intervals; SUGGESTION is a natural covered by >= n-t of the
  // received intervals (exists by Corollary 4: honest intervals intersect).
  // The smallest qualifying left endpoint is a deterministic such choice.
  {
    Writer w;
    w.bignat(interval_min);
    w.bignat(interval_max);
    ctx.send_all(std::move(w).take());
  }
  // Views into the kept inbox: endpoints are compared, not decoded.
  const auto inbox = net::first_per_sender(ctx.advance());
  std::vector<std::pair<NatView, NatView>> intervals;
  for (const auto& e : inbox) {
    Reader rd(e.payload);
    auto lo = rd.bignat_view();
    auto hi = rd.bignat_view();
    if (!lo || !hi || !rd.at_end() || *lo > *hi) continue;
    intervals.emplace_back(*lo, *hi);
  }
  std::sort(intervals.begin(), intervals.end());  // left endpoints ascend
  BigNat suggestion = interval_min;  // defensive fallback, normally replaced
  for (const auto& [c, unused] : intervals) {
    int cover = 0;
    for (const auto& [lo, hi] : intervals) {
      if (lo <= c && c <= hi) ++cover;
    }
    if (cover >= n - t) {
      suggestion = c.decode();
      break;
    }
  }
  BigNat current = suggestion;

  // ---- Search stage: t+1 king phases ----
  for (int king = 0; king <= t; ++king) {
    // Send CURRENT to all.
    ctx.send_all(encode_nat(current));
    const auto currents = net::tally(ctx.advance(), nat_view, nat_order);

    // Send (PROPOSE, v) if some value was received n-t times.
    if (const auto* v = net::first_reaching(currents, n - t)) {
      ctx.send_all(encode_nat(nat_view(v->value)->decode()));
    }
    const auto proposals = net::tally(ctx.advance(), nat_view, nat_order);
    const bool widely_proposed =
        net::first_reaching(proposals, n - t) != nullptr;
    const auto* backed_proposal = net::first_reaching(proposals, t + 1);
    if (backed_proposal) current = nat_view(backed_proposal->value)->decode();

    // King broadcasts its value.
    if (ctx.id() == king) {
      ctx.send_all(encode_nat(backed_proposal ? current : suggestion));
    }
    std::optional<BigNat> king_value;
    for (const auto& e : net::first_per_sender(ctx.advance())) {
      if (e.from != king) continue;
      if (const auto v = nat_view(e.payload)) king_value = v->decode();
    }

    // Vote for the king's value if it matches CURRENT or the trusted
    // interval; adopt a king value backed by t+1 votes unless some value
    // already had n-t proposals.
    if (king_value &&
        (*king_value == current ||
         (interval_min <= *king_value && *king_value <= interval_max))) {
      ctx.send_all(encode_nat(*king_value));
    }
    const auto votes = net::tally(ctx.advance(), nat_view, nat_order);
    const auto* backed_vote = net::first_reaching(votes, t + 1);
    if (backed_vote && !widely_proposed) {
      current = nat_view(backed_vote->value)->decode();
    }
  }
  return current;
}

}  // namespace coca::ca

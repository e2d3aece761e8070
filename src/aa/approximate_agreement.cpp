#include "aa/approximate_agreement.h"

#include <algorithm>
#include <map>

#include "crypto/sha256.h"
#include "util/wire.h"

namespace coca::aa {

namespace {

Bytes encode_value(const BigInt& v) {
  Writer w;
  w.u8(v.sign_bit() ? 1 : 0);
  w.bignat(v.magnitude());
  return std::move(w).take();
}

std::optional<BigInt> decode_value(std::span<const std::uint8_t> raw) {
  Reader r(raw);
  const auto sign = r.u8();
  if (!sign || *sign > 1) return std::nullopt;
  auto mag = r.bignat();
  if (!mag || !r.at_end()) return std::nullopt;
  return BigInt(std::move(*mag), *sign == 1);
}

/// Midpoint with truncation toward zero; always within [lo, hi].
BigInt midpoint(const BigInt& lo, const BigInt& hi) {
  const BigInt sum = lo + hi;
  return BigInt(sum.magnitude() >> 1, sum.negative());
}

/// The update rule: sort the accepted multiset, trim t per side,
/// take the midpoint of the surviving range.
BigInt trimmed_midpoint(std::vector<BigInt> accepted, int t) {
  std::sort(accepted.begin(), accepted.end());
  ensure(accepted.size() > 2 * static_cast<std::size_t>(t),
         "ApproxAgreement: accepted fewer values than honest parties");
  const BigInt& lo = accepted[static_cast<std::size_t>(t)];
  const BigInt& hi =
      accepted[accepted.size() - 1 - static_cast<std::size_t>(t)];
  return midpoint(lo, hi);
}

}  // namespace

std::size_t iterations_for(const BigNat& diameter, const BigNat& epsilon) {
  require(!epsilon.is_zero(), "iterations_for: epsilon must be positive");
  std::size_t rounds = 0;
  BigNat gap = diameter;
  while (gap > epsilon) {
    gap = (gap + BigNat(1)) >> 1;  // ceiling halving: do not undercount
    ++rounds;
  }
  return rounds;
}

BigInt SyncApproxAgreement::run(net::PartyContext& ctx, const BigInt& input,
                                std::size_t rounds) const {
  const int n = ctx.n();
  const int t = ctx.t();
  auto phase = ctx.phase("ApproxAgreement");
  BigInt value = input;

  for (std::size_t iter = 0; iter < rounds; ++iter) {
    // Round 1: ship the current value to everyone.
    ctx.send_all(encode_value(value));
    // Views, not copies: only digests of these are ever re-shipped.
    std::vector<std::optional<net::Payload>> payload_of(
        static_cast<std::size_t>(n));
    for (const auto& e : net::first_per_sender(ctx.advance())) {
      payload_of[static_cast<std::size_t>(e.from)] = e.payload;
    }

    // Round 2: echo a digest vector -- one (present, H(payload)) slot per
    // sender -- so equivocation is caught without re-shipping values.
    {
      Writer w;
      for (int j = 0; j < n; ++j) {
        const auto& p = payload_of[static_cast<std::size_t>(j)];
        w.u8(p.has_value() ? 1 : 0);
        if (p) {
          const crypto::Digest d = crypto::sha256(*p);
          w.raw(std::span<const std::uint8_t>(d.data(), d.size()));
        }
      }
      ctx.send_all(std::move(w).take());
    }
    // confirmations[j] counts echoers agreeing with *my* payload from j.
    std::vector<int> confirmations(static_cast<std::size_t>(n), 0);
    std::vector<crypto::Digest> my_digest(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      if (payload_of[static_cast<std::size_t>(j)]) {
        my_digest[static_cast<std::size_t>(j)] =
            crypto::sha256(*payload_of[static_cast<std::size_t>(j)]);
      }
    }
    for (const auto& e : net::first_per_sender(ctx.advance())) {
      Reader r(e.payload);
      for (int j = 0; j < n; ++j) {
        const auto present = r.u8();
        if (!present) break;  // malformed echo: stop parsing this sender
        if (*present == 0) continue;
        crypto::Digest d;
        bool ok = true;
        for (auto& byte : d) {
          const auto b = r.u8();
          if (!b) {
            ok = false;
            break;
          }
          byte = *b;
        }
        if (!ok) break;
        if (payload_of[static_cast<std::size_t>(j)] &&
            d == my_digest[static_cast<std::size_t>(j)]) {
          ++confirmations[static_cast<std::size_t>(j)];
        }
      }
    }

    // Accepted multiset: values confirmed by n-t echoers (all honest values
    // qualify; a byzantine equivocator contributes at most one value
    // network-wide, or none).
    std::vector<BigInt> accepted;
    for (int j = 0; j < n; ++j) {
      if (confirmations[static_cast<std::size_t>(j)] < n - t) continue;
      if (auto v = decode_value(*payload_of[static_cast<std::size_t>(j)])) {
        accepted.push_back(std::move(*v));
      }
    }
    value = trimmed_midpoint(std::move(accepted), t);
  }
  return value;
}

}  // namespace coca::aa

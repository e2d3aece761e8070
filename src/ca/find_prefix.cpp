#include "ca/find_prefix.h"

#include "util/wire.h"

namespace coca::ca {

namespace {

/// The wire form of the window of bits [pos, pos+len) of `v`, written
/// straight from `v`.
Bytes encode_window(const Bitstring& v, std::size_t pos, std::size_t len) {
  Writer w;
  w.bitstring(v, pos, len);
  return std::move(w).take();
}

/// Decodes a Pi_lBA+ output as a window of exactly `want_bits` bits.
/// Intrusion Tolerance guarantees real outputs are honest windows, so a
/// mismatch can only arise outside the threat model; treating it as bottom
/// is consistent across honest parties because the input bytes are agreed.
std::optional<Bitstring> decode_window(const ba::MaybeBytes& out,
                                       std::size_t want_bits) {
  if (!out) return std::nullopt;
  Reader r(*out);
  auto bits = r.bitstring();
  if (!bits || !r.at_end() || bits->size() != want_bits) return std::nullopt;
  return bits;
}

/// Shared search: positions are expressed in units of `unit` bits
/// (unit = 1 for FindPrefix, unit = l/n^2 for FindPrefixBlocks).
FindPrefixResult search(net::PartyContext& ctx, const ba::LongBAPlus& lba_plus,
                        std::size_t total_units, std::size_t unit,
                        Bitstring v) {
  // Paper line 1: LEFT := 1, RIGHT := total+1, v_bot := v, PREFIX* := empty.
  // v_bot stays "v itself" until a fill replaces v; only then does the old
  // v move into `old_v`.
  const std::size_t ell = v.size();
  std::size_t left = 1;
  std::size_t right = total_units + 1;
  std::optional<Bitstring> old_v;
  Bitstring prefix;

  while (left != right) {
    const std::size_t mid = (left + right) / 2;
    // Window of units LEFT..MID (1-indexed, inclusive) of the current value.
    const std::size_t pos = (left - 1) * unit;
    const std::size_t len = (mid - left + 1) * unit;
    const auto agreed =
        decode_window(lba_plus.run(ctx, encode_window(v, pos, len)), len);
    if (!agreed) {
      // Bounded Pre-Agreement: for any MID-unit bitstring, t+1 honest
      // values diverge from it; remember the current value as witness and
      // keep searching in the left half.
      old_v.reset();
      right = mid;
    } else {
      // Intrusion Tolerance: prefix || agreed prefixes an honest value.
      // If v leaves PREFIX*, it is replaced by the nearer fill: MIN_l when
      // its first diverging bit is 0 (v is below), MAX_l when it is 1.
      prefix.append(*agreed);
      require(prefix.size() == mid * unit,
              "find_prefix: PREFIX* out of step with the search position");
      const std::size_t agree = Bitstring::common_prefix_len(v, prefix);
      if (agree < prefix.size()) {
        const bool above = v.bit(agree);
        if (!old_v) old_v = std::move(v);
        v = above ? Bitstring::max_fill(prefix, ell)
                  : Bitstring::min_fill(prefix, ell);
      }
#ifdef COCA_CANARY_BUG
      // Planted off-by-one (cmake -DCOCA_CANARY_BUG=ON): failing to step
      // past MID re-agrees on already-settled units, desyncing |PREFIX*|
      // from the search position. Exists to mutation-test the adversary
      // search: adv::Fuzzer must catch and shrink this within a small
      // budget (tests/test_fuzzer.cpp, CI fuzz-canary job).
      left = mid;
#else
      left = mid + 1;
#endif
    }
  }
  return {std::move(prefix), std::move(v), std::move(old_v)};
}

}  // namespace

FindPrefixResult find_prefix(net::PartyContext& ctx,
                             const ba::LongBAPlus& lba_plus, std::size_t ell,
                             Bitstring v) {
  require(v.size() == ell, "find_prefix: value must have exactly ell bits");
  auto phase = ctx.phase("FindPrefix");
  return search(ctx, lba_plus, ell, 1, std::move(v));
}

FindPrefixResult find_prefix_blocks(net::PartyContext& ctx,
                                    const ba::LongBAPlus& lba_plus,
                                    std::size_t ell, std::size_t num_blocks,
                                    Bitstring v) {
  require(v.size() == ell, "find_prefix_blocks: value must have ell bits");
  require(num_blocks >= 1 && ell % num_blocks == 0,
          "find_prefix_blocks: ell must be a positive multiple of num_blocks");
  auto phase = ctx.phase("FindPrefixBlocks");
  return search(ctx, lba_plus, num_blocks, ell / num_blocks, std::move(v));
}

}  // namespace coca::ca

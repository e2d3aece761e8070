// FindPrefix (Section 3, Lemma 1) and FindPrefixBlocks (Section 4, Lemma 4).
//
// The central insight of the paper: the longest common prefix of any values
// inside the honest inputs' range reveals a subset of that range, and can be
// located by binary search using a BA-with-extras oracle (Pi_lBA+) instead of
// ever exchanging full values.
//
// Each binary-search iteration runs Pi_lBA+ on the current window of the
// party's value:
//   * bottom  => Bounded Pre-Agreement implies fewer than n-2t honest parties
//     share that window, so for any candidate continuation at least t+1
//     honest parties hold witnesses v_bot that diverge from it; recurse left.
//   * a window w => Intrusion Tolerance implies w prefixes some honest
//     (hence valid) value; parties whose value diverges from w snap to
//     MIN_l / MAX_l of the agreed prefix (still valid by Remark 2); recurse
//     right.
//
// FindPrefixBlocks is the same search over blocks of l/n^2 bits, cutting the
// iteration count from O(log l) to O(log n) for very long inputs. (The
// paper's pseudocode initializes RIGHT := n+1, but the surrounding text,
// BLOCKS() definition and Lemma 9 all use n^2 blocks; we follow the n^2
// version, which is also the one whose AddLastBlock cost O(l/n^2 * n^3) =
// O(l n) matches Theorem 4.)
#pragma once

#include <optional>

#include "ba/long_ba_plus.h"
#include "util/bitstring.h"

namespace coca::ca {

/// Result of the prefix search (Lemma 1 / Lemma 4): the agreed PREFIX*, a
/// valid value v extending it, and the divergence witness v_bot().
struct FindPrefixResult {
  Bitstring prefix;
  Bitstring v;
  /// v_bot when it is not v: the value v held when a fill replaced it after
  /// the last bottom. Empty when v_bot is v itself, so the search never
  /// copies an ell-bit value to keep its witness.
  std::optional<Bitstring> old_v;

  const Bitstring& v_bot() const { return old_v ? *old_v : v; }
};

/// FindPrefix: binary search over bit positions 1..l. Honest callers join
/// with the same `ell` and with valid `ell`-bit values `v`.
FindPrefixResult find_prefix(net::PartyContext& ctx,
                             const ba::LongBAPlus& lba_plus, std::size_t ell,
                             Bitstring v);

/// FindPrefixBlocks: the same search over `num_blocks` blocks of
/// `ell / num_blocks` bits each; `ell` must be a multiple of `num_blocks`.
/// The paper uses num_blocks = n^2.
FindPrefixResult find_prefix_blocks(net::PartyContext& ctx,
                                    const ba::LongBAPlus& lba_plus,
                                    std::size_t ell, std::size_t num_blocks,
                                    Bitstring v);

}  // namespace coca::ca

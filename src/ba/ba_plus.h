// Pi_BA+ (Section 7, Theorem 6): BA for short (kappa-bit) values with
// Intrusion Tolerance and Bounded Pre-Agreement.
//
// The technical core of the paper's Section 7. On top of plain BA it
// guarantees (Definitions 3 and 4):
//   * Intrusion Tolerance -- the output is an honest party's input or bottom,
//   * Bounded Pre-Agreement -- bottom is only possible when fewer than n-2t
//     honest parties share an input value.
//
// Structure: distribute inputs; vote for every value seen n-2t times (at
// most two); let a <= b be the (at most two) values with n-t votes; try to
// agree on a via the assumed Pi_BA plus a confirmation bit-BA; then on b;
// otherwise output bottom.
//
// Cost (Theorem 6): O(kappa n^2) + 2 x BITS_kappa(Pi_BA) + 2 x BITS_1(Pi_BA),
// and O(1) + O(1) x ROUNDS(Pi_BA) rounds.
#pragma once

#include "ba/ba_interface.h"

namespace coca::ba {

class BAPlus {
 public:
  /// Both members of `kit` must outlive this object.
  explicit BAPlus(BAKit kit) : kit_(kit) {
    require(kit.binary != nullptr && kit.multivalued != nullptr,
            "BAPlus: kit must provide binary and multivalued BA");
  }

  /// Joins with a (non-bottom) input value; returns the agreed value or
  /// bottom. All honest parties obtain the same result. `input` is sent as
  /// it is, so passing a temporary costs no payload copy.
  MaybeBytes run(net::PartyContext& ctx, Bytes input) const;

 private:
  BAKit kit_;
};

}  // namespace coca::ba

// Mutation-based byzantine adversary: honest protocol traffic, corrupted.
//
// The hand-scripted strategies in strategies.h fabricate bytes from thin
// air; the hard cases for the paper's guarantees are *structured*
// deviations -- messages that parse, carry plausible field values, and
// differ per recipient. `Mutator` produces exactly those: it is a
// `net::SendTap` wrapped around an honest protocol instance (see
// `SyncNetwork::set_byzantine_protocol(id, fn, tap)`), applying seeded
// per-message mutation operators to the traffic the honest code stages.
//
// Operators (`MutOp`):
//   kKeep        pass the message through unchanged
//   kBitFlip     flip 1..8 random bits in place
//   kByteSplice  overwrite a random span with random bytes
//   kTruncate    drop a random-length tail
//   kExtend      append random bytes
//   kFieldTweak  rewrite a little-endian integer field (off-by-one, zero,
//                or saturate) at a wire.h-convention boundary
//   kOmit        drop the message (selective omission)
//   kDelay       hold the message back, replay it 1..max_delay rounds later
//   kEquivocate  stage a corrupted copy to a *different* recipient ahead of
//                that recipient's legitimate message (cross-recipient
//                equivocation; first-per-sender delivery makes the earlier,
//                corrupted copy win), then pass the original through
//
// Determinism: all draws come from one Rng seeded by `MutatorConfig::seed`
// and occur in the wrapped protocol's program order, so a (config, seed)
// pair replays bit-for-bit.
//
// Payloads arrive as shared views (one `send_all` buffer backs all n
// recipients). Content operators take ownership via `detach()` -- a
// copy-on-write deep copy when the buffer is shared -- so corrupting one
// recipient's message never leaks into the views the other recipients (or
// the transcript) hold. Passthrough and delay keep the shared view: the
// honest-traffic fraction of a mutated run stays zero-copy.
#pragma once

#include <array>
#include <cstdint>

#include "net/sync_network.h"
#include "util/rng.h"

namespace coca::adv {

enum class MutOp : int {
  kKeep = 0,
  kBitFlip,
  kByteSplice,
  kTruncate,
  kExtend,
  kFieldTweak,
  kOmit,
  kDelay,
  kEquivocate,
};

inline constexpr std::size_t kNumMutOps = 9;

std::string_view to_string(MutOp op);

struct MutatorConfig {
  std::uint64_t seed = 0;
  /// Number of parties in the network (recipient space for equivocation).
  int n = 0;
  /// Relative operator frequencies, indexed by MutOp. All-zero weights act
  /// as pure passthrough. The default keeps most traffic honest so that
  /// runs make protocol progress and mutations strike mid-protocol.
  std::array<std::uint32_t, kNumMutOps> weights = {24, 2, 2, 2, 2, 2, 2, 1, 2};
  /// Longest replay delay, in rounds, for kDelay.
  std::size_t max_delay = 3;

  bool operator==(const MutatorConfig&) const = default;
};

class Mutator final : public net::SendTap {
 public:
  explicit Mutator(MutatorConfig config);

  void on_send(std::size_t round, int to, net::Payload payload,
               const Emit& emit) override;
  void on_round_start(std::size_t round, const Emit& emit) override;

  /// Messages that went through each operator so far (diagnostics/tests).
  const std::array<std::uint64_t, kNumMutOps>& op_counts() const {
    return op_counts_;
  }

 private:
  MutOp pick_op();
  /// Content corruption for kEquivocate copies: any of the in-place
  /// operators (bit flip / splice / truncate / extend / field tweak).
  Bytes corrupt(Bytes payload);
  Bytes apply(MutOp op, Bytes payload);

  MutatorConfig config_;
  Rng rng_;
  std::uint64_t total_weight_ = 0;
  struct Held {
    std::size_t due_round;
    int to;
    net::Payload payload;  // shared view; replay does not copy
  };
  std::vector<Held> held_;
  std::array<std::uint64_t, kNumMutOps> op_counts_{};
};

}  // namespace coca::adv

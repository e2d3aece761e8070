// Byzantine Agreement interfaces (the paper's assumed Pi_BA).
//
// The CA protocols of Sections 3-6 are parameterized by "a BA protocol
// Pi_BA resilient against t < n/3 corruptions" (Definition 2), invoked on
// one-bit inputs and on kappa-bit inputs. Both shapes are abstract here so
// benches can swap instantiations and measure the additive BITS_kappa(Pi_BA)
// term explicitly.
//
// Multivalued BA runs over the domain Bytes-or-bottom: the special symbol
// bottom appears as a legal input/output inside Pi_BA+ (Section 7), so it is
// treated as an ordinary domain element with a tagged wire encoding.
//
// Round-schedule contract: every implementation must keep honest parties in
// lock-step -- the number of rounds advanced may depend only on (n, t) and
// on *agreed* values (e.g. Pi_BA+ legitimately stops after its first stage
// when the agreed confirmation bit is 1), never on a single party's private
// input.
#pragma once

#include <optional>

#include "net/sync_network.h"
#include "util/wire.h"

namespace coca::ba {

/// A value in the domain of multivalued BA: some bytes, or bottom.
using MaybeBytes = std::optional<Bytes>;

/// Binary Byzantine Agreement (Definition 2 on {0,1}).
class BinaryBA {
 public:
  virtual ~BinaryBA() = default;
  /// Joins the protocol with `input`; returns the agreed bit.
  virtual bool run(net::PartyContext& ctx, bool input) const = 0;
};

/// Multivalued Byzantine Agreement over Bytes-or-bottom.
class MultivaluedBA {
 public:
  virtual ~MultivaluedBA() = default;
  virtual MaybeBytes run(net::PartyContext& ctx,
                         const MaybeBytes& input) const = 0;
};

/// The bundle of assumed-BA instantiations threaded through the stack.
struct BAKit {
  const BinaryBA* binary = nullptr;
  const MultivaluedBA* multivalued = nullptr;
};

/// Canonical tagged encoding of a MaybeBytes domain element.
inline Bytes encode_maybe(const MaybeBytes& v) {
  Writer w;
  if (!v) {
    w.u8(0);
  } else {
    w.u8(1);
    w.bytes(*v);
  }
  return std::move(w).take();
}

/// True iff `raw` is a well-formed tagged encoding: decode_maybe's check,
/// read in place. Vote counts pass it to `net::tally`, so a counted value
/// is decoded into owned bytes only when a party adopts it.
inline bool is_maybe(std::span<const std::uint8_t> raw) {
  Reader r(raw);
  const auto tag = r.u8();
  if (tag == 0) return r.at_end();
  return tag == 1 && r.bytes_view() && r.at_end();
}

/// Strict decode of the tagged encoding; nullopt-of-optional is expressed as
/// the outer optional being empty (malformed), the inner being bottom.
/// Span-typed so received payloads decode in place, whether they are owned
/// Bytes or zero-copy slab views off the wire.
inline std::optional<MaybeBytes> decode_maybe(
    std::span<const std::uint8_t> raw) {
  if (!is_maybe(raw)) return std::nullopt;
  if (raw[0] == 0) return MaybeBytes{std::nullopt};
  return MaybeBytes{Bytes(raw.begin() + 5, raw.end())};  // past tag, length
}

}  // namespace coca::ba

// Refcounted immutable message payload: the zero-copy wire substrate.
//
// All simulator wire traffic is carried as `Payload` views: a shared
// ownership handle onto one immutable byte buffer plus an (offset, length)
// window. `send_all` stages ONE buffer shared by all n recipients; round
// mailboxes, the rushing adversary's traffic view, and the Transcript all
// hold views of that same buffer. Nothing on the honest path ever deep
// copies message bytes.
//
// Ownership / copy-on-write rules (the substrate's determinism contract is
// in DESIGN.md "Message substrate"):
//   * A `Payload` is immutable through its own API: no accessor hands out a
//     mutable reference to shared bytes.
//   * Writers (a `SendTap` mutator corrupting one recipient's copy) call
//     `detach()`: if the buffer is exclusively owned and the view spans it,
//     the buffer is moved out for free; otherwise a deep copy is made and
//     the other views are untouched (copy-on-write).
//   * Every deep copy the substrate performs -- `copy_of`, `to_bytes`,
//     a shared `detach` -- bumps the process-wide `PayloadMetrics` counters.
//     `SyncNetwork::run` reports the per-run delta in
//     `RunStats::payload_copies` / `payload_bytes_copied`, so "zero-copy" is
//     asserted by tests, not assumed.
//
// For protocol code the type is span-compatible: every view converts
// implicitly to `std::span<const uint8_t>` (free), so `Reader r(e.payload)`
// and the `decode_*(span)` helpers work on full buffers and on slab slices
// alike. There is deliberately NO implicit conversion to `const Bytes&`:
// payloads arriving over the wire are views into pooled receive slabs (see
// net/buffer_pool.h) with nonzero offsets, and a hidden materialization
// would silently re-copy the bytes the zero-copy receive path just avoided
// copying. Code that genuinely needs owning bytes says so: `owned()` for
// protocol-local adoption (uncounted, like any other protocol-side copy),
// `to_bytes()`/`detach()` for substrate-metered copies.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>

#include "util/common.h"

namespace coca::net {

/// Deep-copy counters for the payload substrate. Monotonic; consumers
/// sample before/after and diff. The process-wide pair aggregates every
/// thread; the `thread_` pair covers only the calling thread, which is how
/// `SyncNetwork::run` attributes copies to one run even when other runs
/// execute concurrently in the same process (fuzzer sweeps, ctest -j).
struct PayloadMetrics {
  static std::uint64_t copies();
  static std::uint64_t bytes_copied();
  static std::uint64_t thread_copies();
  static std::uint64_t thread_bytes_copied();

  /// Wire-side copy counters: bytes the *transport* memcpy'd that are not
  /// protocol payload copies -- today only the FrameDecoder's partial-frame
  /// remainder move when it switches receive slabs. Kept separate from
  /// `copies()` because RunStats::payload_copies must stay bit-identical
  /// between the simulator and the wire path; these are process-wide only
  /// (no thread shadow) and are sampled by bench_runner's wire probe.
  static std::uint64_t wire_copies();
  static std::uint64_t wire_bytes_copied();
  static void add_wire_copy(std::uint64_t bytes);
};

class Payload {
 public:
  /// Empty payload (no buffer).
  Payload() = default;

  /// Wraps `bytes`, taking ownership: zero-copy when the caller moves.
  /// Deliberately implicit so rvalue Bytes flow into payload-typed APIs;
  /// wrapping an *lvalue* copies into the parameter first -- on metered
  /// paths prefer `Payload::copy_of`, which counts.
  Payload(Bytes bytes)  // NOLINT(google-explicit-constructor)
      : buf_(std::make_shared<Bytes>(std::move(bytes))),
        len_(buf_->size()) {}

  /// View of `[offset, offset+length)` within an externally shared buffer
  /// -- the decoder's slab-view constructor: the frame payload aliases the
  /// receive slab and the slab returns to its pool when the last view
  /// drops. The window must be in range and the viewed bytes must never be
  /// mutated while any view exists (the decoder's slabs are append-only).
  Payload(std::shared_ptr<Bytes> buf, std::size_t offset, std::size_t length)
      : buf_(std::move(buf)), off_(offset), len_(length) {
    require(buf_ && offset + length <= buf_->size(),
            "Payload: slab view out of range");
    if (len_ == 0) buf_.reset();
  }

  /// Deep-copies `bytes` into a fresh buffer (counted).
  static Payload copy_of(const Bytes& bytes);

  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  const std::uint8_t* data() const {
    return buf_ ? buf_->data() + off_ : nullptr;
  }
  std::uint8_t operator[](std::size_t i) const { return (*buf_)[off_ + i]; }

  std::span<const std::uint8_t> span() const {
    return buf_ ? std::span<const std::uint8_t>(buf_->data() + off_, len_)
                : std::span<const std::uint8_t>();
  }
  /// Implicit span view (free): lets payloads flow into `Reader` and the
  /// span-typed `decode_*` helpers whether they are full buffers or slab
  /// slices.
  operator std::span<const std::uint8_t>() const { return span(); }  // NOLINT(google-explicit-constructor)

  const std::uint8_t* begin() const { return data(); }
  const std::uint8_t* end() const { return data() + len_; }

  /// The view as a `const Bytes&`, free of charge. Requires a full-buffer
  /// view; sliced views (wire-path slab views are sliced by construction)
  /// must go through span(), owned() or to_bytes().
  const Bytes& bytes() const {
    if (!buf_) return empty_bytes();
    ensure(off_ == 0 && len_ == buf_->size(),
           "Payload::bytes: sliced view has no Bytes representation");
    return *buf_;
  }

  /// Owned deep copy of the viewed bytes, NOT counted in PayloadMetrics:
  /// for protocol-local adoption of a received value (map keys, stored
  /// state), which was an implicit uncounted copy before payloads became
  /// slab views. Substrate-metered paths use to_bytes()/detach() instead.
  Bytes owned() const {
    const auto s = span();
    return Bytes(s.begin(), s.end());
  }

  /// Owned deep copy of the viewed bytes (counted).
  Bytes to_bytes() const;

  /// Takes the bytes out for mutation: moves the buffer when this view is
  /// the sole owner of a full buffer (free), deep-copies otherwise
  /// (counted) -- the copy-on-write point for SendTap mutators.
  Bytes detach() &&;

  /// Sub-view sharing the same buffer; no copy.
  Payload slice(std::size_t offset, std::size_t length) const {
    require(offset + length <= len_, "Payload::slice: out of range");
    Payload p = *this;
    p.off_ += offset;
    p.len_ = length;
    if (p.len_ == 0) p.buf_.reset();
    return p;
  }

  /// Number of Payload views sharing this buffer (diagnostics/tests).
  long use_count() const { return buf_.use_count(); }

  /// Content equality (byte-wise over the viewed window).
  bool operator==(const Payload& other) const {
    return std::ranges::equal(span(), other.span());
  }
  bool operator==(const Bytes& other) const {
    return std::ranges::equal(span(), std::span<const std::uint8_t>(other));
  }

  /// Lexicographic content order, identical to `Bytes` ordering -- payload
  /// keyed maps (vote counting) keep the deterministic tiebreak the
  /// protocols relied on when they keyed by materialized Bytes.
  bool operator<(const Payload& other) const {
    const auto a = span();
    const auto b = other.span();
    return std::lexicographical_compare(a.begin(), a.end(),
                                        b.begin(), b.end());
  }

 private:
  static const Bytes& empty_bytes();

  std::shared_ptr<Bytes> buf_;  // immutable-by-discipline shared buffer
  std::size_t off_ = 0;
  std::size_t len_ = 0;
};

}  // namespace coca::net

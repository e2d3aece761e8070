// Immutable message payload: the zero-copy wire substrate.
//
// All simulator wire traffic is carried as `Payload` values. A payload of
// more than `kInline` bytes is a *shared view*: a shared ownership handle
// onto one immutable byte buffer plus an (offset, length) window.
// A `send_all` is ONE staged entry that the round engine fans out only at
// delivery; round mailboxes, the rushing adversary's traffic view, and the
// Transcript all hold views of that same buffer. A payload of at most `kInline` bytes -- most
// protocol messages are a byte or a tagged digest -- is stored *inline* in
// the 32-byte object itself: no allocation, no refcount. Decoder slab views
// (the constructor taking a `shared_ptr<Bytes>`) stay shared views at any
// length. Nothing on the honest path ever deep copies message bytes.
//
// Ownership / copy-on-write rules (the substrate's determinism contract is
// in DESIGN.md "The message substrate"):
//   * A `Payload` is immutable through its own API: no accessor hands out a
//     mutable reference to its bytes.
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
// Three contracts of the inline representation:
//   1. An inline payload's `data()` (and its span) points into the object.
//      It is valid only while that object is neither moved nor destroyed,
//      so a gather list over payloads must keep them in place: the wire
//      session's iovecs point into an unresized vector, the daemon's into
//      a deque.
//   2. Creating or copying an inline payload is not a substrate deep copy:
//      it is not counted, and the honest-path `payload_copies == 0` holds.
//   3. `detach()` of an inline payload counts one copy, as a shared buffer
//      does. On the wire, a payload a party received and forwards (an
//      echoed value) is a shared slab view whose detach is counted; the
//      simulator holds the same bytes inline, and simulator/wire parity of
//      `payload_copies` requires the same count.
//
// For protocol code the type is span-compatible: every payload converts
// implicitly to `std::span<const uint8_t>` (free), so `Reader r(e.payload)`
// and the `decode_*(span)` helpers work on full buffers, slab slices and
// inline bytes alike. There is deliberately NO conversion to `const
// Bytes&`: an inline payload has no `Bytes`, and payloads arriving over the
// wire are views into pooled receive slabs (see net/buffer_pool.h) with
// nonzero offsets. Code that genuinely needs owning bytes says so:
// `owned()` for protocol-local adoption (uncounted, like any other
// protocol-side copy), `to_bytes()`/`detach()` for substrate-metered copies.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <new>
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
  /// (no thread shadow); perfbench reports them per routed round.
  static std::uint64_t wire_copies();
  static std::uint64_t wire_bytes_copied();
  static void add_wire_copy(std::uint64_t bytes);
};

class Payload {
 public:
  /// Payloads of at most this many bytes are stored inside the object.
  static constexpr std::size_t kInline = 24;

  /// Empty payload (no buffer).
  Payload() noexcept : inline_{} {}

  /// Takes ownership of `bytes`: up to kInline bytes are copied inline,
  /// anything larger moves into a fresh shared buffer (zero-copy when the
  /// caller moves). Deliberately implicit so rvalue Bytes flow into
  /// payload-typed APIs; wrapping a large *lvalue* copies into the
  /// parameter first -- on metered paths prefer `Payload::copy_of`, which
  /// counts.
  Payload(Bytes bytes);  // NOLINT(google-explicit-constructor)

  /// View of `[offset, offset+length)` within an externally shared buffer
  /// -- the decoder's slab-view constructor: the frame payload aliases the
  /// receive slab and the slab returns to its pool when the last view
  /// drops. The window must be in range and the viewed bytes must never be
  /// mutated while any view exists (the decoder's slabs are append-only).
  /// Always a shared view, whatever its length.
  Payload(std::shared_ptr<Bytes> buf, std::size_t offset, std::size_t length);

  /// Inline payload of a few literal bytes (at most kInline), built without
  /// a `Bytes` allocation: `Payload::inline_of({v})`.
  static Payload inline_of(std::initializer_list<std::uint8_t> bytes);

  /// Deep-copies `bytes` (counted).
  static Payload copy_of(const Bytes& bytes);

  Payload(const Payload& other) noexcept { copy_from(other); }
  Payload(Payload&& other) noexcept { steal_from(other); }
  Payload& operator=(const Payload& other) noexcept {
    if (this != &other) {
      clear();
      copy_from(other);
    }
    return *this;
  }
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      clear();
      steal_from(other);
    }
    return *this;
  }
  ~Payload() {
    if (shared_) heap_.~Heap();
  }

  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  const std::uint8_t* data() const {
    return shared_ ? heap_.buf->data() + heap_.off : inline_.data();
  }
  std::uint8_t operator[](std::size_t i) const { return data()[i]; }

  std::span<const std::uint8_t> span() const { return {data(), len_}; }
  /// Implicit span view (free): lets payloads flow into `Reader` and the
  /// span-typed `decode_*` helpers whether they are full buffers or slab
  /// slices.
  operator std::span<const std::uint8_t>() const { return span(); }  // NOLINT(google-explicit-constructor)

  const std::uint8_t* begin() const { return data(); }
  const std::uint8_t* end() const { return data() + len_; }

  /// Owned deep copy of the viewed bytes, NOT counted in PayloadMetrics:
  /// for protocol-local adoption of a received value (stored state), which
  /// was an implicit uncounted copy before payloads became slab views.
  /// Substrate-metered paths use to_bytes()/detach() instead.
  Bytes owned() const {
    const auto s = span();
    return Bytes(s.begin(), s.end());
  }

  /// Owned deep copy of the viewed bytes (counted).
  Bytes to_bytes() const;

  /// Takes the bytes out for mutation: moves the buffer when this view is
  /// the sole owner of a full shared buffer (free), deep-copies otherwise
  /// (counted) -- the copy-on-write point for SendTap mutators. An inline
  /// payload always counts one copy (contract 3 above).
  Bytes detach() &&;

  /// Sub-view with no copy of a shared buffer: a slice of a shared view
  /// shares its buffer, a slice of an inline payload is inline.
  Payload slice(std::size_t offset, std::size_t length) const;

  /// Number of Payload views sharing this buffer; 0 for inline payloads
  /// (diagnostics/tests).
  long use_count() const { return shared_ ? heap_.buf.use_count() : 0; }

  /// Content equality (byte-wise over the viewed window).
  bool operator==(const Payload& other) const {
    return std::ranges::equal(span(), other.span());
  }
  bool operator==(const Bytes& other) const {
    return std::ranges::equal(span(), std::span<const std::uint8_t>(other));
  }

  /// Lexicographic content order, identical to `Bytes` ordering.
  bool operator<(const Payload& other) const {
    const auto a = span();
    const auto b = other.span();
    return std::lexicographical_compare(a.begin(), a.end(),
                                        b.begin(), b.end());
  }

 private:
  struct Heap {
    std::shared_ptr<Bytes> buf;  // immutable-by-discipline, never null
    std::size_t off;
  };

  /// Ends the shared view, if any, leaving an empty inline payload.
  void clear() noexcept {
    if (shared_) {
      heap_.~Heap();
      shared_ = false;
      inline_ = {};
    }
    len_ = 0;
  }
  /// Builds this payload as a copy of `other`, or by taking `other`'s
  /// buffer (leaving it empty); this payload must hold no buffer.
  void copy_from(const Payload& other) noexcept {
    if (other.shared_) {
      new (&heap_) Heap(other.heap_);
    } else {
      inline_ = other.inline_;
    }
    len_ = other.len_;
    shared_ = other.shared_;
  }
  void steal_from(Payload& other) noexcept {
    if (!other.shared_) {
      copy_from(other);
      return;
    }
    new (&heap_) Heap(std::move(other.heap_));
    len_ = other.len_;
    shared_ = true;
    other.clear();
  }

  // Exactly one member is live: `heap_` when `shared_`, else `inline_`,
  // whose kInline bytes are always initialized, so an inline copy is a
  // fixed-size copy.
  union {
    std::array<std::uint8_t, kInline> inline_;
    Heap heap_;
  };
  std::uint32_t len_ = 0;
  bool shared_ = false;
};

static_assert(sizeof(Payload) == 32, "Payload must stay 32 bytes");

}  // namespace coca::net

// Wire framing of the service runtime.
//
// Every byte on a daemon connection is a sequence of length-prefixed
// frames: a fixed 24-byte little-endian header followed by `payload_len`
// payload bytes. The payload of a kMsg/kDeliver frame is the protocol
// message itself -- the existing zero-copy `net::Payload` bytes, written
// straight from the sender's buffer via writev (the header is the only
// per-frame material the transport adds).
//
//   offset  size  field        notes
//   ------  ----  -----------  ------------------------------------------
//        0     4  magic        0x41434F43 ("COCA" in LE byte order)
//        4     1  version      kWireVersion (1)
//        5     1  type         FrameType
//        6     2  flags        reserved, must be 0
//        8     4  session      session id (connection-scoped)
//       12     4  round        engine round the frame belongs to
//       16     2  from         sender party id (kMsg/kDeliver), else 0
//       18     2  to           recipient party id (kMsg/kDeliver), else 0
//       20     4  payload_len  <= kMaxFramePayload
//
// Frame types and their payloads:
//   kOpen      client->server  u16 n, u16 t          open a session
//   kOpenAck   server->client  u64 resume token      session is live; the
//                              token names it across connections
//   kMsg       client->server  protocol message      one staged message
//   kCommit    both ways       u32 count             round barrier: client
//                              commits `count` staged kMsg frames; the
//                              server echoes kCommit after the last
//                              kDeliver of the round
//   kDeliver   server->client  protocol message      one routed message
//   kClose     client->server  (empty)               orderly session close
//   kClosed    server->client  (empty)               close acknowledged
//   kError     server->client  UTF-8 reason          session killed
//   kResume    client->server  ResumeInfo            rebind a session on a
//                              fresh connection, declaring the last round
//                              the client fully received
//   kResumeAck server->client  u64 committed         rebind accepted; the
//                              daemon replays rounds [completed, committed)
//                              as kDeliver/kCommit right after this frame
//   kPing      client->server  (empty)               liveness probe (round
//                              carries a sequence number)
//   kPong      server->client  (empty)               probe echo
//
// `FrameDecoder` is a push parser built for adversarial streams: bytes
// arrive in arbitrary fragments (1-byte reads, frames split across reads,
// many frames per read) and malformed input -- bad magic, unknown
// version/type, oversized or truncated length -- moves the decoder into a
// sticky failed state instead of UB. tests/test_frame.cpp tortures it.
//
// Zero-copy receive: the decoder buffers the stream in pooled slabs
// (net::BufferPool) and yields frames whose payloads are `net::Payload`
// views into the slab -- no per-frame copy. Socket readers skip even the
// staging copy by reading straight into `writable()` and calling
// `commit()`; `feed()` remains as the copying convenience for tests and
// adversarial fragment torture. Slabs are append-only while views exist;
// a slab returns to the pool when the decoder moves past it and every
// payload view has dropped. The only bytes the decoder ever copies are a
// partial frame's prefix when the current slab runs out mid-frame
// (counted in PayloadMetrics::wire_copies); because the needed slab size
// is known as soon as the 24-byte header is visible, a frame pays that at
// most once regardless of how fragmented its arrival is.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/buffer_pool.h"
#include "net/payload.h"
#include "util/common.h"

namespace coca::svc {

inline constexpr std::uint32_t kFrameMagic = 0x41434F43;  // "COCA"
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kHeaderSize = 24;
/// Upper bound on a single frame payload; a length field above this is a
/// protocol violation (or a desynced stream) and fails the decoder before
/// any allocation happens.
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;  // 64 MiB

enum class FrameType : std::uint8_t {
  kOpen = 1,
  kOpenAck = 2,
  kMsg = 3,
  kCommit = 4,
  kDeliver = 5,
  kClose = 6,
  kClosed = 7,
  kError = 8,
  kResume = 9,
  kResumeAck = 10,
  kPing = 11,
  kPong = 12,
};

/// True iff `t` is a defined FrameType value (decoder validation).
bool valid_frame_type(std::uint8_t t);

/// kResume flags bit: the reconnect was triggered by missed heartbeats
/// (lets the daemon count heartbeats_missed without its own timer state).
inline constexpr std::uint16_t kResumeFlagHeartbeat = 0x1;

/// kResume payload: which session to rebind, and where the client stands.
struct ResumeInfo {
  std::uint64_t token = 0;      // from the kOpenAck of the original open
  std::uint64_t completed = 0;  // rounds the client fully received
  std::uint16_t n = 0;          // echoed for a consistency check / adoption
  std::uint16_t t = 0;

  bool operator==(const ResumeInfo&) const = default;
};

Bytes encode_resume(const ResumeInfo& info);
std::optional<ResumeInfo> decode_resume(std::span<const std::uint8_t> p);

/// u64 little-endian payload helpers (kOpenAck token, kResumeAck count).
Bytes encode_u64_payload(std::uint64_t v);
std::optional<std::uint64_t> decode_u64_payload(
    std::span<const std::uint8_t> p);

struct FrameHeader {
  FrameType type = FrameType::kOpen;
  std::uint16_t flags = 0;
  std::uint32_t session = 0;
  std::uint32_t round = 0;
  std::uint16_t from = 0;
  std::uint16_t to = 0;

  bool operator==(const FrameHeader&) const = default;
};

/// One decoded frame. The payload is a refcounted view into the decoder's
/// receive slab (equality is content equality); it pins the slab until
/// dropped, and `std::move(f.payload)` hands the view on without a copy.
struct Frame {
  FrameHeader header;
  net::Payload payload;

  bool operator==(const Frame&) const = default;
};

/// Serializes a header (with the magic/version preamble) for `payload_len`
/// payload bytes. The send path writes this array and the payload buffer
/// as two iovecs -- the payload is never staged into a frame buffer.
std::array<std::uint8_t, kHeaderSize> encode_header(
    const FrameHeader& h, std::uint32_t payload_len);

/// Convenience single-buffer encoding (tests, small control frames).
Bytes encode_frame(const FrameHeader& h,
                   std::span<const std::uint8_t> payload);

/// Incremental frame parser over an arbitrarily fragmented byte stream.
class FrameDecoder {
 public:
  /// Slab tail readers fill directly (the zero-copy receive path):
  /// guarantees at least `min` writable bytes -- switching to a fresh pool
  /// slab when the current one is short, carrying over any partial frame --
  /// and returns the whole writable tail (usually much larger than `min`).
  /// `min` must be at most kMaxFramePayload + kHeaderSize. Do not call
  /// after failed().
  std::span<std::uint8_t> writable(std::size_t min = 1);
  /// The `min` socket readers pass: a quarter slab. It must stay well below
  /// the 64 KiB slab class: a fresh slab holds the carried partial frame
  /// plus `min`, so asking for a whole slab would push every relocation that
  /// carries a split frame into the 256 KiB class, and the pool's
  /// high-water mark would depend on where reads happen to split frames.
  static constexpr std::size_t kReadMin = 16 * 1024;
  /// Marks `n` bytes of the last writable() span as filled by the reader.
  void commit(std::size_t n);

  /// Appends raw bytes off the socket (one staging copy into the slab;
  /// tests and torture harnesses). Cheap after failure (bytes are dropped;
  /// the stream is already lost).
  void feed(const std::uint8_t* data, std::size_t len);
  void feed(std::span<const std::uint8_t> data) {
    feed(data.data(), data.size());
  }

  /// Pops the next complete frame, or nullopt when the buffer holds only a
  /// partial frame (or the decoder failed). Call in a loop: one feed() may
  /// complete many frames. The frame's payload is a view into the receive
  /// slab -- holding it defers the slab's return to the pool.
  std::optional<Frame> next();

  /// Sticky malformed-stream state; `error()` says what broke.
  bool failed() const { return !error_.empty(); }
  const std::string& error() const { return error_; }

  /// Forgets buffered bytes and clears a sticky failure: the byte stream is
  /// starting over (a reconnect). Any live slab is released cleanly -- it
  /// returns to the pool once outstanding payload views drop -- so a torn
  /// frame abandoned mid-parse leaks nothing across reconnects
  /// (tests/test_frame.cpp asserts this via BufferPool::Stats).
  void reset();

  /// Bytes currently buffered (tests).
  std::size_t buffered() const { return filled_ - off_; }

 private:
  /// Default slab request: one socket read's worth.
  static constexpr std::size_t kSlabChunk = 64 * 1024;

  void fail(std::string reason);

  std::shared_ptr<Bytes> slab_;  // current receive slab (append-only)
  std::size_t off_ = 0;          // parse cursor within slab_
  std::size_t filled_ = 0;       // committed bytes within slab_
  std::string error_;
};

}  // namespace coca::svc

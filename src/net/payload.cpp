#include "net/payload.h"

#include <atomic>
#include <cstdint>
#include <new>
#include <utility>

namespace coca::net {

namespace {

std::atomic<std::uint64_t> g_copies{0};
std::atomic<std::uint64_t> g_bytes_copied{0};
std::atomic<std::uint64_t> g_wire_copies{0};
std::atomic<std::uint64_t> g_wire_bytes_copied{0};
// Per-thread shadows of the globals: a run attributes copies to itself by
// diffing the counters of the threads *it* executed on, so two concurrent
// runs (fuzzer sweeps, threaded ctest) never cross-contaminate.
thread_local std::uint64_t t_copies = 0;
thread_local std::uint64_t t_bytes_copied = 0;

void count_copy(std::size_t bytes) {
  if (bytes == 0) return;  // empty copies allocate nothing
  g_copies.fetch_add(1, std::memory_order_relaxed);
  g_bytes_copied.fetch_add(bytes, std::memory_order_relaxed);
  t_copies += 1;
  t_bytes_copied += bytes;
}

}  // namespace

std::uint64_t PayloadMetrics::copies() {
  return g_copies.load(std::memory_order_relaxed);
}

std::uint64_t PayloadMetrics::bytes_copied() {
  return g_bytes_copied.load(std::memory_order_relaxed);
}

std::uint64_t PayloadMetrics::thread_copies() { return t_copies; }

std::uint64_t PayloadMetrics::thread_bytes_copied() { return t_bytes_copied; }

std::uint64_t PayloadMetrics::wire_copies() {
  return g_wire_copies.load(std::memory_order_relaxed);
}

std::uint64_t PayloadMetrics::wire_bytes_copied() {
  return g_wire_bytes_copied.load(std::memory_order_relaxed);
}

void PayloadMetrics::add_wire_copy(std::uint64_t bytes) {
  if (bytes == 0) return;
  g_wire_copies.fetch_add(1, std::memory_order_relaxed);
  g_wire_bytes_copied.fetch_add(bytes, std::memory_order_relaxed);
}

Payload::Payload(Bytes bytes) : inline_{} {
  require(bytes.size() <= UINT32_MAX, "Payload: message exceeds 4 GiB");
  len_ = static_cast<std::uint32_t>(bytes.size());
  if (len_ <= kInline) {
    std::copy(bytes.begin(), bytes.end(), inline_.begin());
    return;
  }
  new (&heap_) Heap{std::make_shared<Bytes>(std::move(bytes)), 0};
  shared_ = true;
}

Payload::Payload(std::shared_ptr<Bytes> buf, std::size_t offset,
                 std::size_t length)
    : inline_{} {
  require(buf && offset + length <= buf->size() && length <= UINT32_MAX,
          "Payload: slab view out of range");
  if (length == 0) return;
  new (&heap_) Heap{std::move(buf), offset};
  len_ = static_cast<std::uint32_t>(length);
  shared_ = true;
}

Payload Payload::inline_of(std::initializer_list<std::uint8_t> bytes) {
  require(bytes.size() <= kInline, "Payload::inline_of: too many bytes");
  Payload p;
  std::copy(bytes.begin(), bytes.end(), p.inline_.begin());
  p.len_ = static_cast<std::uint32_t>(bytes.size());
  return p;
}

Payload Payload::copy_of(const Bytes& bytes) {
  count_copy(bytes.size());
  return Payload(Bytes(bytes));
}

Bytes Payload::to_bytes() const {
  count_copy(len_);
  return owned();
}

Bytes Payload::detach() && {
  if (shared_ && heap_.buf.use_count() == 1 && heap_.off == 0 &&
      len_ == heap_.buf->size()) {
    Bytes out = std::move(*heap_.buf);
    clear();
    return out;
  }
  return to_bytes();  // inline, shared or sliced: a copy (counted)
}

Payload Payload::slice(std::size_t offset, std::size_t length) const {
  require(offset + length <= len_, "Payload::slice: out of range");
  Payload p;
  if (length == 0) return p;
  if (shared_) {
    new (&p.heap_) Heap{heap_.buf, heap_.off + offset};
    p.shared_ = true;
  } else {
    std::copy_n(inline_.begin() + static_cast<std::ptrdiff_t>(offset), length,
                p.inline_.begin());
  }
  p.len_ = static_cast<std::uint32_t>(length);
  return p;
}

}  // namespace coca::net

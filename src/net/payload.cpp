#include "net/payload.h"

#include <atomic>

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

Payload Payload::copy_of(const Bytes& bytes) {
  count_copy(bytes.size());
  return Payload(Bytes(bytes));
}

Bytes Payload::to_bytes() const {
  count_copy(len_);
  const auto s = span();
  return Bytes(s.begin(), s.end());
}

Bytes Payload::detach() && {
  if (!buf_) return Bytes{};
  if (buf_.use_count() == 1 && off_ == 0 && len_ == buf_->size()) {
    Bytes out = std::move(*buf_);
    buf_.reset();
    len_ = 0;
    off_ = 0;
    return out;
  }
  return to_bytes();  // shared or sliced: copy-on-write (counted)
}

const Bytes& Payload::empty_bytes() {
  static const Bytes empty;
  return empty;
}

}  // namespace coca::net

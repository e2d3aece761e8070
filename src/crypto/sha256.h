// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Instantiates the paper's collision-resistant hash H_kappa with kappa = 256.
// Used for Merkle-tree accumulators (Section 7) and the kappa-bit value
// encodings the extension protocol Pi_lBA+ agrees on.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "util/common.h"

namespace coca::crypto {

/// kappa-bit hash output, kappa = 256.
using Digest = std::array<std::uint8_t, 32>;

inline constexpr std::size_t kKappaBits = 256;

/// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  void update(std::span<const std::uint8_t> data);
  void update(const Bytes& data) {
    update(std::span<const std::uint8_t>(data.data(), data.size()));
  }
  /// Finalizes and returns the digest; the context must be reset before reuse.
  Digest finish();

  /// Digest of a message its caller already padded (FIPS 180-4 5.1.1):
  /// `blocks` is whole 64-byte blocks, compressed from the initial state in
  /// one call. Fixed-size inputs (Merkle node hashes) skip the buffering.
  static Digest of_padded(std::span<const std::uint8_t> blocks);

 private:
  /// Compresses `nblocks` consecutive 64-byte blocks, dispatching to the
  /// SHA-NI backend when the CPU has it (same FIPS 180-4 output either way).
  void compress_blocks(const std::uint8_t* blocks, std::size_t nblocks);
  void compress(const std::uint8_t* block);
  Digest state_digest() const;

  std::uint32_t h_[8] = {};
  std::uint64_t total_len_ = 0;
  std::uint8_t buf_[64] = {};
  std::size_t buf_len_ = 0;
};

/// One-shot hash of a byte span.
Digest sha256(std::span<const std::uint8_t> data);
inline Digest sha256(const Bytes& data) {
  return sha256(std::span<const std::uint8_t>(data.data(), data.size()));
}

/// Hex rendering for diagnostics and tests.
std::string to_hex(const Digest& d);

/// Digest as Bytes (for wire encoding).
inline Bytes digest_bytes(const Digest& d) { return Bytes(d.begin(), d.end()); }

}  // namespace coca::crypto

// Systematic Reed-Solomon erasure codes over GF(2^16) (Section 7).
//
// RS.ENCODE(v) splits a value into n codewords of O(|v|/n) bits such that any
// k = n - t of them reconstruct v (RS.DECODE). In Pi_lBA+ corrupted codewords
// are detected and discarded via Merkle witnesses before decoding, so an
// erasure-only decoder (Lagrange interpolation from k verified shares)
// suffices -- no error correction is needed, exactly as in the paper.
//
// Layout: the payload is padded to whole chunks of k 16-bit symbols. Chunk
// symbols are the polynomial values at evaluation points 0..k-1 (systematic);
// share i carries the value at point i for every chunk, so share size is
// 2 * ceil(|data| / 2k) bytes.
//
// Cost: the constructor computes the n - k parity rows from barycentric
// weights (O(k^2) once, then O(k) per row); decode does the same over the
// selected shares, for the points whose systematic share is missing (none
// when every selected share is systematic). Encode writes into one
// caller-owned buffer of n shares: it copies the systematic shares out in
// one chunk-major pass and computes each parity share as one
// linear combination of them: through the `MulBy` SIMD kernels for wide
// shares, symbol by symbol below 448-byte shares, where a kernel table
// build would cost more than it saves. Decode mirrors it and interleaves
// the columns back in one pass.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "codec/gf16.h"
#include "util/common.h"

namespace coca::codec {

/// One share handed to decode: its index (evaluation point) and a view of
/// its bytes, which the caller keeps alive for the call.
struct ShareView {
  std::size_t index = 0;
  std::span<const std::uint8_t> bytes;
};

class ReedSolomon {
 public:
  /// Code with `n` shares, any `k` of which reconstruct. Requires
  /// 1 <= k <= n <= 65535.
  ReedSolomon(std::size_t n, std::size_t k);

  std::size_t n() const { return n_; }
  std::size_t k() const { return k_; }

  /// Size in bytes of each share for a payload of `data_size` bytes.
  std::size_t share_size(std::size_t data_size) const {
    return 2 * std::max<std::size_t>(1, ceil_div(data_size, 2 * k_));
  }

  /// RS.ENCODE: writes the n shares of `data` back to back into `out`,
  /// which must hold exactly n * share_size(data.size()) bytes; share i,
  /// the evaluation at point i, is the i-th share_size-byte slice. Every
  /// byte of `out` is written, so it need not be initialised.
  void encode(std::span<const std::uint8_t> data,
              std::span<std::uint8_t> out) const;

  /// RS.DECODE: reconstruct a `data_size`-byte payload from >= k shares.
  /// Returns nullopt when the input is unusable (too few distinct
  /// valid-size shares, bad indices). Inconsistent-but-plausible shares
  /// yield a wrong payload, as with real RS erasure decoding; callers
  /// authenticate shares beforehand.
  std::optional<Bytes> decode(std::span<const ShareView> shares,
                              std::size_t data_size) const;

 private:
  std::size_t n_;
  std::size_t k_;
  // parity_[r * k + j]: Lagrange basis L_j (through points 0..k-1) at
  // point k+r, so parity symbol r = sum_j data_j * parity_[r * k + j].
  std::vector<GF16::Elem> parity_;
};

/// Reference implementation: the original chunk-major scalar encoder and
/// decoder, one field mul per symbol through the log/exp tables, with the
/// O(k^2)-per-row Lagrange construction. It is the differential-test
/// oracle only -- independent of the production paths above down to the
/// interpolation rows and the symbol mul -- and nothing in the library
/// calls it. Bit-for-bit output equality with ReedSolomon is a tested
/// invariant (the wire format is pinned by replay corpora and transcripts).
namespace ref_ {

/// The n shares back to back, laid out as ReedSolomon::encode writes them.
Bytes encode(std::size_t n, std::size_t k, std::span<const std::uint8_t> data);

std::optional<Bytes> decode(std::size_t n, std::size_t k,
                            std::span<const ShareView> shares,
                            std::size_t data_size);

}  // namespace ref_

}  // namespace coca::codec

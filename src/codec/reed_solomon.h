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
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "codec/gf16.h"
#include "util/common.h"

namespace coca::codec {

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

  /// RS.ENCODE: n shares; share i is the evaluation at point i.
  std::vector<Bytes> encode(const Bytes& data) const;

  /// RS.DECODE: reconstruct a `data_size`-byte payload from >= k shares
  /// given as (share index, share bytes) pairs. Returns nullopt when the
  /// input is unusable (too few distinct valid-size shares, bad indices).
  /// Inconsistent-but-plausible shares yield a wrong payload, as with real
  /// RS erasure decoding; callers authenticate shares beforehand.
  std::optional<Bytes> decode(
      const std::vector<std::pair<std::size_t, Bytes>>& shares,
      std::size_t data_size) const;

 private:
  std::size_t n_;
  std::size_t k_;
  // parity_[r][j]: Lagrange basis L_j (through points 0..k-1) evaluated at
  // point k+r, so parity symbol r = sum_j data_j * parity_[r][j].
  std::vector<std::vector<GF16::Elem>> parity_;
};

/// Reference implementation: the original chunk-major scalar encoder and
/// decoder, one field mul per symbol through the log/exp tables. The
/// production paths above are table-driven and share-major; these stay as
/// (a) the differential-test oracle -- independent down to the symbol mul --
/// and (b) the small-buffer fallback where MulBy table construction would
/// dominate. Bit-for-bit output equality with ReedSolomon is a tested
/// invariant (the wire format is pinned by replay corpora and transcripts).
namespace ref_ {

std::vector<Bytes> encode(std::size_t n, std::size_t k, const Bytes& data);

std::optional<Bytes> decode(
    std::size_t n, std::size_t k,
    const std::vector<std::pair<std::size_t, Bytes>>& shares,
    std::size_t data_size);

}  // namespace ref_

}  // namespace coca::codec

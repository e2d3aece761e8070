#include "codec/reed_solomon.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>

#include "obs/obs.h"

namespace coca::codec {

namespace {

using Elem = GF16::Elem;

// Evaluates all k Lagrange basis polynomials through the distinct points
// `xs` at the point `p`: out[j] = L_j(p), at O(k^2) per row. Only the ref_
// oracle uses it; production rows come from lagrange_rows below.
std::vector<Elem> lagrange_row(const GF16& f, const std::vector<Elem>& xs,
                               Elem p) {
  const std::size_t k = xs.size();
  std::vector<Elem> out(k, 0);
  // If p coincides with a node, the basis row is a unit vector.
  for (std::size_t j = 0; j < k; ++j) {
    if (xs[j] == p) {
      out[j] = 1;
      return out;
    }
  }
  // N = prod_m (p - x_m); all factors nonzero here.
  Elem num = 1;
  for (const Elem x : xs) num = f.mul(num, GF16::add(p, x));
  for (std::size_t j = 0; j < k; ++j) {
    Elem den = GF16::add(p, xs[j]);  // (p - x_j)
    for (std::size_t m = 0; m < k; ++m) {
      if (m != j) den = f.mul(den, GF16::add(xs[j], xs[m]));
    }
    out[j] = f.div(num, den);
  }
  return out;
}

// Lagrange basis rows through the distinct nodes `xs`, one per target
// point, row-major: rows[r * k + j] = L_j(points[r]). No target may be a
// node. Barycentric form: with w_j = prod_{m != j} (x_j - x_m) and
// N(p) = prod_m (p - x_m), L_j(p) = N(p) / ((p - x_j) w_j). The weights
// cost O(k^2) once, then each row O(k), against lagrange_row's O(k^2) per
// row. Field arithmetic is exact, so the rows are lagrange_row's rows.
std::vector<Elem> lagrange_rows(const GF16& f, const std::vector<Elem>& xs,
                                const std::vector<Elem>& points) {
  if (points.empty()) return {};
  const std::size_t k = xs.size();
  std::vector<Elem> inv_w(k);
  for (std::size_t j = 0; j < k; ++j) {
    Elem w = 1;
    for (std::size_t m = 0; m < k; ++m) {
      if (m != j) w = f.mul(w, GF16::add(xs[j], xs[m]));
    }
    inv_w[j] = f.inv(w);
  }
  std::vector<Elem> rows(points.size() * k);
  for (std::size_t r = 0; r < points.size(); ++r) {
    const Elem p = points[r];
    Elem num = 1;  // N(p)
    for (const Elem x : xs) num = f.mul(num, GF16::add(p, x));
    for (std::size_t j = 0; j < k; ++j) {
      rows[r * k + j] = f.mul(f.div(num, GF16::add(p, xs[j])), inv_w[j]);
    }
  }
  return rows;
}

Elem load_symbol(std::span<const std::uint8_t> data, std::size_t sym_index) {
  const std::size_t off = 2 * sym_index;
  Elem v = 0;
  if (off < data.size()) v = static_cast<Elem>(data[off]) << 8;
  if (off + 1 < data.size()) v |= data[off + 1];
  return v;
}

void store_symbol(std::span<std::uint8_t> data, std::size_t sym_index,
                  Elem v) {
  const std::size_t off = 2 * sym_index;
  if (off < data.size()) data[off] = static_cast<std::uint8_t>(v >> 8);
  if (off + 1 < data.size()) data[off + 1] = static_cast<std::uint8_t>(v);
}

Elem load_be16(const std::uint8_t* p) {
  return static_cast<Elem>(p[0] << 8 | p[1]);
}

void store_be16(std::uint8_t* p, Elem v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}

std::size_t share_size_of(std::size_t k, std::size_t data_size) {
  return 2 * std::max<std::size_t>(1, ceil_div(data_size, 2 * k));
}

/// Selects the first k usable shares (distinct in-range indices, exact
/// share size); returns their evaluation points and bytes in selection
/// order, or false when fewer than k qualify. Shared by both decoders so
/// they agree on selection down to tie-breaking.
bool select_shares(std::size_t n, std::size_t k, std::size_t ssize,
                   std::span<const ShareView> shares, std::vector<Elem>* xs,
                   std::vector<const std::uint8_t*>* payload) {
  xs->clear();
  xs->reserve(k);
  payload->clear();
  payload->reserve(k);
  std::vector<bool> taken(n, false);
  for (const ShareView& s : shares) {
    if (s.index >= n || taken[s.index] || s.bytes.size() != ssize) continue;
    taken[s.index] = true;
    xs->push_back(static_cast<Elem>(s.index));
    payload->push_back(s.bytes.data());
    if (payload->size() == k) return true;
  }
  return false;
}

// Below this share size a MulBy table build per coefficient costs more
// than the SIMD loop saves; combine() multiplies symbol by symbol instead.
// From a share-size sweep of encode with each path forced (n in {4, 7, 10,
// 31, 64}, shares of 8..1024 bytes, EXPERIMENTS.md T-gf16): the scalar
// loop wins up to 320-416 bytes depending on n, the kernels from 448 bytes
// at every n.
constexpr std::size_t kWideThresholdBytes = 448;

// out = sum_j row[j] * in[j] for j < in.size(), over `ssize` bytes of
// big-endian symbols. Every byte of `out` is written, so it need not be
// initialised; it must not alias an input.
void combine(const GF16& f, const Elem* row,
             const std::vector<const std::uint8_t*>& in, std::uint8_t* out,
             std::size_t ssize) {
  const std::size_t k = in.size();
  if (ssize < kWideThresholdBytes) {
    // Scalar, chunk by chunk: one log/exp field mul per symbol and term.
    for (std::size_t c = 0; c < ssize; c += 2) {
      Elem acc = 0;
      for (std::size_t j = 0; j < k; ++j) {
        acc = GF16::add(acc, f.mul(row[j], load_be16(in[j] + c)));
      }
      store_be16(out + c, acc);
    }
    return;
  }
  // Share-major: one MulBy table build per coefficient, then a contiguous
  // streaming mul/axpy over the whole share, so both operands stay
  // resident instead of striding through every share per chunk.
  bool first = true;
  for (std::size_t j = 0; j < k; ++j) {
    if (row[j] == 0) continue;  // contributes nothing
    const MulBy mb(f, row[j]);
    if (first) {
      mb.mul_be(out, in[j], ssize);
      first = false;
    } else {
      mb.axpy_be(out, in[j], ssize);
    }
  }
  if (first) std::memset(out, 0, ssize);  // an all-zero row
}

// Four 16-bit words, each kept in its memory byte order, as the 8-byte
// word that stores them in sequence -- assembled in registers, because
// four 2-byte stores followed by an 8-byte reload stall store forwarding.
std::uint64_t pack4(const std::uint16_t sym[4]) {
  std::uint64_t w = 0;
  for (std::size_t q = 0; q < 4; ++q) {
    const std::size_t shift =
        std::endian::native == std::endian::little ? 16 * q : 48 - 16 * q;
    w |= std::uint64_t{sym[q]} << shift;
  }
  return w;
}

// De-interleaves the payload into the k systematic shares: share j holds
// data symbols j, k+j, 2k+j, ... (big-endian). One chunk-major pass over
// the chunks wholly inside the payload, four chunks per step so that each
// share takes its four 16-bit symbols as one 8-byte store; only the
// zero-padded tail chunk goes through the bounds-checked loaders. Share j
// is written to out[j * ssize, (j + 1) * ssize), every byte of it.
void deinterleave_systematic(std::span<const std::uint8_t> data,
                             std::size_t k, std::size_t ssize,
                             std::uint8_t* out) {
  const std::size_t stride = 2 * k;  // bytes per chunk
  const std::size_t whole = data.size() / stride;
  std::vector<std::uint8_t*> dst(k);
  for (std::size_t j = 0; j < k; ++j) dst[j] = out + j * ssize;
  const std::uint8_t* src = data.data();
  std::size_t c = 0;
  for (; c + 4 <= whole; c += 4, src += 4 * stride) {
    for (std::size_t j = 0; j < k; ++j) {
      std::uint16_t sym[4];
      for (std::size_t q = 0; q < 4; ++q) {
        std::memcpy(&sym[q], src + q * stride + 2 * j, 2);
      }
      const std::uint64_t word = pack4(sym);
      std::memcpy(dst[j] + 2 * c, &word, 8);
    }
  }
  for (; c < whole; ++c, src += stride) {
    for (std::size_t j = 0; j < k; ++j) {
      std::memcpy(dst[j] + 2 * c, src + 2 * j, 2);
    }
  }
  for (; c < ssize / 2; ++c) {
    for (std::size_t j = 0; j < k; ++j) {
      store_symbol({dst[j], ssize}, c, load_symbol(data, c * k + j));
    }
  }
}

// Inverse of deinterleave_systematic: column p holds data symbols p, k+p,
// 2k+p, ...; writes the first `out->size()` bytes in one chunk-major pass
// of 16-bit moves, bounds-checked only in the tail chunk.
void interleave(const std::vector<const std::uint8_t*>& cols,
                std::size_t ssize, Bytes* out) {
  const std::size_t k = cols.size();
  const std::size_t whole = out->size() / (2 * k);
  std::uint8_t* dst = out->data();
  std::size_t c = 0;
  for (; c < whole; ++c, dst += 2 * k) {
    for (std::size_t p = 0; p < k; ++p) {
      std::memcpy(dst + 2 * p, cols[p] + 2 * c, 2);
    }
  }
  for (; c < ssize / 2; ++c) {
    for (std::size_t p = 0; p < k; ++p) {
      store_symbol(*out, c * k + p, load_be16(cols[p] + 2 * c));
    }
  }
}

}  // namespace

namespace ref_ {

Bytes encode(std::size_t n, std::size_t k, std::span<const std::uint8_t> data) {
  const GF16& f = GF16::instance();
  const std::size_t ssize = share_size_of(k, data.size());
  const std::size_t chunks = ssize / 2;
  std::vector<Elem> nodes(k);
  for (std::size_t j = 0; j < k; ++j) nodes[j] = static_cast<Elem>(j);
  std::vector<std::vector<Elem>> parity;
  parity.reserve(n - k);
  for (std::size_t i = k; i < n; ++i) {
    parity.push_back(lagrange_row(f, nodes, static_cast<Elem>(i)));
  }
  Bytes out(n * ssize, 0);
  const auto share = [&](std::size_t i) {
    return std::span<std::uint8_t>(out).subspan(i * ssize, ssize);
  };

  std::vector<Elem> chunk(k);
  for (std::size_t c = 0; c < chunks; ++c) {
    for (std::size_t j = 0; j < k; ++j) {
      chunk[j] = load_symbol(data, c * k + j);
      // Systematic part: share j carries data symbol j of each chunk.
      store_symbol(share(j), c, chunk[j]);
    }
    for (std::size_t r = 0; r < n - k; ++r) {
      const std::vector<Elem>& row = parity[r];
      Elem acc = 0;
      for (std::size_t j = 0; j < k; ++j) {
        acc = GF16::add(acc, f.mul(row[j], chunk[j]));
      }
      store_symbol(share(k + r), c, acc);
    }
  }
  return out;
}

std::optional<Bytes> decode(std::size_t n, std::size_t k,
                            std::span<const ShareView> shares,
                            std::size_t data_size) {
  const GF16& f = GF16::instance();
  const std::size_t ssize = share_size_of(k, data_size);
  const std::size_t chunks = ssize / 2;

  std::vector<Elem> xs;
  std::vector<const std::uint8_t*> payload;
  if (!select_shares(n, k, ssize, shares, &xs, &payload)) return std::nullopt;

  // Interpolation rows for the k systematic target points.
  std::vector<std::vector<Elem>> rows(k);
  for (std::size_t p = 0; p < k; ++p) {
    rows[p] = lagrange_row(f, xs, static_cast<Elem>(p));
  }

  Bytes out(data_size, 0);
  for (std::size_t c = 0; c < chunks; ++c) {
    for (std::size_t p = 0; p < k; ++p) {
      const std::size_t sym = c * k + p;
      if (2 * sym >= data_size) break;
      Elem acc = 0;
      for (std::size_t j = 0; j < k; ++j) {
        acc = GF16::add(acc, f.mul(rows[p][j],
                                   load_symbol({payload[j], ssize}, c)));
      }
      store_symbol(out, sym, acc);
    }
  }
  return out;
}

}  // namespace ref_

ReedSolomon::ReedSolomon(std::size_t n, std::size_t k) : n_(n), k_(k) {
  require(k >= 1 && k <= n && n <= GF16::kOrder,
          "ReedSolomon: need 1 <= k <= n <= 65535");
  std::vector<Elem> nodes(k);
  std::vector<Elem> parity_points(n - k);
  for (std::size_t j = 0; j < k; ++j) nodes[j] = static_cast<Elem>(j);
  for (std::size_t r = 0; r < n - k; ++r) {
    parity_points[r] = static_cast<Elem>(k + r);
  }
  parity_ = lagrange_rows(GF16::instance(), nodes, parity_points);
}

void ReedSolomon::encode(std::span<const std::uint8_t> data,
                         std::span<std::uint8_t> out) const {
  COCA_OBS_SPAN("rs.encode", "kernel");
  const std::size_t ssize = share_size(data.size());
  require(out.size() == n_ * ssize,
          "ReedSolomon::encode: output must hold exactly n shares");
  deinterleave_systematic(data, k_, ssize, out.data());

  const GF16& f = GF16::instance();
  std::vector<const std::uint8_t*> systematic(k_);
  for (std::size_t j = 0; j < k_; ++j) systematic[j] = out.data() + j * ssize;
  for (std::size_t r = 0; r + k_ < n_; ++r) {
    combine(f, &parity_[r * k_], systematic, out.data() + (k_ + r) * ssize,
            ssize);
  }
}

std::optional<Bytes> ReedSolomon::decode(std::span<const ShareView> shares,
                                         std::size_t data_size) const {
  COCA_OBS_SPAN("rs.decode", "kernel");
  const std::size_t ssize = share_size(data_size);
  std::vector<Elem> xs;
  std::vector<const std::uint8_t*> in;
  if (!select_shares(n_, k_, ssize, shares, &xs, &in)) return std::nullopt;

  // Column p (data symbols p, k+p, 2k+p, ...) is share p verbatim when
  // share p was selected -- in the common all-systematic decode that is
  // every column, and the decode is the interleave below. A missing column
  // is one linear combination of the selected shares.
  std::vector<const std::uint8_t*> cols(k_, nullptr);
  for (std::size_t j = 0; j < k_; ++j) {
    if (xs[j] < k_) cols[xs[j]] = in[j];
  }
  std::vector<Elem> missing;
  for (std::size_t p = 0; p < k_; ++p) {
    if (cols[p] == nullptr) missing.push_back(static_cast<Elem>(p));
  }
  const GF16& f = GF16::instance();
  const auto rows = lagrange_rows(f, xs, missing);
  const auto computed =
      std::make_unique_for_overwrite<std::uint8_t[]>(missing.size() * ssize);
  for (std::size_t r = 0; r < missing.size(); ++r) {
    std::uint8_t* col = computed.get() + r * ssize;
    combine(f, &rows[r * k_], in, col, ssize);
    cols[missing[r]] = col;
  }
  Bytes out(data_size, 0);
  interleave(cols, ssize, &out);
  return out;
}

}  // namespace coca::codec

#include "codec/reed_solomon.h"

#include <algorithm>
#include <cstring>

#include "obs/obs.h"

namespace coca::codec {

namespace {

using Elem = GF16::Elem;

// Evaluates all k Lagrange basis polynomials through the distinct points
// `xs` at the point `p`: out[j] = L_j(p).
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

Elem load_symbol(const Bytes& data, std::size_t sym_index) {
  const std::size_t off = 2 * sym_index;
  Elem v = 0;
  if (off < data.size()) v = static_cast<Elem>(data[off]) << 8;
  if (off + 1 < data.size()) v |= data[off + 1];
  return v;
}

void store_symbol(Bytes& data, std::size_t sym_index, Elem v) {
  const std::size_t off = 2 * sym_index;
  if (off < data.size()) data[off] = static_cast<std::uint8_t>(v >> 8);
  if (off + 1 < data.size()) data[off + 1] = static_cast<std::uint8_t>(v);
}

std::size_t share_size_of(std::size_t k, std::size_t data_size) {
  return 2 * std::max<std::size_t>(1, ceil_div(data_size, 2 * k));
}

/// Selects the first k usable shares (distinct in-range indices, exact
/// share size); returns their evaluation points and payload pointers in
/// selection order, or false when fewer than k qualify. Shared by both
/// decoders so they agree on selection down to tie-breaking.
bool select_shares(std::size_t n, std::size_t k, std::size_t ssize,
                   const std::vector<std::pair<std::size_t, Bytes>>& shares,
                   std::vector<Elem>* xs,
                   std::vector<const Bytes*>* payload) {
  xs->clear();
  xs->reserve(k);
  payload->assign(k, nullptr);
  std::vector<bool> taken(n, false);
  std::size_t got = 0;
  for (const auto& [idx, bytes] : shares) {
    if (idx >= n || taken[idx] || bytes.size() != ssize) continue;
    taken[idx] = true;
    xs->push_back(static_cast<Elem>(idx));
    (*payload)[got++] = &bytes;
    if (got == k) return true;
  }
  return false;
}

// Below this share size the MulBy table build (64 field muls + 512 XORs
// per coefficient) costs more than it saves; use the scalar reference path.
constexpr std::size_t kWideThresholdBytes = 512;

// De-interleaves the payload into the k systematic shares: share j holds
// data symbols j, k+j, 2k+j, ... (big-endian). Symbols fully inside the
// payload copy branch-free; the zero-padded tail goes through the
// bounds-checked loaders. `shares` must hold >= k zero-filled buffers of
// `ssize` bytes.
void deinterleave_systematic(const Bytes& data, std::size_t k,
                             std::size_t ssize, std::vector<Bytes>* shares) {
  const std::size_t chunks = ssize / 2;
  for (std::size_t j = 0; j < k; ++j) {
    Bytes& share = (*shares)[j];
    std::size_t c = 0;
    for (; c < chunks; ++c) {
      const std::size_t off = 2 * (c * k + j);
      if (off + 1 >= data.size()) break;
      share[2 * c] = data[off];
      share[2 * c + 1] = data[off + 1];
    }
    for (; c < chunks; ++c) {
      store_symbol(share, c, load_symbol(data, c * k + j));
    }
  }
}

}  // namespace

namespace ref_ {

std::vector<Bytes> encode(std::size_t n, std::size_t k, const Bytes& data) {
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
  std::vector<Bytes> shares(n, Bytes(ssize, 0));

  std::vector<Elem> chunk(k);
  for (std::size_t c = 0; c < chunks; ++c) {
    for (std::size_t j = 0; j < k; ++j) {
      chunk[j] = load_symbol(data, c * k + j);
      // Systematic part: share j carries data symbol j of each chunk.
      store_symbol(shares[j], c, chunk[j]);
    }
    for (std::size_t r = 0; r < n - k; ++r) {
      const std::vector<Elem>& row = parity[r];
      Elem acc = 0;
      for (std::size_t j = 0; j < k; ++j) {
        acc = GF16::add(acc, f.mul(row[j], chunk[j]));
      }
      store_symbol(shares[k + r], c, acc);
    }
  }
  return shares;
}

std::optional<Bytes> decode(
    std::size_t n, std::size_t k,
    const std::vector<std::pair<std::size_t, Bytes>>& shares,
    std::size_t data_size) {
  const GF16& f = GF16::instance();
  const std::size_t ssize = share_size_of(k, data_size);
  const std::size_t chunks = ssize / 2;

  std::vector<Elem> xs;
  std::vector<const Bytes*> payload;
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
        acc = GF16::add(acc, f.mul(rows[p][j], load_symbol(*payload[j], c)));
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
  const GF16& f = GF16::instance();
  std::vector<Elem> nodes(k);
  for (std::size_t j = 0; j < k; ++j) nodes[j] = static_cast<Elem>(j);
  parity_.reserve(n - k);
  for (std::size_t i = k; i < n; ++i) {
    parity_.push_back(lagrange_row(f, nodes, static_cast<Elem>(i)));
  }
}

std::vector<Bytes> ReedSolomon::encode(const Bytes& data) const {
  COCA_OBS_SPAN("rs.encode", "kernel");
  const std::size_t ssize = share_size(data.size());
  if (ssize < kWideThresholdBytes) return ref_::encode(n_, k_, data);

  const GF16& f = GF16::instance();
  std::vector<Bytes> shares(n_, Bytes(ssize, 0));
  deinterleave_systematic(data, k_, ssize, &shares);

  // Parity rows as whole-buffer kernel calls: row r = sum_j coef * share_j
  // -- one MulBy table build per coefficient, then a contiguous streaming
  // mul/axpy over the full share. Share-major order keeps both operands
  // resident instead of striding through every share per chunk.
  for (std::size_t r = 0; r + k_ < n_; ++r) {
    Bytes& out = shares[k_ + r];
    bool first = true;
    for (std::size_t j = 0; j < k_; ++j) {
      const Elem coef = parity_[r][j];
      if (coef == 0) continue;  // contributes nothing; `out` is zero-filled
      const MulBy mb(f, coef);
      if (first) {
        mb.mul_be(out.data(), shares[j].data(), ssize);
        first = false;
      } else {
        mb.axpy_be(out.data(), shares[j].data(), ssize);
      }
    }
  }
  return shares;
}

std::optional<Bytes> ReedSolomon::decode(
    const std::vector<std::pair<std::size_t, Bytes>>& shares,
    std::size_t data_size) const {
  COCA_OBS_SPAN("rs.decode", "kernel");
  const std::size_t ssize = share_size(data_size);
  if (ssize < kWideThresholdBytes) {
    return ref_::decode(n_, k_, shares, data_size);
  }

  const GF16& f = GF16::instance();
  const std::size_t chunks = ssize / 2;

  std::vector<Elem> xs;
  std::vector<const Bytes*> payload;
  if (!select_shares(n_, k_, ssize, shares, &xs, &payload)) {
    return std::nullopt;
  }

  Bytes out(data_size, 0);
  Bytes col(ssize, 0);
  for (std::size_t p = 0; p < k_; ++p) {
    // Column p (data symbols p, k+p, 2k+p, ...) as one linear combination
    // of the selected shares, streamed into `col` with the MulBy kernels.
    const std::vector<Elem> row = lagrange_row(f, xs, static_cast<Elem>(p));
    bool first = true;
    for (std::size_t j = 0; j < k_; ++j) {
      const Elem coef = row[j];
      if (coef == 0) continue;
      if (coef == 1 && first) {
        // Unit row (the target point is among the selected shares): the
        // column is that share verbatim. This is the whole inner loop of
        // the common all-systematic-shares decode.
        std::memcpy(col.data(), payload[j]->data(), ssize);
        first = false;
        continue;
      }
      const MulBy mb(f, coef);
      if (first) {
        mb.mul_be(col.data(), payload[j]->data(), ssize);
        first = false;
      } else {
        mb.axpy_be(col.data(), payload[j]->data(), ssize);
      }
    }
    if (first) std::fill(col.begin(), col.end(), std::uint8_t{0});

    // Interleave the column back at stride k; bounds-checked at the tail.
    std::size_t c = 0;
    for (; c < chunks; ++c) {
      const std::size_t off = 2 * (c * k_ + p);
      if (off + 1 >= data_size) break;
      out[off] = col[2 * c];
      out[off + 1] = col[2 * c + 1];
    }
    for (; c < chunks; ++c) {
      const std::size_t sym = c * k_ + p;
      if (2 * sym >= data_size) break;
      store_symbol(out, sym, load_symbol(col, c));
    }
  }
  return out;
}

}  // namespace coca::codec

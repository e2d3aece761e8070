#include "ba/long_ba_plus.h"

#include <algorithm>
#include <memory>

#include "codec/reed_solomon.h"
#include "crypto/merkle.h"

namespace coca::ba {

namespace {

using crypto::Digest;
using crypto::MerkleTree;

/// An (index, share, witness) tuple's wire form up to the witness: u32
/// index, the share as a `bytes` field, u8 level count. The buffer is sized
/// for the whole tuple, so the caller appends the 32 * `levels` witness
/// bytes (crypto::MerkleWitness's wire form) without a reallocation.
Bytes tuple_head(std::size_t index, std::span<const std::uint8_t> share,
                 std::size_t levels) {
  Bytes out;
  out.reserve(4 + 4 + share.size() + 1 + 32 * levels);
  for (const std::uint32_t v : {narrow<std::uint32_t>(index),
                                narrow<std::uint32_t>(share.size())}) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  out.insert(out.end(), share.begin(), share.end());
  out.push_back(narrow<std::uint8_t>(levels));
  return out;
}

/// A received (index, share, witness) tuple; `share` and `witness` are
/// views into the message it came in, which must outlive the tuple.
struct Tuple {
  std::size_t index;
  std::span<const std::uint8_t> share;
  std::span<const std::uint8_t> witness;
};

std::optional<Tuple> decode_tuple(std::span<const std::uint8_t> raw) {
  Reader r(raw);
  const auto index = r.u32();
  if (!index) return std::nullopt;
  const auto share = r.bytes_view();
  if (!share) return std::nullopt;
  const auto wlen = r.u8();
  if (!wlen || r.remaining() != static_cast<std::size_t>(*wlen) * 32) {
    return std::nullopt;
  }
  return Tuple{*index, *share, raw.last(r.remaining())};
}

/// This thread's code for the last (n, k) it was asked for. Every party of
/// a run shares one thread and one (n, k), so the parity rows are built
/// once per run shape instead of once per party. A party holds its own
/// reference across advance(), so a later run with another shape on this
/// thread cannot free the code from under a parked fiber.
std::shared_ptr<const codec::ReedSolomon> code_for(std::size_t n,
                                                   std::size_t k) {
  thread_local std::shared_ptr<const codec::ReedSolomon> last;
  if (!last || last->n() != n || last->k() != k) {
    last = std::make_shared<const codec::ReedSolomon>(n, k);
  }
  return last;
}

}  // namespace

MaybeBytes LongBAPlus::run(net::PartyContext& ctx,
                           std::span<const std::uint8_t> input) const {
  const std::size_t n = static_cast<std::size_t>(ctx.n());
  const std::size_t t = static_cast<std::size_t>(ctx.t());
  const std::size_t k = n - t;
  auto phase = ctx.phase("lBA+");

  // Step 1: RS-encode the length-prefixed payload; accumulate codewords
  // into a Merkle root. The length prefix travels inside the coded payload
  // so that all honest parties reconstruct the exact byte length without
  // trusting any per-tuple metadata.
  const std::shared_ptr<const codec::ReedSolomon> rs = code_for(n, k);
  // Both buffers are written whole before they are read, so neither is
  // zero-filled: the payload by the prefix and the input, the codewords by
  // the encoder. The payload is freed once encoded.
  const std::size_t payload_size = 8 + input.size();
  const std::size_t ssize = rs->share_size(payload_size);
  const auto codewords =
      std::make_unique_for_overwrite<std::uint8_t[]>(n * ssize);
  {
    const auto payload =
        std::make_unique_for_overwrite<std::uint8_t[]>(payload_size);
    for (std::size_t i = 0; i < 8; ++i) {
      payload[i] = static_cast<std::uint8_t>(input.size() >> (8 * i));
    }
    std::copy(input.begin(), input.end(), payload.get() + 8);
    rs->encode({payload.get(), payload_size}, {codewords.get(), n * ssize});
  }
  std::vector<std::span<const std::uint8_t>> shares;
  shares.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    shares.emplace_back(codewords.get() + j * ssize, ssize);
  }
  const MerkleTree tree = MerkleTree::build_views(shares);
  const Digest z = tree.root();

  // Step 2: agree on a root via Pi_BA+.
  MaybeBytes z_star_bytes;
  {
    auto root_phase = ctx.phase("lBA+/root-agreement");
    z_star_bytes = ba_plus_.run(ctx, crypto::digest_bytes(z));
  }
  if (!z_star_bytes) return std::nullopt;
  if (z_star_bytes->size() != z.size()) {
    // Agreed on a non-digest value; possible only if honest parties fed
    // such inputs into Pi_BA+ (they never do here). The branch condition is
    // an agreed value, so all honest parties take it together.
    return std::nullopt;
  }
  Digest z_star;
  std::copy(z_star_bytes->begin(), z_star_bytes->end(), z_star.begin());

  auto dist_phase = ctx.phase("lBA+/distribute");
  // Step 3a: holders of the winning root send each party its codeword.
  if (z_star == z) {
    const std::size_t levels = MerkleTree::depth(n);
    for (std::size_t j = 0; j < n; ++j) {
      Bytes tuple = tuple_head(j, shares[j], levels);
      tree.append_witness(j, tuple);
      ctx.send(narrow<int>(j), std::move(tuple));
    }
  }
  // One verifier for every tuple checked against z*: the paths share
  // their upper nodes, which it hashes once.
  crypto::MerkleRootVerifier verifier(z_star, n);
  // Received shares and witnesses stay views into these inboxes until the
  // decode.
  const std::vector<net::Envelope> sent_to_me = ctx.advance();
  std::optional<Tuple> mine;
  for (const auto& e : sent_to_me) {
    const auto tup = decode_tuple(e.payload);
    if (!tup || tup->index != static_cast<std::size_t>(ctx.id())) continue;
    if (verifier.verify(tup->index, tup->share, tup->witness)) {
      mine = *tup;
      break;
    }
  }

  // Step 3b: re-broadcast own verified codeword; decode from all verified
  // codewords received (any valid tuple is genuine under collision
  // resistance, whoever forwarded it).
  if (mine) {
    Bytes tuple =
        tuple_head(mine->index, mine->share, mine->witness.size() / 32);
    tuple.insert(tuple.end(), mine->witness.begin(), mine->witness.end());
    ctx.send_all(std::move(tuple));
  }
  // First verified share per index; `seen` marks the indices taken.
  std::vector<codec::ShareView> pool;
  pool.reserve(n);
  std::vector<bool> seen(n);
  if (mine) {
    pool.push_back({mine->index, mine->share});
    seen[mine->index] = true;
  }
  const std::vector<net::Envelope> forwarded = ctx.advance();
  for (const auto& e : forwarded) {
    const auto tup = decode_tuple(e.payload);
    if (!tup || tup->index >= n || seen[tup->index]) continue;
    if (verifier.verify(tup->index, tup->share, tup->witness)) {
      pool.push_back({tup->index, tup->share});
      seen[tup->index] = true;
    }
  }
  if (pool.size() < k) return std::nullopt;  // unreachable for t' <= t

  // All verified shares are codewords of the z*-holder's encoding, so they
  // share one length; decode the padded payload and strip the prefix. In
  // index order, the decode selects the same k shares whatever order they
  // arrived in.
  std::sort(pool.begin(), pool.end(),
            [](const codec::ShareView& a, const codec::ShareView& b) {
              return a.index < b.index;
            });
  const std::size_t share_len = pool.front().bytes.size();
  std::erase_if(pool, [&](const codec::ShareView& s) {
    return s.bytes.size() != share_len;
  });
  const std::size_t padded_size = 2 * k * (share_len / 2);
  const auto padded = rs->decode(pool, padded_size);
  if (!padded) return std::nullopt;
  Reader r(*padded);
  const auto len = r.u64();
  if (!len || *len > r.remaining()) return std::nullopt;
  return Bytes(padded->begin() + 8,
               padded->begin() + 8 + narrow<std::ptrdiff_t>(*len));
}

}  // namespace coca::ba

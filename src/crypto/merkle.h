// Merkle-tree accumulator (Section 7 of the paper).
//
// Compresses a list of Reed-Solomon codewords {s_1..s_n} into a kappa-bit
// root z and provides O(kappa log n) membership witnesses: MT.BUILD and
// MT.VERIFY in the paper's notation. Leaves and internal nodes are
// domain-separated so a leaf cannot masquerade as an internal node.
#pragma once

#include <vector>

#include "crypto/sha256.h"
#include "util/common.h"

namespace coca::crypto {

/// Sibling hashes from the leaf's level up to (excluding) the root.
using MerkleWitness = std::vector<Digest>;

class MerkleTree {
 public:
  /// MT.BUILD: builds the tree over `leaves` (padded to a power of two with
  /// a fixed empty-leaf digest). Requires at least one leaf.
  static MerkleTree build(const std::vector<Bytes>& leaves);

  /// MT.BUILD over borrowed byte views: identical tree, but callers hashing
  /// slices of a larger buffer (e.g. Reed-Solomon share views) need not
  /// materialize per-leaf Bytes copies. The whole build runs through one
  /// reused hash context. (Distinct name: a `build({})` call must stay
  /// unambiguous.)
  static MerkleTree build_views(
      std::span<const std::span<const std::uint8_t>> leaves);

  /// Root hash z: the kappa-bit encoding of the leaf multiset.
  const Digest& root() const { return nodes_[1]; }

  std::size_t leaf_count() const { return leaf_count_; }

  /// Witness w_i for the i-th leaf (0-indexed).
  MerkleWitness witness(std::size_t index) const;

  /// MT.VERIFY(z, i, s_i, w_i): true iff `witness` proves that `leaf` is the
  /// `index`-th of `leaf_count` leaves under root `root`.
  /// Robust against malformed witnesses (wrong length, bad index).
  static bool verify(const Digest& root, std::size_t leaf_count,
                     std::size_t index, const Bytes& leaf,
                     const MerkleWitness& witness);

  /// Depth of (= witness size for) a tree with `leaf_count` leaves.
  static std::size_t depth(std::size_t leaf_count);

  /// Domain-separated leaf hash: H(0x00 || data).
  static Digest leaf_hash(std::span<const std::uint8_t> data);
  static Digest leaf_hash(const Bytes& data) {
    return leaf_hash(std::span<const std::uint8_t>(data.data(), data.size()));
  }

 private:
  MerkleTree() = default;

  std::size_t leaf_count_ = 0;  // real leaves (before padding)
  std::size_t width_ = 0;       // padded to power of two
  // Heap layout: nodes_[1] is the root, children of k are 2k and 2k+1,
  // leaves occupy [width_, 2*width_).
  std::vector<Digest> nodes_;
};

}  // namespace coca::crypto

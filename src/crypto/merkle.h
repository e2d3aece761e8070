// Merkle-tree accumulator (Section 7 of the paper).
//
// Compresses a list of Reed-Solomon codewords {s_1..s_n} into a kappa-bit
// root z and provides O(kappa log n) membership witnesses: MT.BUILD and
// MT.VERIFY in the paper's notation. Leaves and internal nodes are
// domain-separated so a leaf cannot masquerade as an internal node.
//
// MT.VERIFY is a per-root object (MerkleRootVerifier): Pi_lBA+ checks up to
// n witnesses against one agreed root, and their paths share every node
// above the leaves, so each node is hashed once per root, not once per
// witness.
#pragma once

#include <vector>

#include "crypto/sha256.h"
#include "util/common.h"

namespace coca::crypto {

/// Sibling digests from the leaf's level up to (excluding) the root,
/// concatenated: 32 * depth(leaf_count) bytes, the form a witness has on
/// the wire.
using MerkleWitness = Bytes;

class MerkleTree {
 public:
  /// MT.BUILD: builds the tree over the borrowed `leaves` (padded to a
  /// power of two with a fixed empty-leaf digest), so callers hashing
  /// slices of a larger buffer (Reed-Solomon shares) copy no leaf. The
  /// whole build runs through one reused hash context. Requires at least
  /// one leaf.
  static MerkleTree build_views(
      std::span<const std::span<const std::uint8_t>> leaves);

  /// Root hash z: the kappa-bit encoding of the leaf multiset.
  const Digest& root() const { return nodes_[1]; }

  std::size_t leaf_count() const { return leaf_count_; }

  /// Witness w_i for the i-th leaf (0-indexed).
  MerkleWitness witness(std::size_t index) const;
  /// Appends w_i to `out`, e.g. a message already sized for it.
  void append_witness(std::size_t index, Bytes& out) const;

  /// Depth of (= witness size for) a tree with `leaf_count` leaves.
  static std::size_t depth(std::size_t leaf_count);

  /// Domain-separated leaf hash: H(0x00 || data).
  static Digest leaf_hash(std::span<const std::uint8_t> data);

  /// Domain-separated node hash: H(0x01 || left || right), each child 32
  /// bytes.
  static Digest node_hash(const std::uint8_t* left, const std::uint8_t* right);

 private:
  MerkleTree() = default;

  std::size_t leaf_count_ = 0;  // real leaves (before padding)
  std::size_t width_ = 0;       // padded to power of two
  // Heap layout: nodes_[1] is the root, children of k are 2k and 2k+1,
  // leaves occupy [width_, 2*width_).
  std::vector<Digest> nodes_;
};

/// MT.VERIFY(z, i, s_i, w_i) for every witness checked against one root z.
///
/// The verifier keeps, in the tree's heap layout, every node a successful
/// check has proven: the nodes on the path and their siblings. A later
/// check hashes upward only until its digest lands on a proven node; from
/// there it compares each remaining witness sibling with the proven one
/// (a memcmp, no hash). Under collision resistance its verdict equals the
/// per-witness recomputation of the whole path on every input, in any
/// order of checks. A failed check proves nothing.
class MerkleRootVerifier {
 public:
  /// Witnesses against `root` for a tree of `leaf_count` leaves; with no
  /// leaves every check fails.
  MerkleRootVerifier(const Digest& root, std::size_t leaf_count);

  /// True iff `witness` (the wire form, see MerkleWitness) proves that
  /// `leaf` is the `index`-th leaf under the root. Robust against
  /// malformed witnesses (wrong length, bad index).
  bool verify(std::size_t index, std::span<const std::uint8_t> leaf,
              std::span<const std::uint8_t> witness);

 private:
  std::size_t leaf_count_;
  std::size_t depth_ = 0;
  std::size_t width_ = 0;
  // Heap layout as in MerkleTree. known_[k] is meaningful only when
  // have_[k] is set; proven nodes come in sibling pairs, plus the root.
  std::vector<Digest> known_;
  std::vector<std::uint8_t> have_;
};

}  // namespace coca::crypto

// Merkle accumulator tests: MT.BUILD / MT.VERIFY semantics from Section 7.
#include "crypto/merkle.h"

#include <gtest/gtest.h>

#include <limits>
#include <utility>

#include "util/rng.h"

namespace coca::crypto {
namespace {

MerkleTree build(const std::vector<Bytes>& leaves) {
  const std::vector<std::span<const std::uint8_t>> views(leaves.begin(),
                                                         leaves.end());
  return MerkleTree::build_views(views);
}

std::vector<Bytes> make_leaves(std::size_t count, std::uint64_t seed = 1) {
  Rng rng(seed);
  std::vector<Bytes> leaves;
  leaves.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    leaves.push_back(rng.bytes(1 + rng.below(64)));
  }
  return leaves;
}

/// H(0x01 || left || right) through the one-shot hash of the 65 bytes.
Digest reference_node_hash(const std::uint8_t* left,
                           const std::uint8_t* right) {
  Bytes in{0x01};
  in.insert(in.end(), left, left + 32);
  in.insert(in.end(), right, right + 32);
  return sha256(in);
}

/// The per-witness MT.VERIFY that MerkleRootVerifier replaced: it
/// recomputes the whole path for every witness. The differential reference.
bool reference_verify(const Digest& root, std::size_t leaf_count,
                      std::size_t index, std::span<const std::uint8_t> leaf,
                      std::span<const std::uint8_t> witness) {
  if (leaf_count == 0 || index >= leaf_count) return false;
  if (witness.size() != 32 * MerkleTree::depth(leaf_count)) return false;
  Digest h = MerkleTree::leaf_hash(leaf);
  std::size_t pos = index;
  for (std::size_t off = 0; off < witness.size(); off += 32) {
    const std::uint8_t* sibling = witness.data() + off;
    h = (pos & 1U) ? reference_node_hash(sibling, h.data())
                   : reference_node_hash(h.data(), sibling);
    pos >>= 1;
  }
  return h == root;
}

/// One check on a fresh verifier.
bool verify_once(const Digest& root, std::size_t leaf_count, std::size_t index,
                 std::span<const std::uint8_t> leaf,
                 std::span<const std::uint8_t> witness) {
  MerkleRootVerifier verifier(root, leaf_count);
  return verifier.verify(index, leaf, witness);
}

TEST(Merkle, SingleLeaf) {
  const auto leaves = make_leaves(1);
  const MerkleTree t = build(leaves);
  const auto w = t.witness(0);
  EXPECT_TRUE(w.empty());
  EXPECT_TRUE(verify_once(t.root(), 1, 0, leaves[0], w));
}

TEST(Merkle, AllWitnessesVerifyAcrossSizes) {
  for (std::size_t count : {2u, 3u, 4u, 5u, 7u, 8u, 13u, 31u, 64u}) {
    const auto leaves = make_leaves(count, count);
    const MerkleTree t = build(leaves);
    MerkleRootVerifier shared(t.root(), count);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(t.witness(i).size(), 32 * MerkleTree::depth(count));
      EXPECT_TRUE(verify_once(t.root(), count, i, leaves[i], t.witness(i)))
          << "count=" << count << " i=" << i;
      EXPECT_TRUE(shared.verify(i, leaves[i], t.witness(i)))
          << "count=" << count << " i=" << i;
    }
  }
}

TEST(Merkle, WrongLeafRejected) {
  const auto leaves = make_leaves(7);
  const MerkleTree t = build(leaves);
  Bytes tampered = leaves[3];
  tampered[0] ^= 1;
  EXPECT_FALSE(verify_once(t.root(), 7, 3, tampered, t.witness(3)));
}

TEST(Merkle, WrongIndexRejected) {
  const auto leaves = make_leaves(8);
  const MerkleTree t = build(leaves);
  // A valid (leaf, witness) pair presented under a different index fails:
  // the index determines left/right hashing order along the path.
  EXPECT_FALSE(verify_once(t.root(), 8, 2, leaves[3], t.witness(3)));
  EXPECT_FALSE(verify_once(t.root(), 8, 9, leaves[3], t.witness(3)));
}

TEST(Merkle, WrongRootRejected) {
  const auto leaves = make_leaves(5);
  const MerkleTree t = build(leaves);
  Digest bad = t.root();
  bad[31] ^= 0x80;
  EXPECT_FALSE(verify_once(bad, 5, 0, leaves[0], t.witness(0)));
}

TEST(Merkle, TruncatedWitnessRejected) {
  const auto leaves = make_leaves(8);
  const MerkleTree t = build(leaves);
  auto w = t.witness(4);
  w.resize(w.size() - 32);
  EXPECT_FALSE(verify_once(t.root(), 8, 4, leaves[4], w));
  w = t.witness(4);
  w.resize(w.size() + 32);
  EXPECT_FALSE(verify_once(t.root(), 8, 4, leaves[4], w));
  w = t.witness(4);
  w.pop_back();
  EXPECT_FALSE(verify_once(t.root(), 8, 4, leaves[4], w));
}

TEST(Merkle, DifferentLeafSetsDifferentRoots) {
  auto leaves = make_leaves(6);
  const Digest r1 = build(leaves).root();
  leaves[5][0] ^= 1;
  EXPECT_NE(build(leaves).root(), r1);
}

TEST(Merkle, LeafCannotPoseAsInternalNode) {
  // Domain separation: a leaf whose content equals the concatenation of two
  // child hashes must not produce the parent digest.
  const auto leaves = make_leaves(4);
  const MerkleTree t = build(leaves);
  // Try to verify the two children of the root as a 2-leaf tree's leaf.
  Bytes forged;
  // (Internal digests are not exposed; emulate by rebuilding structure.)
  const Digest l0 = MerkleTree::leaf_hash(leaves[0]);
  const Digest l1 = MerkleTree::leaf_hash(leaves[1]);
  forged.insert(forged.end(), l0.begin(), l0.end());
  forged.insert(forged.end(), l1.begin(), l1.end());
  EXPECT_FALSE(verify_once(t.root(), 2, 0, forged, t.witness(0)));
}

TEST(Merkle, DepthFormula) {
  EXPECT_EQ(MerkleTree::depth(1), 0u);
  EXPECT_EQ(MerkleTree::depth(2), 1u);
  EXPECT_EQ(MerkleTree::depth(3), 2u);
  EXPECT_EQ(MerkleTree::depth(4), 2u);
  EXPECT_EQ(MerkleTree::depth(5), 3u);
  EXPECT_EQ(MerkleTree::depth(64), 6u);
  EXPECT_EQ(MerkleTree::depth(65), 7u);
}

TEST(Merkle, BuildRejectsEmpty) {
  EXPECT_THROW(MerkleTree::build_views({}), Error);
}

TEST(Merkle, VerifyRejectsOutOfRange) {
  const auto leaves = make_leaves(4);
  const MerkleTree t = build(leaves);
  EXPECT_FALSE(verify_once(t.root(), 4, 4, leaves[0], t.witness(0)));
  EXPECT_FALSE(verify_once(t.root(), 0, 0, leaves[0], {}));
}

TEST(Merkle, NodeHashIsTheOneShotHashOfItsInput) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const Bytes left = rng.bytes(32);
    const Bytes right = rng.bytes(32);
    ASSERT_EQ(MerkleTree::node_hash(left.data(), right.data()),
              reference_node_hash(left.data(), right.data()))
        << "pair " << i;
  }
}

TEST(Merkle, RootIsPinned) {
  // Leaf i is i*7 bytes of value i (leaf 0 empty), padded with one empty
  // leaf to 8. The constant comes from an independent SHA-256 of the same
  // domain-separated layout, so a padding slip in the node hash cannot
  // hide behind the same slip in a reference.
  std::vector<Bytes> leaves;
  for (std::uint8_t i = 0; i < 7; ++i) leaves.emplace_back(i * 7u, i);
  EXPECT_EQ(to_hex(build(leaves).root()),
            "631885d545c63fe2745e1834a8fb39fab4c2d03ad8367a27e89ce5257e70cba9");
}

TEST(Merkle, ProvenPathDoesNotVouchForGarbageUpperSibling) {
  // Once leaf 0's path is proven, a genuine leaf whose own digest (leaf 0,
  // leaf 1) or first parent (leaf 2) lands on a proven node must still
  // have every sibling above it checked.
  const auto leaves = make_leaves(8);
  const MerkleTree t = build(leaves);
  MerkleRootVerifier verifier(t.root(), 8);
  ASSERT_TRUE(verifier.verify(0, leaves[0], t.witness(0)));
  for (const std::size_t i : {0u, 1u, 2u}) {
    auto w = t.witness(i);
    w[w.size() - 1] ^= 0x40;  // the root's child on the other side
    EXPECT_FALSE(reference_verify(t.root(), 8, i, leaves[i], w));
    EXPECT_FALSE(verifier.verify(i, leaves[i], w)) << "leaf " << i;
  }
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(verifier.verify(i, leaves[i], t.witness(i))) << "leaf " << i;
  }
}

struct Check {
  std::size_t index;
  Bytes leaf;
  MerkleWitness witness;
};

/// Honest, mutated, misplaced, malformed and cross-tree checks against the
/// root of `leaves`' tree.
std::vector<Check> checks_for(const std::vector<Bytes>& leaves,
                              const std::vector<Bytes>& other_leaves) {
  const std::size_t count = leaves.size();
  const MerkleTree t = build(leaves);
  const MerkleTree other = build(other_leaves);
  std::vector<Check> checks;
  for (std::size_t i = 0; i < count; ++i) {
    const Bytes& leaf = leaves[i];
    const MerkleWitness w = t.witness(i);
    checks.push_back({i, leaf, w});
    for (std::size_t b = 0; b < leaf.size(); ++b) {
      Bytes flipped = leaf;
      flipped[b] ^= 0x01;
      checks.push_back({i, std::move(flipped), w});
    }
    for (std::size_t b = 0; b < w.size(); ++b) {
      MerkleWitness flipped = w;
      flipped[b] ^= 0x80;
      checks.push_back({i, leaf, std::move(flipped)});
    }
    if (count > 1) checks.push_back({(i + 1) % count, leaf, w});
    checks.push_back({i ^ 1U, leaf, w});
    checks.push_back({count, leaf, w});
    checks.push_back({count + i, leaf, w});
    checks.push_back({std::numeric_limits<std::size_t>::max(), leaf, w});
    MerkleWitness shorter = w;
    if (!shorter.empty()) shorter.resize(shorter.size() - 32);
    checks.push_back({i, leaf, shorter});
    MerkleWitness longer = w;
    longer.resize(longer.size() + 32);
    checks.push_back({i, leaf, longer});
    MerkleWitness ragged = w;
    ragged.push_back(0);
    checks.push_back({i, leaf, ragged});
    checks.push_back({i, leaf, {}});
    checks.push_back({i, other_leaves[i], other.witness(i)});
    checks.push_back({i, leaf, other.witness(i)});
    checks.push_back({i, other_leaves[i], w});
  }
  return checks;
}

TEST(Merkle, VerifierMatchesPerWitnessReferenceInAnyOrder) {
  std::vector<std::size_t> counts;
  for (std::size_t c = 1; c <= 33; ++c) counts.push_back(c);
  counts.push_back(64);
  for (const std::size_t count : counts) {
    const auto leaves = make_leaves(count, 100 + count);
    const auto other_leaves = make_leaves(count, 200 + count);
    const MerkleTree t = build(leaves);
    const Digest root = t.root();
    const std::vector<Check> checks = checks_for(leaves, other_leaves);
    std::vector<bool> expected;
    for (const Check& c : checks) {
      expected.push_back(
          reference_verify(root, count, c.index, c.leaf, c.witness));
      // The reference accepts exactly the genuine (index, leaf, witness)
      // triples; at one leaf some mutations above coincide with them.
      const bool genuine = c.index < count && c.leaf == leaves[c.index] &&
                           c.witness == t.witness(c.index);
      ASSERT_EQ(expected.back(), genuine) << "count=" << count;
    }
    Rng rng(count);
    std::vector<std::size_t> order(checks.size());
    for (int pass = 0; pass < 4; ++pass) {
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      // Pass 0 keeps the listed order (each honest check before its
      // mutations); the others shuffle.
      if (pass > 0) {
        for (std::size_t i = order.size(); i > 1; --i) {
          std::swap(order[i - 1], order[rng.below(i)]);
        }
      }
      MerkleRootVerifier verifier(root, count);
      for (const std::size_t k : order) {
        const Check& c = checks[k];
        ASSERT_EQ(verifier.verify(c.index, c.leaf, c.witness), expected[k])
            << "count=" << count << " pass=" << pass << " check=" << k
            << " index=" << c.index;
      }
    }
  }
}

TEST(Merkle, ZeroLeafVerifierRejectsEverything) {
  const auto leaves = make_leaves(4);
  const MerkleTree t = build(leaves);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(reference_verify(t.root(), 0, i, leaves[i], t.witness(i)));
    EXPECT_FALSE(verify_once(t.root(), 0, i, leaves[i], t.witness(i)));
    EXPECT_FALSE(verify_once(t.root(), 0, i, leaves[i], {}));
  }
}

}  // namespace
}  // namespace coca::crypto

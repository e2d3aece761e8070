// Merkle accumulator tests: MT.BUILD / MT.VERIFY semantics from Section 7.
#include "crypto/merkle.h"

#include <gtest/gtest.h>

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

TEST(Merkle, SingleLeaf) {
  const auto leaves = make_leaves(1);
  const MerkleTree t = build(leaves);
  const auto w = t.witness(0);
  EXPECT_TRUE(w.empty());
  EXPECT_TRUE(MerkleTree::verify(t.root(), 1, 0, leaves[0], w));
}

TEST(Merkle, AllWitnessesVerifyAcrossSizes) {
  for (std::size_t count : {2u, 3u, 4u, 5u, 7u, 8u, 13u, 31u, 64u}) {
    const auto leaves = make_leaves(count, count);
    const MerkleTree t = build(leaves);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_TRUE(
          MerkleTree::verify(t.root(), count, i, leaves[i], t.witness(i)))
          << "count=" << count << " i=" << i;
    }
  }
}

TEST(Merkle, WrongLeafRejected) {
  const auto leaves = make_leaves(7);
  const MerkleTree t = build(leaves);
  Bytes tampered = leaves[3];
  tampered[0] ^= 1;
  EXPECT_FALSE(MerkleTree::verify(t.root(), 7, 3, tampered, t.witness(3)));
}

TEST(Merkle, WrongIndexRejected) {
  const auto leaves = make_leaves(8);
  const MerkleTree t = build(leaves);
  // A valid (leaf, witness) pair presented under a different index fails:
  // the index determines left/right hashing order along the path.
  EXPECT_FALSE(MerkleTree::verify(t.root(), 8, 2, leaves[3], t.witness(3)));
  EXPECT_FALSE(MerkleTree::verify(t.root(), 8, 9, leaves[3], t.witness(3)));
}

TEST(Merkle, WrongRootRejected) {
  const auto leaves = make_leaves(5);
  const MerkleTree t = build(leaves);
  Digest bad = t.root();
  bad[31] ^= 0x80;
  EXPECT_FALSE(MerkleTree::verify(bad, 5, 0, leaves[0], t.witness(0)));
}

TEST(Merkle, TruncatedWitnessRejected) {
  const auto leaves = make_leaves(8);
  const MerkleTree t = build(leaves);
  auto w = t.witness(4);
  w.pop_back();
  EXPECT_FALSE(MerkleTree::verify(t.root(), 8, 4, leaves[4], w));
  w = t.witness(4);
  w.push_back(Digest{});
  EXPECT_FALSE(MerkleTree::verify(t.root(), 8, 4, leaves[4], w));
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
  EXPECT_FALSE(MerkleTree::verify(t.root(), 2, 0, forged, t.witness(0)));
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
  EXPECT_FALSE(MerkleTree::verify(t.root(), 4, 4, leaves[0], t.witness(0)));
  EXPECT_FALSE(MerkleTree::verify(t.root(), 0, 0, leaves[0], {}));
}

}  // namespace
}  // namespace coca::crypto

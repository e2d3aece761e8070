#include "crypto/merkle.h"

#include <cstring>

#include "obs/obs.h"

namespace coca::crypto {

namespace {

constexpr std::uint8_t kLeafTag = 0x00;
constexpr std::uint8_t kNodeTag = 0x01;
constexpr std::uint8_t kEmptyTag = 0x02;

const Digest& empty_leaf_digest() {
  static const Digest d = sha256(std::span<const std::uint8_t>(&kEmptyTag, 1));
  return d;
}

}  // namespace

Digest MerkleTree::leaf_hash(std::span<const std::uint8_t> data) {
  Sha256 ctx;
  ctx.update(std::span<const std::uint8_t>(&kLeafTag, 1));
  ctx.update(data);
  return ctx.finish();
}

Digest MerkleTree::node_hash(const std::uint8_t* left,
                             const std::uint8_t* right) {
  // The 65-byte input padded by hand into two blocks: 0x01 || left ||
  // right, the 0x80 terminator, zeros, and the bit length 520.
  std::uint8_t block[128] = {};
  block[0] = kNodeTag;
  std::memcpy(block + 1, left, 32);
  std::memcpy(block + 33, right, 32);
  block[65] = 0x80;
  store_be64(block + 120, 65 * 8);
  return Sha256::of_padded(block);
}

std::size_t MerkleTree::depth(std::size_t leaf_count) {
  require(leaf_count >= 1, "MerkleTree::depth: need at least one leaf");
  return ceil_log2(leaf_count);
}

MerkleTree MerkleTree::build_views(
    std::span<const std::span<const std::uint8_t>> leaves) {
  COCA_OBS_SPAN("merkle.build", "kernel");
  require(!leaves.empty(), "MerkleTree::build_views: need at least one leaf");
  MerkleTree t;
  t.leaf_count_ = leaves.size();
  t.width_ = std::size_t{1} << depth(leaves.size());
  t.nodes_.assign(2 * t.width_, Digest{});
  // One hash context for the whole build: reset between leaves instead of
  // constructing a fresh context (and padding buffer) per leaf.
  Sha256 ctx;
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    ctx.reset();
    ctx.update(std::span<const std::uint8_t>(&kLeafTag, 1));
    ctx.update(leaves[i]);
    t.nodes_[t.width_ + i] = ctx.finish();
  }
  for (std::size_t i = leaves.size(); i < t.width_; ++i) {
    t.nodes_[t.width_ + i] = empty_leaf_digest();
  }
  for (std::size_t i = t.width_; i-- > 1;) {
    t.nodes_[i] =
        node_hash(t.nodes_[2 * i].data(), t.nodes_[2 * i + 1].data());
  }
  return t;
}

MerkleWitness MerkleTree::witness(std::size_t index) const {
  MerkleWitness w;
  w.reserve(32 * depth(leaf_count_));
  append_witness(index, w);
  return w;
}

void MerkleTree::append_witness(std::size_t index, Bytes& out) const {
  require(index < leaf_count_, "MerkleTree::witness: index out of range");
  for (std::size_t node = width_ + index; node > 1; node /= 2) {
    out.insert(out.end(), nodes_[node ^ 1].begin(), nodes_[node ^ 1].end());
  }
}

MerkleRootVerifier::MerkleRootVerifier(const Digest& root,
                                       std::size_t leaf_count)
    : leaf_count_(leaf_count) {
  if (leaf_count == 0) return;
  depth_ = MerkleTree::depth(leaf_count);
  width_ = std::size_t{1} << depth_;
  known_.resize(2 * width_);
  have_.assign(2 * width_, 0);
  known_[1] = root;
  have_[1] = 1;
}

bool MerkleRootVerifier::verify(std::size_t index,
                                std::span<const std::uint8_t> leaf,
                                std::span<const std::uint8_t> witness) {
  COCA_OBS_SPAN("merkle.verify", "kernel");
  if (index >= leaf_count_ || witness.size() != 32 * depth_) return false;
  const std::size_t leaf_node = width_ + index;
  std::size_t node = leaf_node;
  const std::uint8_t* sibling = witness.data();
  // Hash upward to the first proven node (the root at the latest), parking
  // each digest and its sibling in known_ without marking them proven.
  Digest h = MerkleTree::leaf_hash(leaf);
  for (; !have_[node]; node /= 2, sibling += 32) {
    known_[node] = h;
    std::memcpy(known_[node ^ 1].data(), sibling, 32);
    h = (node & 1U) ? MerkleTree::node_hash(sibling, h.data())
                    : MerkleTree::node_hash(h.data(), sibling);
  }
  if (h != known_[node]) return false;
  // Above a proven node every sibling is proven: compare, don't hash.
  for (std::size_t up = node; up > 1; up /= 2, sibling += 32) {
    if (std::memcmp(sibling, known_[up ^ 1].data(), 32) != 0) return false;
  }
  for (std::size_t k = leaf_node; k != node; k /= 2) {
    have_[k] = 1;
    have_[k ^ 1] = 1;
  }
  return true;
}

}  // namespace coca::crypto

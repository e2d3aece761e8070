#include "crypto/merkle.h"

#include "obs/obs.h"

namespace coca::crypto {

namespace {

constexpr std::uint8_t kLeafTag = 0x00;
constexpr std::uint8_t kNodeTag = 0x01;
constexpr std::uint8_t kEmptyTag = 0x02;

Digest node_hash(const Digest& left, const Digest& right) {
  Sha256 ctx;
  ctx.update(std::span<const std::uint8_t>(&kNodeTag, 1));
  ctx.update(std::span<const std::uint8_t>(left.data(), left.size()));
  ctx.update(std::span<const std::uint8_t>(right.data(), right.size()));
  return ctx.finish();
}

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

std::size_t MerkleTree::depth(std::size_t leaf_count) {
  require(leaf_count >= 1, "MerkleTree::depth: need at least one leaf");
  return ceil_log2(leaf_count);
}

MerkleTree MerkleTree::build_views(
    std::span<const std::span<const std::uint8_t>> leaves) {
  COCA_OBS_SPAN("merkle.build", "kernel");
  require(!leaves.empty(), "MerkleTree::build: need at least one leaf");
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
    t.nodes_[i] = node_hash(t.nodes_[2 * i], t.nodes_[2 * i + 1]);
  }
  return t;
}

MerkleTree MerkleTree::build(const std::vector<Bytes>& leaves) {
  std::vector<std::span<const std::uint8_t>> views;
  views.reserve(leaves.size());
  for (const Bytes& leaf : leaves) views.emplace_back(leaf.data(), leaf.size());
  return build_views(std::span<const std::span<const std::uint8_t>>(views));
}

MerkleWitness MerkleTree::witness(std::size_t index) const {
  require(index < leaf_count_, "MerkleTree::witness: index out of range");
  MerkleWitness w;
  w.reserve(depth(leaf_count_));
  for (std::size_t node = width_ + index; node > 1; node /= 2) {
    w.push_back(nodes_[node ^ 1]);
  }
  return w;
}

bool MerkleTree::verify(const Digest& root, std::size_t leaf_count,
                        std::size_t index, const Bytes& leaf,
                        const MerkleWitness& witness) {
  COCA_OBS_SPAN("merkle.verify", "kernel");
  if (leaf_count == 0 || index >= leaf_count) return false;
  if (witness.size() != depth(leaf_count)) return false;
  Digest h = leaf_hash(leaf);
  std::size_t pos = index;
  for (const Digest& sibling : witness) {
    h = (pos & 1U) ? node_hash(sibling, h) : node_hash(h, sibling);
    pos >>= 1;
  }
  return h == root;
}

}  // namespace coca::crypto

#include "ca/fixed_length_ca_blocks.h"

namespace coca::ca {

Bitstring add_last_block(net::PartyContext& ctx, std::size_t ell,
                         std::size_t block_bits, const Bitstring& v,
                         Bitstring prefix) {
  require(block_bits >= 1 && ell % block_bits == 0,
          "add_last_block: ell must be a multiple of the block size");
  require(prefix.size() % block_bits == 0 && prefix.size() < ell,
          "add_last_block: prefix must be a strict whole-block prefix");
  auto phase = ctx.phase("AddLastBlock");

  // Line 2: CA over the value of block i*+1. Convex validity of HighCostCA
  // keeps the result inside the honest block-value range, so it fits in
  // block_bits bits whenever at most t parties are corrupted; the clamp
  // below only matters under harsher test conditions and is agreed because
  // the HighCostCA output is agreed.
  const Bitstring my_block = v.substr(prefix.size(), block_bits);
  const HighCostCA high_cost;
  const BigNat agreed = high_cost.run(ctx, BigNat::from_bits(my_block));
  const Bitstring block = agreed.bit_length() <= block_bits
                              ? agreed.to_bits(block_bits)
                              : Bitstring::ones(block_bits);
  prefix.append(block);
  return prefix;
}

Bitstring FixedLengthCABlocks::run(net::PartyContext& ctx, std::size_t ell,
                                   Bitstring v_in) const {
  require(v_in.size() == ell, "FixedLengthCABlocks: input must have ell bits");
  const std::size_t n = static_cast<std::size_t>(ctx.n());
  const std::size_t num_blocks = n * n;
  require(ell >= num_blocks && ell % num_blocks == 0,
          "FixedLengthCABlocks: ell must be a positive multiple of n^2");
  const std::size_t block_bits = ell / num_blocks;
  auto phase = ctx.phase("FixedLengthCABlocks");

  // Line 1: prefix search over blocks.
  FindPrefixResult fp =
      find_prefix_blocks(ctx, lba_plus_, ell, num_blocks, std::move(v_in));
  if (fp.prefix.size() == ell) return fp.v;

  // Line 2: extend the prefix by one block.
  Bitstring prefix =
      add_last_block(ctx, ell, block_bits, fp.v, std::move(fp.prefix));

  // Line 3: decide between the two remaining candidates.
  return get_output(ctx, *kit_.binary, ell, fp.v_bot(), prefix);
}

}  // namespace coca::ca

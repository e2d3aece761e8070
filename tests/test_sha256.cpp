// SHA-256 against FIPS 180-4 / NIST CAVP vectors.
#include "crypto/sha256.h"

#include <gtest/gtest.h>

namespace coca::crypto {
namespace {

Bytes ascii(const std::string& s) { return Bytes(s.begin(), s.end()); }

TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(sha256(Bytes{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(sha256(ascii("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(sha256(ascii(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Bytes data(1'000'000, 'a');
  EXPECT_EQ(to_hex(sha256(data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundaries) {
  // 55/56/64 bytes hit the padding edge cases.
  EXPECT_EQ(to_hex(sha256(Bytes(55, 0))),
            "02779466cdec163811d078815c633f21901413081449002f24aa3e80f0b88ef7");
  EXPECT_EQ(to_hex(sha256(Bytes(56, 0))),
            "d4817aa5497628e7c77e6b606107042bbba3130888c5f47a375e6179be789fbb");
  EXPECT_EQ(to_hex(sha256(Bytes(64, 0))),
            "f5a5fd42d16a20302798ef6ed309979b43003d2320d9f0e8ea9831a92759fb4b");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes data = ascii("the quick brown fox jumps over the lazy dog");
  for (std::size_t cut = 0; cut <= data.size(); ++cut) {
    Sha256 ctx;
    ctx.update(std::span<const std::uint8_t>(data.data(), cut));
    ctx.update(std::span<const std::uint8_t>(data.data() + cut,
                                             data.size() - cut));
    EXPECT_EQ(ctx.finish(), sha256(data)) << "cut=" << cut;
  }
}

// finish() pads in one step; feeding the same bytes one update() at a time
// must give the same digest at every length, across both padding branches
// (room for the length in the last block, or one extra block).
TEST(Sha256, PaddingMatchesByteAtATimeAtEveryLength) {
  Bytes data(200);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  Sha256 all;
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const std::span<const std::uint8_t> msg(data.data(), len);
    Sha256 bytewise;
    for (const std::uint8_t b : msg) {
      bytewise.update(std::span<const std::uint8_t>(&b, 1));
    }
    const Digest d = sha256(msg);
    EXPECT_EQ(bytewise.finish(), d) << "len=" << len;
    all.update(std::span<const std::uint8_t>(d.data(), d.size()));
  }
  // Digest of the 201 digests above, pinned to the value of the earlier
  // finish() that padded through update() one byte at a time.
  EXPECT_EQ(to_hex(all.finish()),
            "f9be27f65ce096e9153691cee0f5949b0e477b1afb72e8fa01644e3860e834c5");
}

TEST(Sha256, ResetReusesContext) {
  Sha256 ctx;
  ctx.update(ascii("abc"));
  (void)ctx.finish();
  ctx.reset();
  ctx.update(ascii("abc"));
  EXPECT_EQ(to_hex(ctx.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, DistinctInputsDistinctDigests) {
  // Smoke-level collision check over small structured inputs.
  std::set<Digest> seen;
  for (int i = 0; i < 2000; ++i) {
    Bytes m{static_cast<std::uint8_t>(i & 0xFF),
            static_cast<std::uint8_t>(i >> 8)};
    EXPECT_TRUE(seen.insert(sha256(m)).second) << i;
  }
}

}  // namespace
}  // namespace coca::crypto

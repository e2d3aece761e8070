// Microbenchmarks (google-benchmark) for every substrate: SHA-256, Merkle
// build/verify, Reed-Solomon encode/decode and its GF(2^16) axpy,
// Bitstring/BigNat kernels, the round engine's per-slice cost, and the BA
// building blocks on the simulator.
#include <benchmark/benchmark.h>

#include <memory>
#include <span>

#include "ba/long_ba_plus.h"
#include "ba/phase_king.h"
#include "ba/turpin_coan.h"
#include "codec/reed_solomon.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "net/sync_network.h"
#include "util/rng.h"
#include "util/wire.h"

namespace {

using namespace coca;

void BM_Sha256(benchmark::State& state) {
  Rng rng(1);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
// 1, 33 and 65 bytes are the Merkle tree's hash inputs (the tag byte, a
// leaf digest, a node's two children): there finish() is most of the cost.
BENCHMARK(BM_Sha256)
    ->Arg(1)
    ->Arg(33)
    ->Arg(64)
    ->Arg(65)
    ->Arg(1024)
    ->Arg(64 * 1024)
    ->Arg(1024 * 1024);

void BM_MerkleBuild(benchmark::State& state) {
  Rng rng(2);
  std::vector<Bytes> leaves;
  for (int i = 0; i < state.range(0); ++i) {
    leaves.push_back(rng.bytes(static_cast<std::size_t>(state.range(1))));
  }
  const std::vector<std::span<const std::uint8_t>> views(leaves.begin(),
                                                         leaves.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::MerkleTree::build_views(views));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * state.range(1));
}
// (leaves, leaf bytes). (7, 104860) is lBA+'s build on piz_wide_input:
// seven ~100 KiB Reed-Solomon shares.
BENCHMARK(BM_MerkleBuild)
    ->Args({8, 128})
    ->Args({32, 128})
    ->Args({128, 128})
    ->Args({1024, 128})
    ->Args({7, 104860});

// Every witness of one tree through one verifier: what each party of
// lBA+'s distribute step does against the agreed root.
void BM_MerkleVerifyAll(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  std::vector<Bytes> leaves;
  for (std::size_t i = 0; i < n; ++i) leaves.push_back(rng.bytes(128));
  const std::vector<std::span<const std::uint8_t>> views(leaves.begin(),
                                                         leaves.end());
  const auto tree = crypto::MerkleTree::build_views(views);
  std::vector<crypto::MerkleWitness> witnesses;
  for (std::size_t i = 0; i < n; ++i) witnesses.push_back(tree.witness(i));
  for (auto _ : state) {
    crypto::MerkleRootVerifier verifier(tree.root(), n);
    for (std::size_t i = 0; i < n; ++i) {
      if (!verifier.verify(i, leaves[i], witnesses[i])) {
        state.SkipWithError("honest witness rejected");
        return;
      }
    }
  }
}
BENCHMARK(BM_MerkleVerifyAll)->Arg(7)->Arg(31);

void BM_RSEncode(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int t = (n - 1) / 3;
  const codec::ReedSolomon rs(static_cast<std::size_t>(n),
                              static_cast<std::size_t>(n - t));
  Rng rng(4);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(1)));
  const std::size_t coded_size = rs.n() * rs.share_size(data.size());
  const auto coded = std::make_unique_for_overwrite<std::uint8_t[]>(coded_size);
  for (auto _ : state) {
    rs.encode(data, {coded.get(), coded_size});
    benchmark::DoNotOptimize(coded.get());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(1));
}
// (7, 524296) is lBA+'s encode on piz_wide_input: n = 7 (k = 5) and a
// 2^22-bit value plus its 8-byte length prefix.
BENCHMARK(BM_RSEncode)
    ->Args({10, 4096})
    ->Args({10, 65536})
    ->Args({31, 65536})
    ->Args({100, 65536})
    ->Args({7, 524296});

// The raw GF(2^16) axpy (dst ^= c * src) as encode and decode run it, on
// whichever loop this host dispatches to; 104 KiB is about one share of
// the (7, 524296) encode above.
void BM_GF16Axpy(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  const Bytes src = rng.bytes(bytes);
  Bytes dst = rng.bytes(bytes);
  const codec::MulBy by_c(codec::GF16::instance(), 0x8E2B);
  for (auto _ : state) {
    by_c.axpy_be(dst.data(), src.data(), bytes);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_GF16Axpy)->Arg(4 * 1024)->Arg(104 * 1024);

void BM_RSDecode(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int t = (n - 1) / 3;
  const std::size_t k = static_cast<std::size_t>(n - t);
  const codec::ReedSolomon rs(static_cast<std::size_t>(n), k);
  Rng rng(5);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(1)));
  const std::size_t ssize = rs.share_size(data.size());
  Bytes coded(rs.n() * ssize);
  rs.encode(data, coded);
  // Decode from the non-systematic tail to force real interpolation.
  std::vector<codec::ShareView> pool;
  for (std::size_t i = static_cast<std::size_t>(n) - k;
       i < static_cast<std::size_t>(n); ++i) {
    pool.push_back({i, std::span<const std::uint8_t>(coded).subspan(
                           i * ssize, ssize)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.decode(pool, data.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(1));
}
BENCHMARK(BM_RSDecode)->Args({10, 65536})->Args({31, 65536});

void BM_BitstringSubstr(benchmark::State& state) {
  Rng rng(6);
  const Bitstring b = rng.bits(static_cast<std::size_t>(state.range(0)));
  std::size_t pos = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.substr(pos, b.size() / 2));
    pos = (pos * 7 + 1) % (b.size() / 2);
  }
}
BENCHMARK(BM_BitstringSubstr)->Arg(1 << 14)->Arg(1 << 20);

void BM_BitstringNumericCompare(benchmark::State& state) {
  Rng rng(7);
  const Bitstring a = rng.bits(static_cast<std::size_t>(state.range(0)));
  Bitstring b = a;
  b.set_bit(b.size() - 1, !b.bit(b.size() - 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Bitstring::numeric_compare(a, b));
  }
}
BENCHMARK(BM_BitstringNumericCompare)->Arg(1 << 14)->Arg(1 << 20);

void BM_BigNatMul(benchmark::State& state) {
  Rng rng(8);
  const BigNat a = rng.nat_below_pow2(static_cast<std::size_t>(state.range(0)));
  const BigNat b = rng.nat_below_pow2(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_BigNatMul)->Arg(256)->Arg(4096)->Arg(65536);

void BM_BigNatToBits(benchmark::State& state) {
  Rng rng(9);
  const BigNat a = rng.nat_below_pow2(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.to_bits(static_cast<std::size_t>(state.range(0))));
  }
}
BENCHMARK(BM_BigNatToBits)->Arg(4096)->Arg(65536);

// The l-term value operations at l = 2^22 (the wide-input regime), each at
// a bit offset that is not a byte boundary, so they take the 64-bit shift
// path rather than memcpy.
constexpr std::size_t kWideEll = std::size_t{1} << 22;
constexpr std::size_t kOddBits = 3;

void BM_WideMinMaxFill(benchmark::State& state) {
  Rng rng(10);
  const Bitstring prefix = rng.bits(kWideEll / 2 + kOddBits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Bitstring::min_fill(prefix, kWideEll));
    benchmark::DoNotOptimize(Bitstring::max_fill(prefix, kWideEll));
  }
}
BENCHMARK(BM_WideMinMaxFill)->Unit(benchmark::kMicrosecond);

void BM_WideSubstr(benchmark::State& state) {
  Rng rng(11);
  const Bitstring b = rng.bits(kWideEll + kOddBits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.substr(kOddBits, kWideEll));
  }
}
BENCHMARK(BM_WideSubstr)->Unit(benchmark::kMicrosecond);

// FindPrefixBlocks's first lBA+ input at l = 2^22: the wire form of a
// half-value window written straight from the value, at an odd offset.
void BM_WideWindowWire(benchmark::State& state) {
  Rng rng(14);
  const Bitstring b = rng.bits(kWideEll + kOddBits);
  for (auto _ : state) {
    Writer w;
    w.bitstring(b, kOddBits, kWideEll / 2);
    benchmark::DoNotOptimize(std::move(w).take());
  }
}
BENCHMARK(BM_WideWindowWire)->Unit(benchmark::kMicrosecond);

void BM_WideToBits(benchmark::State& state) {
  Rng rng(12);
  const BigNat a = rng.nat_below_pow2(kWideEll - kOddBits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.to_bits(kWideEll - kOddBits));
  }
}
BENCHMARK(BM_WideToBits)->Unit(benchmark::kMicrosecond);

void BM_WideFromBits(benchmark::State& state) {
  Rng rng(13);
  const Bitstring bits = rng.bits(kWideEll - kOddBits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigNat::from_bits(bits));
  }
}
BENCHMARK(BM_WideFromBits)->Unit(benchmark::kMicrosecond);

// The round engine's fixed cost: n parties that only call advance(), so a
// slice is two fiber switches plus the controller's per-round share.
// per_slice = wall time / (n * rounds), fiber-stack setup included.
void BM_EngineSlice(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  constexpr int kRounds = 1000;
  for (auto _ : state) {
    net::SyncNetwork net(n, (n - 1) / 3);
    for (int id = 0; id < n; ++id) {
      net.set_honest(id, [](net::PartyContext& ctx) {
        for (int r = 0; r < kRounds; ++r) (void)ctx.advance();
      });
    }
    benchmark::DoNotOptimize(net.run());
  }
  state.counters["per_slice"] = benchmark::Counter(
      static_cast<double>(n) * kRounds,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_EngineSlice)->Arg(4)->Arg(31)->Unit(benchmark::kMicrosecond);

// The round engine's per-message cost on all-to-all traffic: every party
// send_alls a 1-byte (inline) and a 64-byte (shared) payload each round,
// the shape of Phase-King and BA+ rounds. per_message = wall time /
// (2 n^2 * rounds): staging, metering, delivery and the slices.
void BM_EngineBroadcastRound(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  constexpr int kRounds = 200;
  for (auto _ : state) {
    net::SyncNetwork net(n, (n - 1) / 3);
    for (int id = 0; id < n; ++id) {
      net.set_honest(id, [id](net::PartyContext& ctx) {
        const auto tag = static_cast<std::uint8_t>(id);
        const net::Payload wide(Bytes(64, tag));
        for (int r = 0; r < kRounds; ++r) {
          ctx.send_all(net::Payload::inline_of({tag}));
          ctx.send_all(wide);
          benchmark::DoNotOptimize(ctx.advance());
        }
      });
    }
    benchmark::DoNotOptimize(net.run());
  }
  state.counters["per_message"] = benchmark::Counter(
      2.0 * n * n * kRounds, benchmark::Counter::kIsIterationInvariantRate |
                                 benchmark::Counter::kInvert);
}
BENCHMARK(BM_EngineBroadcastRound)->Arg(7)->Arg(31)->Unit(
    benchmark::kMicrosecond);

// The round engine's per-run fixed cost: n parties that return without
// advancing, so a run is building and tearing down its runners (fiber
// stack, first frame, one switch in and out each) and nothing else.
// per_runner = wall time / n.
void BM_EngineRunSetup(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    net::SyncNetwork net(n, (n - 1) / 3);
    for (int id = 0; id < n; ++id) {
      net.set_honest(id, [](net::PartyContext&) {});
    }
    benchmark::DoNotOptimize(net.run());
  }
  state.counters["per_runner"] = benchmark::Counter(
      static_cast<double>(n), benchmark::Counter::kIsIterationInvariantRate |
                                  benchmark::Counter::kInvert);
}
BENCHMARK(BM_EngineRunSetup)->Arg(4)->Arg(7)->Arg(31)->Unit(
    benchmark::kMicrosecond);

// Whole-protocol building blocks on the simulator (wall time of a full
// lock-step run, fiber switches included).
void BM_PhaseKingBinary(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int t = (n - 1) / 3;
  const ba::PhaseKingBinary ba;
  for (auto _ : state) {
    net::SyncNetwork net(n, t);
    for (int id = 0; id < n; ++id) {
      net.set_honest(id, [&ba, id](net::PartyContext& ctx) {
        benchmark::DoNotOptimize(ba.run(ctx, id % 2 == 0));
      });
    }
    benchmark::DoNotOptimize(net.run());
  }
}
BENCHMARK(BM_PhaseKingBinary)->Arg(4)->Arg(10)->Arg(31)->Unit(benchmark::kMillisecond);

void BM_LongBAPlus64K(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int t = (n - 1) / 3;
  const ba::PhaseKingBinary bin;
  const ba::TurpinCoan tc(bin);
  const ba::BAKit kit{&bin, &tc};
  const ba::LongBAPlus lba(kit);
  Rng rng(10);
  const Bytes value = rng.bytes(64 * 1024);
  for (auto _ : state) {
    net::SyncNetwork net(n, t);
    for (int id = 0; id < n; ++id) {
      net.set_honest(id, [&](net::PartyContext& ctx) {
        benchmark::DoNotOptimize(lba.run(ctx, value));
      });
    }
    benchmark::DoNotOptimize(net.run());
  }
}
BENCHMARK(BM_LongBAPlus64K)->Arg(4)->Arg(10)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

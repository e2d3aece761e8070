// Kernel-batch counters, kept only because the benchmark (perfbench/) still
// reads EngineReport::kernel_batch. The engine no longer batches kernels
// across instances, so every field always reads zero. The struct goes with
// the next change to the benchmark.
#pragma once

#include <cstdint>

namespace coca::engine {

struct KernelBatchStats {
  std::uint64_t flushes = 0;
  std::uint64_t rs_calls = 0;
  std::uint64_t merkle_calls = 0;

  KernelBatchStats& operator+=(const KernelBatchStats& o) {
    flushes += o.flushes;
    rs_calls += o.rs_calls;
    merkle_calls += o.merkle_calls;
    return *this;
  }
};

}  // namespace coca::engine

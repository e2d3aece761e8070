// The benchmark's workloads: seeded input pools, reference executions, and
// one timed unit of work per call.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "engine/kernel_batch.h"

namespace perfbench {

/// How a unit executes.
enum class Mode {
  kTimed,   // the workload's own entry point, untraced (end-to-end runs)
  kSerial,  // one instance per unit through adv::execute_case, untraced
  kTraced,  // kSerial with a timing obs::Tracer attached
  kParallel,  // sharded workload only: the same batch at nproc - 1 workers
};

/// What one pass over units observed. Counters are deltas over the pass.
struct PassResult {
  std::uint64_t units = 0;
  std::uint64_t instances = 0;  // attempted agreement instances
  std::uint64_t failed = 0;     // instances that failed a check
  std::vector<std::string> failures;  // first few reasons
  std::vector<double> unit_ms;        // latency sample per unit
  std::uint64_t instance_ns = 0;      // summed wall of serial instances
  std::uint64_t loop_ns = 0;          // wall of the whole pass
  std::vector<std::uint64_t> round_gaps_ns;

  // Wire (svc) counters.
  std::uint64_t sessions = 0;
  std::uint64_t faulted_sessions = 0;
  std::uint64_t routed_rounds = 0;
  std::vector<std::uint64_t> route_ns;
  std::vector<std::uint64_t> recovery_ns;
  std::uint64_t frames = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t wire_copies = 0;
  std::uint64_t slab_allocs = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t replayed_rounds = 0;

  // Engine counters.
  coca::engine::KernelBatchStats kernel_batch;
  std::uint64_t lane_events = 0;

  // Traced passes.
  Attribution attribution;
  std::unique_ptr<coca::obs::Tracer> last_trace;

  void fail(const std::string& why);
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the input pool from the seed, runs every case once on the
  /// simulator as the reference (oracle verdict, exact meters, pinned
  /// values), starts any transport, and warms up with one cycle, recorded
  /// into `warmup`.
  virtual void setup(PassResult& warmup) = 0;
  /// Units in one cycle over the pool, in `mode`.
  virtual std::size_t units_per_cycle(Mode mode) const = 0;
  /// Runs unit `index` (taken modulo the cycle) and records it into `r`.
  virtual void run_unit(std::size_t index, Mode mode, PassResult& r) = 0;
  /// Exact meters of every pool instance, from the reference runs.
  virtual const std::vector<Meters>& meters() const = 0;
  /// Fixed parameters, for the report.
  virtual std::string describe() const = 0;
  /// The tail percentile reported as instance_ms_tail: fixed per workload
  /// so that it is comparable across runs, chosen to leave at least ten
  /// samples beyond it in a run of the default length (a shorter run
  /// reports a lower percentile instead).
  virtual double tail_percentile() const = 0;
  /// Worker threads of Mode::kParallel (sharded workload only).
  virtual int parallel_workers() const { return 1; }
  /// True when pinned meters exist for this workload and seed (and were
  /// checked against the reference runs).
  virtual bool pinned() const = 0;
};

const std::vector<std::string>& workload_names();

/// The pin-file form of a pool's meters: "<instances> <sum of rounds>
/// <sum of honest bits> <FNV-1a 64 of every instance's (rounds, honest
/// bits) in pool order, hex>".
std::string pin_line(const std::vector<Meters>& meters);
std::unique_ptr<Workload> make_workload(const Config& config);

}  // namespace perfbench

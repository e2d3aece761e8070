// Shared types of the coca benchmark binary (coca_perfbench).
//
// The benchmark measures the library from outside: it times calls into the
// public entry points (adv::execute_case, engine::Engine::run, svc
// sessions), observes delivered rounds through a net::RoundObserver, times
// every wire round through a wrapping net::RoundRouter, and reads the
// counters the layers already expose. Nothing here reaches into src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/round_router.h"
#include "net/sync_network.h"
#include "obs/obs.h"
#include "svc/client.h"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Command-line settings of one benchmark invocation.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Minimal sizes and a fixed single pass per phase (the self-check).
  bool quick = false;
  /// Directory for the UDS socket and the Perfetto export (relative paths
  /// keep the socket path short).
  std::string out_dir = ".";
  /// Pinned pool meters (perfbench/pinned_meters.txt); empty = none.
  std::string pinned_path;
};

/// The paper's exact meters of one execution. Schedule- and
/// transport-independent: every execution of one case must reproduce them.
struct Meters {
  std::uint64_t rounds = 0;
  std::uint64_t honest_bytes = 0;
  std::uint64_t honest_messages = 0;
  std::uint64_t payload_copies = 0;
  std::map<std::string, std::uint64_t> phase_bytes;  // leaf-charged

  static Meters of(const coca::net::RunStats& s) {
    return {s.rounds, s.honest_bytes, s.honest_messages, s.payload_copies,
            s.phase_breakdown};
  }
  bool operator==(const Meters&) const = default;
};

/// Interval between consecutive delivered rounds of one instance.
class RoundClock final : public coca::net::RoundObserver {
 public:
  /// Starts a new instance: the first round's interval runs from here.
  void start() { last_ns_ = now_ns(); }
  void on_round(std::size_t, std::uint64_t, std::uint64_t) override {
    const std::uint64_t t = now_ns();
    gaps_ns.push_back(t - last_ns_);
    last_ns_ = t;
  }
  std::vector<std::uint64_t> gaps_ns;

 private:
  std::uint64_t last_ns_ = 0;
};

/// Wraps a wire session: times every route() call and classifies the calls
/// during which the client lost its connection as recoveries.
class TimedRouter final : public coca::net::RoundRouter {
 public:
  TimedRouter(coca::net::RoundRouter& inner,
              const coca::svc::ClientStats& stats)
      : inner_(inner), stats_(stats) {}

  std::optional<std::vector<coca::net::WireMessage>> route(
      std::size_t round,
      std::vector<coca::net::WireMessage> staged) override {
    const std::uint64_t outages = stats_.outages.load();
    const std::uint64_t t0 = now_ns();
    auto out = inner_.route(round, std::move(staged));
    const std::uint64_t dt = now_ns() - t0;
    total_ns += dt;
    ++routed;
    if (stats_.outages.load() != outages) {
      recovery_ns.push_back(dt);
    } else {
      route_ns.push_back(dt);
    }
    return out;
  }
  std::string failure_reason() const override {
    return inner_.failure_reason();
  }

  std::uint64_t total_ns = 0;
  std::uint64_t routed = 0;
  std::vector<std::uint64_t> route_ns;     // steady rounds
  std::vector<std::uint64_t> recovery_ns;  // rounds that spanned an outage

 private:
  coca::net::RoundRouter& inner_;
  const coca::svc::ClientStats& stats_;
};

/// Per-layer time of traced executions, in ns summed over instances. The
/// buckets partition the traced wall time exactly (see attribution.cpp).
struct Attribution {
  std::uint64_t instances = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t rounds_ns = 0;      // engine-track round spans
  std::uint64_t slices_ns = 0;      // party slice spans
  std::uint64_t route_ns = 0;       // wire route() calls (inside rounds)
  std::uint64_t handshake_ns = 0;   // wire session open/close (outside)
  std::uint64_t controller_ns = 0;  // rounds - slices - route
  std::uint64_t other_ns = 0;       // wall - rounds - handshake
  std::uint64_t slices = 0;         // slice span count
  /// Slice time by innermost span: leaf phase name, "(none)" outside any
  /// phase; kernel spans are charged to `kernel_ns` instead.
  std::map<std::string, std::uint64_t> phase_self_ns;
  /// Outermost kernel span name -> {calls, ns}.
  std::map<std::string, std::uint64_t> kernel_calls;
  std::map<std::string, std::uint64_t> kernel_ns;
  /// Every check of the partition held (nesting, slice sums, no negative
  /// remainder).
  bool exact = true;
  std::string problem;

  std::uint64_t kernels_total_ns() const;
  std::uint64_t phases_total_ns() const;
  /// Sum of every bucket; equals wall_ns when exact.
  std::uint64_t bucket_sum_ns() const;
};

/// Adds one traced execution to `into`. `wall_ns` is the benchmark's own
/// timing of the call; `route_ns`/`handshake_ns` come from the TimedRouter
/// and the session open/close timing (0 off the wire).
void attribute(const coca::obs::Tracer& tracer, std::uint64_t wall_ns,
               std::uint64_t route_ns, std::uint64_t handshake_ns,
               Attribution& into);

}  // namespace perfbench

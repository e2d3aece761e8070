// Workload definitions. Every input -- protocol inputs, corrupted parties,
// mutator streams, crash windows, wire-fault schedules -- is drawn from the
// benchmark seed, so one seed names one exact set of executions.
#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "adversary/spec.h"
#include "ca/convex_agreement.h"
#include "ca/driver.h"
#include "engine/engine.h"
#include "net/buffer_pool.h"
#include "net/payload.h"
#include "svc/server.h"
#include "util/rng.h"

namespace perfbench {

using coca::Rng;
namespace adv = coca::adv;
namespace net = coca::net;
namespace svc = coca::svc;

void PassResult::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

namespace {

std::uint64_t name_hash(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : s) {
    h = (h ^ static_cast<std::uint8_t>(ch)) * 0x100000001b3ULL;
  }
  return h;
}

adv::FuzzCase make_case(const std::string& protocol, int n, int t,
                        std::size_t ell, Rng& rng) {
  adv::FuzzCase c;
  c.protocol = protocol;
  c.n = n;
  c.t = t;
  c.ell = ell;
  c.input_seed = rng.next_u64();
  c.mutation.seed = rng.next_u64();
  c.threads = 1;  // the serial fiber schedule, whatever the environment
  return c;
}

/// Corrupts `count` distinct parties (Mutator-wrapped byzantine).
void corrupt(adv::FuzzCase& c, int count, Rng& rng) {
  std::set<int> ids;
  while (static_cast<int>(ids.size()) < count) {
    ids.insert(static_cast<int>(rng.below(static_cast<std::uint64_t>(c.n))));
  }
  c.corrupted.assign(ids.begin(), ids.end());
}

/// Crash-recovery windows for `count` distinct parties within the first
/// `horizon` rounds.
void crash_recover(adv::FuzzCase& c, int count, std::size_t horizon,
                   Rng& rng) {
  std::set<int> ids;
  while (static_cast<int>(ids.size()) < count) {
    ids.insert(static_cast<int>(rng.below(static_cast<std::uint64_t>(c.n))));
  }
  for (const int id : ids) {
    net::FaultPlan::Crash cr;
    cr.party = id;
    cr.from_round = rng.below(horizon);
    cr.until_round = cr.from_round + 1 + rng.below(horizon);
    c.faults.crashes.push_back(cr);
  }
}

/// Pinned meters of one pool: line "<key> <seed> <line>" of the pin file,
/// where <line> is pin_line() of the pool; empty when the seed is absent.
std::string load_pin(const std::string& path, const std::string& key,
                     std::uint64_t seed) {
  if (path.empty()) return "";
  std::ifstream in(path);
  if (!in) throw coca::Error("perfbench: cannot read " + path);
  const std::string prefix = key + " " + std::to_string(seed) + " ";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) return line.substr(prefix.size());
  }
  return "";
}

std::string first_violation(const adv::FuzzOutcome& out) {
  if (!out.verdict.ok()) return "oracle: " + out.verdict.violations.front();
  return "";
}

/// A Pi_Z instance with benchmark-chosen inputs: every honest input has
/// exactly `ell` bits, so every instance pays the full l-bit path.
struct PizCase {
  int n = 0;
  int t = 0;
  std::vector<coca::BigInt> inputs;          // by party id
  std::vector<coca::ca::Corruption> corruptions;
  coca::BigInt low;                          // adversarial inputs
  coca::BigInt high;
};

/// One pool entry: a fuzz case (adv::execute_case, the engine and the
/// wire) or a Pi_Z case run directly on a net::SyncNetwork.
struct Case {
  adv::FuzzCase fuzz;
  std::shared_ptr<const PizCase> piz;
  int n() const { return piz ? piz->n : fuzz.n; }
  int t() const { return piz ? piz->t : fuzz.t; }
  std::string label() const { return piz ? "PiZ" : fuzz.protocol; }
};

/// Pi_Z on the serial fiber schedule with the given hooks installed; the
/// corruption installer and the oracle are the ones ca::run_simulation uses
/// (which takes no round observer, hence this thin twin).
adv::FuzzOutcome run_piz(const PizCase& c, const adv::ExecHooks& hooks) {
  static const coca::ca::ConvexAgreement protocol;
  net::SyncNetwork net(c.n, c.t);
  net.set_exec_policy(net::ExecPolicy::serial());
  if (hooks.transcript != nullptr) net.set_transcript(hooks.transcript);
  if (hooks.tracer != nullptr) net.set_tracer(hooks.tracer);
  if (hooks.observer != nullptr) net.set_round_observer(hooks.observer);
  if (hooks.router != nullptr) net.set_round_router(hooks.router);
  const auto with_input = [](const coca::BigInt& input) {
    return [&input](net::PartyContext& ctx) { (void)protocol.run(ctx, input); };
  };
  adv::ProtocolHooks ph{with_input(c.low), with_input(c.high)};
  coca::ca::SimResult result;
  result.outputs.resize(static_cast<std::size_t>(c.n));
  std::vector<bool> corrupted(static_cast<std::size_t>(c.n), false);
  for (const auto& cor : c.corruptions) {
    corrupted[static_cast<std::size_t>(cor.id)] = true;
    adv::install(net, cor.id, cor.kind, ph);
  }
  for (int id = 0; id < c.n; ++id) {
    if (corrupted[static_cast<std::size_t>(id)]) continue;
    auto* slot = &result.outputs[static_cast<std::size_t>(id)];
    const coca::BigInt* input = &c.inputs[static_cast<std::size_t>(id)];
    net.set_honest(id, [slot, input](net::PartyContext& ctx) {
      *slot = protocol.run(ctx, *input);
    });
  }
  adv::FuzzOutcome out;
  try {
    out.stats = net.run(100'000);
    out.terminated = true;
  } catch (const std::exception& e) {
    out.failure = e.what();
    out.verdict.violations.push_back("crash: " + out.failure);
    return out;
  }
  for (int id = 0; id < c.n; ++id) {
    if (!corrupted[static_cast<std::size_t>(id)] &&
        !result.outputs[static_cast<std::size_t>(id)]) {
      out.verdict.violations.push_back("termination: honest party without "
                                       "output");
    }
  }
  if (!result.agreement()) {
    out.verdict.violations.push_back("agreement: honest outputs disagree");
  }
  if (!result.convex_validity(c.inputs)) {
    out.verdict.violations.push_back("validity: output outside the honest "
                                     "inputs' hull");
  }
  return out;
}

/// A Pi_Z case whose honest inputs are drawn uniformly among the numbers of
/// exactly `ell` bits; the adversarial inputs are the extremes of that
/// range.
std::shared_ptr<PizCase> make_piz(int n, int t, std::size_t ell, Rng& rng) {
  auto pc = std::make_shared<PizCase>();
  pc->n = n;
  pc->t = t;
  const coca::BigNat top = coca::BigNat::pow2(ell - 1);
  for (int id = 0; id < n; ++id) {
    pc->inputs.emplace_back(top + rng.nat_below_pow2(ell - 1), false);
  }
  pc->low = coca::BigInt(top, false);
  pc->high = coca::BigInt(coca::BigNat::max_with_bits(ell), false);
  return pc;
}

adv::FuzzOutcome execute(const Case& c, const adv::ExecHooks& hooks) {
  return c.piz ? run_piz(*c.piz, hooks) : adv::execute_case(c.fuzz, hooks);
}

/// Reference executions shared by both workload kinds.
class PoolBase : public Workload {
 public:
  PoolBase(const Config& config, std::string key, std::vector<Case> cases)
      : config_(config), key_(std::move(key)), cases_(std::move(cases)) {}

  const std::vector<Meters>& meters() const override { return meters_; }
  bool pinned() const override { return pinned_; }

 protected:
  /// Runs every case once on the simulator and checks it against the
  /// oracle and the pinned values.
  void reference(bool keep_transcripts) {
    const std::string pin = load_pin(config_.pinned_path, key_, config_.seed);
    pinned_ = !pin.empty();
    meters_.clear();
    ref_ok_.clear();
    transcripts_.clear();
    for (std::size_t j = 0; j < cases_.size(); ++j) {
      net::Transcript tr;
      adv::ExecHooks hooks;
      if (keep_transcripts) hooks.transcript = &tr;
      const adv::FuzzOutcome out = execute(cases_[j], hooks);
      meters_.push_back(Meters::of(out.stats));
      ref_ok_.push_back(first_violation(out));
      transcripts_.push_back(std::move(tr));
    }
    if (pinned_ && pin_line(meters_) != pin) {
      // Which instance moved is not recorded; every one is suspect.
      for (std::string& why : ref_ok_) {
        if (why.empty()) why = "pool meters differ from the pinned values";
      }
    }
  }

  /// Checks one execution of case `j`; returns the failure reason or "".
  std::string check(std::size_t j, const adv::FuzzOutcome& out,
                    const net::Transcript* wire_transcript) const {
    if (!ref_ok_[j].empty()) return ref_ok_[j];
    std::string why = first_violation(out);
    if (!why.empty()) return why;
    if (Meters::of(out.stats) != meters_[j]) {
      return "meters differ from the reference run";
    }
    if (wire_transcript != nullptr && *wire_transcript != transcripts_[j]) {
      return "wire transcript differs from the simulator";
    }
    return "";
  }

  /// One untraced or traced execution of case `j` (no transport); returns
  /// its wall time in ns.
  std::uint64_t run_serial(std::size_t j, bool traced, PassResult& r) {
    adv::ExecHooks hooks;
    RoundClock clock;
    hooks.observer = &clock;
    std::unique_ptr<coca::obs::Tracer> tracer;
    if (traced) {
      tracer = std::make_unique<coca::obs::Tracer>();
      hooks.tracer = tracer.get();
    }
    clock.start();
    const std::uint64_t t0 = now_ns();
    const adv::FuzzOutcome out = execute(cases_[j], hooks);
    const std::uint64_t wall = now_ns() - t0;
    record(j, out, nullptr, wall, r);
    if (traced) {
      attribute(*tracer, wall, 0, 0, r.attribution);
      r.last_trace = std::move(tracer);
    } else {
      r.round_gaps_ns.insert(r.round_gaps_ns.end(), clock.gaps_ns.begin(),
                             clock.gaps_ns.end());
    }
    return wall;
  }

  void record(std::size_t j, const adv::FuzzOutcome& out,
              const net::Transcript* wire_transcript, std::uint64_t wall,
              PassResult& r) const {
    ++r.instances;
    r.instance_ns += wall;
    const std::string why = check(j, out, wire_transcript);
    if (!why.empty()) r.fail(cases_[j].label() + " #" + std::to_string(j) +
                             ": " + why);
  }

  Config config_;
  std::string key_;
  std::vector<Case> cases_;
  std::vector<Meters> meters_;
  std::vector<std::string> ref_ok_;  // "" = reference run passed
  std::vector<net::Transcript> transcripts_;
  bool pinned_ = false;
};

// ---------------------------------------------------------------------------
// Serial workloads: one instance at a time, optionally over the wire.

class SerialWorkload final : public PoolBase {
 public:
  /// `group` consecutive pool cases form one timed unit; its latency
  /// sample is the mean over the group.
  SerialWorkload(const Config& config, std::string key,
                 std::vector<Case> cases, std::string description, bool wire,
                 std::size_t group, double tail)
      : PoolBase(config, std::move(key), std::move(cases)),
        description_(std::move(description)),
        wire_(wire),
        group_(group),
        tail_(tail) {}

  ~SerialWorkload() override { drop_transport(); }

  void setup(PassResult& warmup) override {
    reference(wire_);
    // The reference runs warm the simulator path; the wire path warms its
    // connection and receive slabs with one cycle of sessions.
    if (!wire_) return;
    for (std::size_t u = 0; u < units_per_cycle(Mode::kTimed); ++u) {
      run_unit(u, Mode::kTimed, warmup);
    }
  }

  std::size_t units_per_cycle(Mode) const override {
    return cases_.size() / group_;
  }

  void run_unit(std::size_t index, Mode mode, PassResult& r) override {
    const std::size_t first = (index % units_per_cycle(mode)) * group_;
    const bool traced = mode == Mode::kTraced;
    std::uint64_t wall = 0;
    for (std::size_t j = first; j < first + group_; ++j) {
      wall += wire_ ? run_wire(j, traced, r) : run_serial(j, traced, r);
    }
    ++r.units;
    r.unit_ms.push_back(static_cast<double>(wall) / 1e6 /
                        static_cast<double>(group_));
  }

  std::string describe() const override { return description_; }
  double tail_percentile() const override { return tail_; }

 private:
  // Every kFaultEvery-th session carries one kill; the schedule is planned
  // per daemon for kSessionsPerDaemon sessions, after which a fresh daemon
  // and connection take over, so the plan stays short.
  static constexpr std::uint64_t kFaultEvery = 7;
  static constexpr std::uint64_t kSessionsPerDaemon = 128 * kFaultEvery;

  struct Transport {
    std::string path;
    std::unique_ptr<svc::Daemon> daemon;
    std::unique_ptr<svc::WireClient> client;
    std::uint64_t base = 0;  // global session index of ordinal 0
  };

  void drop_transport() {
    if (!transport_) return;
    transport_->client.reset();
    transport_->daemon->stop();
    transport_->daemon.reset();
    ::unlink(transport_->path.c_str());
    transport_.reset();
  }

  /// The kill planned for global session `g`, if any.
  bool planned_fault(std::uint64_t g, svc::WireFaultPlan::Entry* e) const {
    if (g % kFaultEvery != kFaultEvery - 1) return false;
    const std::uint64_t rounds = meters_[g % cases_.size()].rounds;
    if (rounds < 3) return false;
    const std::uint64_t h =
        Rng::derive_stream_seed(config_.seed ^ 0x3A11'F0F0ULL, g);
    e->kind = (h & 1) != 0 ? svc::WireFaultPlan::Kind::kKillBeforeFlush
                           : svc::WireFaultPlan::Kind::kClientKill;
    e->round = static_cast<std::uint32_t>(1 + (h >> 1) % (rounds - 2));
    return true;
  }

  void ensure_transport() {
    if (transport_ && session_ - transport_->base < kSessionsPerDaemon) {
      return;
    }
    drop_transport();
    auto tp = std::make_unique<Transport>();
    tp->base = session_;
    tp->path = config_.out_dir + "/pb-" + std::to_string(::getpid()) + "-" +
               std::to_string(daemons_++) + ".sock";
    ::unlink(tp->path.c_str());
    svc::DaemonOptions dopt;
    dopt.uds_path = tp->path;
    svc::ClientOptions copt;
    copt.round_timeout_ms = 20'000;
    copt.recovery.enabled = true;
    copt.recovery.max_attempts = 10;
    copt.recovery.backoff_initial_ms = 1;
    copt.recovery.backoff_max_ms = 20;
    for (std::uint64_t o = 0; o < kSessionsPerDaemon; ++o) {
      svc::WireFaultPlan::Entry e;
      if (!planned_fault(tp->base + o, &e)) continue;
      e.session = static_cast<std::int32_t>(o);
      if (svc::daemon_site(e.kind)) {
        dopt.fault_plan.entries.push_back(e);
      } else {
        copt.fault_plan.entries.push_back(e);
      }
    }
    tp->daemon = std::make_unique<svc::Daemon>(dopt);
    tp->daemon->start();
    tp->client = svc::WireClient::connect_uds_path(tp->path, copt);
    transport_ = std::move(tp);
  }

  /// One session of case `j` through the daemon; returns its wall time in
  /// ns, from open to close.
  std::uint64_t run_wire(std::size_t j, bool traced, PassResult& r) {
    ensure_transport();
    svc::WireClient& client = *transport_->client;
    const svc::DaemonStats& ds = transport_->daemon->stats();
    const svc::ClientStats& cs = client.stats();
    const std::uint64_t frames0 = ds.frames_received.load();
    const std::uint64_t bytes0 = ds.bytes_received.load();
    const std::uint64_t replayed0 = ds.replayed_rounds.load();
    const std::uint64_t reconnects0 = cs.reconnects.load();
    const std::uint64_t copies0 = net::PayloadMetrics::wire_copies();
    const std::uint64_t allocs0 = net::BufferPool::instance().stats().slab_allocs;
    svc::WireFaultPlan::Entry planned;
    const bool faulted = planned_fault(session_, &planned);
    ++session_;

    adv::ExecHooks hooks;
    RoundClock clock;
    hooks.observer = &clock;
    net::Transcript transcript;
    hooks.transcript = &transcript;
    std::unique_ptr<coca::obs::Tracer> tracer;
    if (traced) {
      tracer = std::make_unique<coca::obs::Tracer>();
      hooks.tracer = tracer.get();
    }
    const Case& c = cases_[j];
    adv::FuzzOutcome out;
    std::uint64_t handshake = 0;
    std::uint64_t routed_ns = 0;
    const std::uint64_t t0 = now_ns();
    try {
      auto session = client.open(c.n(), c.t());
      handshake += now_ns() - t0;
      TimedRouter timed(*session, cs);
      hooks.router = &timed;
      clock.start();
      out = execute(c, hooks);
      const std::uint64_t t_close = now_ns();
      session->close();
      session.reset();
      handshake += now_ns() - t_close;
      routed_ns = timed.total_ns;
      r.routed_rounds += timed.routed;
      r.route_ns.insert(r.route_ns.end(), timed.route_ns.begin(),
                        timed.route_ns.end());
      r.recovery_ns.insert(r.recovery_ns.end(), timed.recovery_ns.begin(),
                           timed.recovery_ns.end());
    } catch (const std::exception& e) {
      out.verdict.violations.push_back(std::string("transport: ") + e.what());
    }
    const std::uint64_t wall = now_ns() - t0;
    record(j, out, &transcript, wall, r);
    ++r.sessions;
    if (faulted) ++r.faulted_sessions;
    r.frames += ds.frames_received.load() - frames0;
    r.wire_bytes += ds.bytes_received.load() - bytes0;
    r.replayed_rounds += ds.replayed_rounds.load() - replayed0;
    r.reconnects += cs.reconnects.load() - reconnects0;
    r.wire_copies += net::PayloadMetrics::wire_copies() - copies0;
    r.slab_allocs +=
        net::BufferPool::instance().stats().slab_allocs - allocs0;
    if (traced) {
      attribute(*tracer, wall, routed_ns, handshake, r.attribution);
      r.last_trace = std::move(tracer);
    } else {
      r.round_gaps_ns.insert(r.round_gaps_ns.end(), clock.gaps_ns.begin(),
                             clock.gaps_ns.end());
    }
    return wall;
  }

  std::string description_;
  bool wire_;
  std::size_t group_;
  double tail_;
  std::unique_ptr<Transport> transport_;
  std::uint64_t session_ = 0;  // global session index
  int daemons_ = 0;
};

// ---------------------------------------------------------------------------
// The sharded workload: one batch of mixed instances per unit.

class ShardedWorkload final : public PoolBase {
 public:
  ShardedWorkload(const Config& config, std::string key,
                  std::vector<Case> cases, std::string description,
                  int workers)
      : PoolBase(config, std::move(key), std::move(cases)),
        description_(std::move(description)),
        workers_(workers) {
    for (const Case& c : cases_) batch_.push_back(c.fuzz);
  }

  void setup(PassResult& warmup) override {
    reference(false);
    run_unit(0, Mode::kTimed, warmup);
  }

  std::size_t units_per_cycle(Mode mode) const override {
    return mode == Mode::kTimed || mode == Mode::kParallel ? 1 : cases_.size();
  }

  void run_unit(std::size_t index, Mode mode, PassResult& r) override {
    if (mode == Mode::kSerial || mode == Mode::kTraced) {
      const std::uint64_t wall =
          run_serial(index % cases_.size(), mode == Mode::kTraced, r);
      ++r.units;
      r.unit_ms.push_back(static_cast<double>(wall) / 1e6);
      return;
    }
    coca::engine::EngineOptions opt;
    opt.workers = mode == Mode::kParallel ? workers_ : 1;
    opt.record_transcripts = false;
    coca::engine::Engine engine(opt);
    const std::uint64_t t0 = now_ns();
    const coca::engine::EngineReport rep = engine.run(batch_);
    const std::uint64_t wall = now_ns() - t0;
    ++r.units;
    r.instances += cases_.size();
    r.unit_ms.push_back(static_cast<double>(wall) / 1e6);
    r.kernel_batch += rep.kernel_batch;
    for (std::size_t j = 0; j < cases_.size(); ++j) {
      const auto& inst = rep.instances[j];
      r.lane_events += inst.rounds_streamed + 1;
      const std::string why = check(j, inst.outcome, nullptr);
      if (!why.empty()) {
        r.fail(cases_[j].label() + " #" + std::to_string(j) + ": " + why);
      }
    }
  }

  std::string describe() const override { return description_; }
  int parallel_workers() const override { return workers_; }
  double tail_percentile() const override { return 75.0; }

 private:
  std::string description_;
  int workers_;
  std::vector<adv::FuzzCase> batch_;  // the engine's input, in pool order
};

}  // namespace

std::string pin_line(const std::vector<Meters>& meters) {
  std::uint64_t rounds = 0;
  std::uint64_t bits = 0;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001b3ULL;
    }
  };
  for (const Meters& m : meters) {
    rounds += m.rounds;
    bits += m.honest_bytes * 8;
    mix(m.rounds);
    mix(m.honest_bytes * 8);
  }
  std::ostringstream os;
  os << meters.size() << " " << rounds << " " << bits << " " << std::hex << h;
  return os.str();
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "piz_wide_input", "piz_many_parties", "sharded_mixed", "wire_uds"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(const Config& config) {
  const std::string& w = config.workload;
  const bool q = config.quick;
  const std::string key = q ? w + "/quick" : w;
  Rng rng = Rng::stream(config.seed, name_hash(w));
  std::vector<Case> cases;
  std::ostringstream d;
  if (w == "piz_wide_input" || w == "piz_many_parties") {
    const bool wide = w == "piz_wide_input";
    const int n = wide ? 7 : (q ? 10 : 31);
    const int t = (n - 1) / 3;
    const std::size_t ell = wide ? (q ? 1u << 12 : 1u << 22)
                                 : (q ? 1u << 8 : 1u << 10);
    const std::size_t pool = q ? 2 : (wide ? 6 : 4);
    static const coca::adv::Kind kKinds[] = {coca::adv::Kind::kExtremeLow,
                                             coca::adv::Kind::kExtremeHigh,
                                             coca::adv::Kind::kSplitBrain};
    for (std::size_t i = 0; i < pool; ++i) {
      auto pc = make_piz(n, t, ell, rng);
      std::set<int> ids;
      while (static_cast<int>(ids.size()) < t) {
        ids.insert(static_cast<int>(rng.below(static_cast<std::uint64_t>(n))));
      }
      for (const int id : ids) {
        pc->corruptions.push_back({id, kKinds[rng.below(3)]});
      }
      Case c;
      c.piz = std::move(pc);
      cases.push_back(std::move(c));
    }
    d << "PiZ n=" << n << " t=" << t << ", honest inputs of exactly " << ell
      << " bits, " << t << " byzantine parties (extreme-low/extreme-high/"
      << "split-brain), pool of " << pool << " seeded instances, run serially";
    return std::make_unique<SerialWorkload>(config, key, std::move(cases),
                                            d.str(), false, 1,
                                            wide ? 90.0 : 75.0);
  }
  if (w == "wire_uds") {
    const int n = q ? 4 : 7;
    const int t = (n - 1) / 3;
    const std::size_t ell = q ? 64 : 256;
    // A unit is one honest session of each target in turn, and its latency
    // sample is their mean: per-session latency is a mixture of eight
    // protocol-sized clusters whose median jumps between clusters from seed
    // to seed. PiZ runs with exactly ell-bit inputs (as in the PiZ
    // workloads), since the fuzzer's random signs make it cheap or not by
    // seed.
    const auto& targets = adv::known_protocols();
    const std::size_t units = q ? 1 : 4;
    for (std::size_t u = 0; u < units; ++u) {
      for (const std::string& target : targets) {
        Case c;
        if (target == "PiZ") {
          c.piz = make_piz(n, t, ell, rng);
        } else {
          c.fuzz = make_case(target, n, t, ell, rng);
        }
        cases.push_back(std::move(c));
      }
    }
    d << "the 8 targets at n=" << n << " t=" << t << " ell=" << ell
      << ", honest; a unit is one session of each target in turn, pool of "
      << units << " units, sessions over one UDS connection to an "
         "in-process daemon, every 7th session killed once";
    return std::make_unique<SerialWorkload>(config, key, std::move(cases),
                                            d.str(), true, targets.size(),
                                            90.0);
  }
  if (w == "sharded_mixed") {
    const std::size_t k = q ? 16 : 96;
    // The timed batches run at one worker, which also exercises the lanes,
    // the collector and the kernel batcher. At nproc - 1 workers (the calling
    // thread is the collector) every vCPU is busy and the batch waits for its
    // slowest worker, so steal on a shared host spread batch times across
    // runs several times wider; those batches are run for the per-layer
    // parallel efficiency only.
    const int workers = std::max(
        1, static_cast<int>(std::thread::hardware_concurrency()) - 1);
    static const std::size_t kElls[] = {64, 256, 1024};
    const auto& targets = adv::known_protocols();
    for (std::size_t i = 0; i < k; ++i) {
      // Group g of 8 holds every target once; across the 12 groups each
      // (fault class, ell) pair occurs once, so the mix is the same for
      // every seed and only the drawn values differ.
      const std::size_t g = i / targets.size();
      const int n = (g / 4) % 2 == 0 ? 4 : 7;
      const int t = (n - 1) / 3;
      Case c;
      c.fuzz = make_case(targets[i % targets.size()], n, t, kElls[g % 3], rng);
      switch (g % 4) {
        case 0:
          corrupt(c.fuzz, t, rng);
          break;
        case 1:
          crash_recover(c.fuzz, t, 16, rng);
          break;
        default:
          break;
      }
      cases.push_back(std::move(c));
    }
    d << k << " instances of the 8 targets at n in {4,7}, ell in "
      << "{64,256,1024}; a quarter byzantine, a quarter crash-recovery at "
         "f=t; one batch per unit at 1 engine worker (timed) and at "
      << workers << " (per-layer efficiency)";
    return std::make_unique<ShardedWorkload>(config, key, std::move(cases),
                                             d.str(), workers);
  }
  throw coca::Error("perfbench: unknown workload '" + w + "'");
}

}  // namespace perfbench

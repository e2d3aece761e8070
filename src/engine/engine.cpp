#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "net/sync_network.h"
#include "util/rng.h"

namespace coca::engine {

namespace {

/// One instance's delivered rounds, installed as its net::RoundObserver.
/// Only the instance's worker appends; the calling thread reads the log
/// after joining that worker.
class RoundLog : public net::RoundObserver {
 public:
  void on_round(std::size_t round, std::uint64_t honest_bytes,
                std::uint64_t /*honest_messages*/) override {
    rounds.emplace_back(round, honest_bytes);
  }

  std::vector<std::pair<std::size_t, std::uint64_t>> rounds;
};

}  // namespace

Engine::Engine(EngineOptions options) : options_(std::move(options)) {
  require(options_.workers >= 1, "Engine: need workers >= 1");
}

EngineReport Engine::run(const std::vector<adv::FuzzCase>& cases) {
  const std::size_t kk = cases.size();
  const auto& known = adv::known_protocols();
  for (const adv::FuzzCase& c : cases) {
    adv::validate_case(c);
    if (std::find(known.begin(), known.end(), c.protocol) == known.end()) {
      throw Error("Engine: unknown protocol '" + c.protocol + "'");
    }
  }
  EngineReport report;
  report.instances.resize(kk);
  if (kk == 0) return report;
  const auto workers = std::min<std::size_t>(
      static_cast<std::size_t>(options_.workers), kk);

  std::vector<RoundLog> logs(kk);
  std::vector<std::unique_ptr<obs::Tracer>> tracers(kk);
  if (options_.trace) {
    for (auto& t : tracers) {
      t = std::make_unique<obs::Tracer>(obs::Tracer::Options{.timing = false});
    }
  }

  const auto t0 = std::chrono::steady_clock::now();

  // Workers: instance i runs on worker i % W, one instance after another,
  // each on its own private SyncNetwork. A worker touches only its own
  // instances' results and logs.
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t wi = 0; wi < workers; ++wi) {
    pool.emplace_back([&, wi]() {
      for (std::size_t i = wi; i < kk; i += workers) {
        InstanceResult& res = report.instances[i];
        res.worker = static_cast<int>(wi);
        adv::ExecHooks hooks;
        if (options_.record_transcripts) hooks.transcript = &res.transcript;
        if (tracers[i]) hooks.tracer = tracers[i].get();
        hooks.observer = &logs[i];
        try {
          res.outcome = adv::execute_case(cases[i], hooks);
        } catch (const std::exception& e) {
          // validate_case passed, so this is unexpected; surface it as a
          // verdict instead of tearing down the whole pool.
          res.outcome.failure = e.what();
          res.outcome.verdict.violations.push_back(
              std::string("crash: engine worker: ") + e.what());
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();

  report.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Fold in instance order 0..K-1. Every fold is a sum keyed by instance
  // or round, so the report is identical for any worker count.
  for (std::size_t i = 0; i < kk; ++i) {
    InstanceResult& res = report.instances[i];
    res.rounds_streamed = logs[i].rounds.size();
    for (const auto& [round, bytes] : logs[i].rounds) {
      if (report.honest_bytes_by_round.size() <= round) {
        report.honest_bytes_by_round.resize(round + 1, 0);
      }
      report.honest_bytes_by_round[round] += bytes;
    }
    report.honest_bytes += res.outcome.stats.honest_bytes;
    report.honest_messages += res.outcome.stats.honest_messages;
    report.rounds += res.outcome.stats.rounds;
  }
  if (options_.trace) {
    std::vector<const obs::Tracer*> ptrs;
    ptrs.reserve(kk);
    for (const auto& t : tracers) ptrs.push_back(t.get());
    report.metrics = obs::merged_metrics_over(ptrs);
  }
  return report;
}

// ---------------------------------------------------------------------------
// Cross-instance isolation.

IsolationReport check_isolation(const adv::FuzzCase& victim,
                                const ShardedCaseOptions& options) {
  require(options.instances >= 2, "check_isolation: need >= 2 instances");
  require(options.workers >= 1, "check_isolation: need >= 1 workers");
  adv::validate_case(victim);

  // Neighbors: honest twins of the victim (same protocol/n/t/ell, derived
  // input seeds, no corruption, no faults). The victim sits mid-pack so
  // neighbors come both before and after it in instance order.
  const std::size_t count = static_cast<std::size_t>(options.instances);
  const std::size_t victim_at = count / 2;
  std::vector<adv::FuzzCase> cases(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i == victim_at) {
      cases[i] = victim;
      continue;
    }
    adv::FuzzCase neighbor = victim;
    neighbor.corrupted.clear();
    neighbor.mutation = adv::MutatorConfig{};
    neighbor.mutation.seed =
        Rng::derive_stream_seed(options.neighbor_seed, 2 * i + 1);
    neighbor.faults = net::FaultPlan{};
    neighbor.input_seed = Rng::derive_stream_seed(options.neighbor_seed, 2 * i);
    cases[i] = std::move(neighbor);
  }

  // Solo baselines for every neighbor, each on its own single SyncNetwork.
  std::vector<adv::FuzzOutcome> solo(count);
  std::vector<net::Transcript> solo_tr(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i == victim_at) continue;
    solo[i] = adv::execute_case(cases[i], &solo_tr[i]);
  }

  EngineOptions eo;
  eo.workers = options.workers;
  const EngineReport sharded = Engine(eo).run(cases);

  IsolationReport report;
  report.victim = sharded.instances[victim_at].outcome.verdict;
  for (std::size_t i = 0; i < count; ++i) {
    if (i == victim_at) continue;
    const std::string who = "neighbor " + std::to_string(i);
    const InstanceResult& got = sharded.instances[i];
    if (!(got.transcript == solo_tr[i])) {
      report.violations.push_back("isolation: " + who +
                                  " transcript differs from its solo run");
    }
    const net::RunStats& a = got.outcome.stats;
    const net::RunStats& b = solo[i].stats;
    if (a.honest_bytes != b.honest_bytes ||
        a.honest_messages != b.honest_messages || a.rounds != b.rounds) {
      report.violations.push_back("isolation: " + who +
                                  " honest_bytes/messages/rounds differ");
    }
    if (a.phase_breakdown != b.phase_breakdown) {
      report.violations.push_back("isolation: " + who +
                                  " phase_breakdown differs");
    }
    if (got.outcome.verdict.violations != solo[i].verdict.violations) {
      report.violations.push_back("isolation: " + who +
                                  " oracle verdict differs");
    }
  }
  return report;
}

}  // namespace coca::engine

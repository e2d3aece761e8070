#include "svc/chaos.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "svc/client.h"
#include "svc/server.h"
#include "util/json.h"

namespace coca::svc {

namespace {

/// Per-process unique socket paths so concurrent harness threads (and
/// concurrent test binaries) never collide.
std::string unique_uds_path() {
  static std::atomic<std::uint64_t> counter{0};
  return "/tmp/coca-chaos-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed)) +
         ".sock";
}

void accumulate(ChaosStats& out, const DaemonStats& d) {
  out.daemon_injected_faults += d.injected_faults.load();
  out.daemon_reconnects += d.reconnects.load();
  out.daemon_resumed_sessions += d.resumed_sessions.load();
  out.daemon_replayed_rounds += d.replayed_rounds.load();
  out.daemon_replayed_bytes += d.replayed_bytes.load();
  out.daemon_heartbeats_missed += d.heartbeats_missed.load();
}

void accumulate(ChaosStats& out, const ClientStats& c) {
  out.client_outages += c.outages.load();
  out.client_reconnects += c.reconnects.load();
  out.client_reconnect_attempts += c.reconnect_attempts.load();
  out.client_resumed_sessions += c.resumed_sessions.load();
  out.client_replayed_rounds += c.replayed_rounds.load();
  out.client_injected_faults += c.injected_faults.load();
  out.client_heartbeats_missed += c.heartbeats_missed.load();
  out.client_recovery_ms += c.recovery_ms_total.load();
}

template <class T>
std::string pair_str(const char* what, const T& a, const T& b) {
  std::ostringstream os;
  os << what << ": plain=" << a << " wired=" << b;
  return os.str();
}

void compare_runs(const adv::FuzzOutcome& plain,
                  const net::Transcript& plain_tr,
                  const adv::FuzzOutcome& wired,
                  const net::Transcript& wire_tr, ChaosReport& rep) {
  const auto diff = [&](std::string what) {
    if (rep.mismatch.empty()) rep.mismatch = std::move(what);
  };
  const net::RunStats& a = plain.stats;
  const net::RunStats& b = wired.stats;
  if (plain.terminated != wired.terminated) {
    diff(pair_str("terminated", plain.terminated, wired.terminated));
  }
  if (a.rounds != b.rounds) diff(pair_str("rounds", a.rounds, b.rounds));
  if (a.honest_bytes != b.honest_bytes) {
    diff(pair_str("honest_bytes", a.honest_bytes, b.honest_bytes));
  }
  if (a.honest_messages != b.honest_messages) {
    diff(pair_str("honest_messages", a.honest_messages, b.honest_messages));
  }
  if (a.bytes_by_party != b.bytes_by_party) diff("bytes_by_party differ");
  if (a.phase_breakdown != b.phase_breakdown) diff("phase_breakdown differs");
  if (a.honest_bytes_by_phase != b.honest_bytes_by_phase) {
    diff("honest_bytes_by_phase differs");
  }
  // Recovery must add no counted copies: re-sends write the same payload
  // views, replay retention and redelivery are refcount bumps.
  if (a.payload_copies != b.payload_copies) {
    diff(pair_str("payload_copies", a.payload_copies, b.payload_copies));
  }
  if (plain.verdict.violations != wired.verdict.violations) {
    diff("oracle violations differ: wired has " +
         std::to_string(wired.verdict.violations.size()) + " (first: " +
         (wired.verdict.violations.empty() ? std::string("-")
                                           : wired.verdict.violations[0]) +
         "), plain has " + std::to_string(plain.verdict.violations.size()));
  }
  if (plain.outcomes.size() != wired.outcomes.size()) {
    diff(pair_str("outcome count", plain.outcomes.size(),
                  wired.outcomes.size()));
  } else {
    for (std::size_t i = 0; i < plain.outcomes.size(); ++i) {
      if (plain.outcomes[i].outcome != wired.outcomes[i].outcome) {
        diff("party " + std::to_string(i) + " outcome differs");
        break;
      }
    }
  }
  if (!(plain_tr == wire_tr)) diff("transcript differs");
  rep.identical = rep.mismatch.empty();
}

}  // namespace

ChaosReport run_case_under_wire_faults(const adv::FuzzCase& c,
                                       const ChaosOptions& opt) {
  opt.plan.validate();
  ChaosReport rep;

  // Fault-free baseline on the in-process network.
  net::Transcript plain_tr;
  rep.plain = adv::execute_case(c, &plain_tr);

  // Wired run: fresh single-use daemon + recovery-enabled client, both
  // holding the full plan (each site interprets only its own kinds).
  const std::string path = unique_uds_path();
  DaemonOptions dopt;
  dopt.uds_path = path;
  dopt.fault_plan = opt.plan;
  auto daemon = std::make_unique<Daemon>(dopt);
  daemon->start();

  // The fixed client policy of every wired run (see ChaosOptions).
  ClientOptions copt;
  copt.round_timeout_ms = 10'000;
  copt.recovery.enabled = true;
  copt.recovery.max_attempts = 10;
  copt.recovery.backoff_initial_ms = 1;
  copt.recovery.backoff_max_ms = 20;
  copt.recovery.heartbeat_interval_ms = opt.heartbeat_interval_ms;
  copt.recovery.heartbeat_misses = 3;
  copt.fault_plan = opt.plan;
  std::unique_ptr<WireClient> client =
      WireClient::connect_uds_path(path, copt);

  // Daemon-restart mode: once the client records an outage, tear the
  // daemon down completely (sessions, registry, socket file) and boot a
  // fresh, fault-free one on the same path. The client's reconnect loop
  // rides out the ENOENT window; the rebind lands on a daemon that never
  // issued the token, exercising unknown-token adoption.
  std::atomic<bool> watcher_stop{false};
  std::thread watcher;
  if (opt.restart_daemon_mid_run) {
    watcher = std::thread([&] {
      for (;;) {
        // Order matters: test the outage before the stop flag, so a plan
        // that guarantees an outage yields exactly one restart even when
        // the run finishes faster than a watcher tick (the restart then
        // lands during teardown, which recovery absorbs the same way).
        const bool stop = watcher_stop.load(std::memory_order_relaxed);
        if (client->stats().outages.load(std::memory_order_relaxed) >= 1) {
          accumulate(rep.stats, daemon->stats());
          daemon.reset();  // unlinks the socket; destroy fully before reuse
          DaemonOptions d2 = dopt;
          d2.fault_plan = WireFaultPlan{};
          daemon = std::make_unique<Daemon>(d2);
          daemon->start();
          rep.stats.daemon_restarts += 1;
          return;
        }
        if (stop) return;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
  }

  net::Transcript wire_tr;
  {
    std::unique_ptr<WireSession> session = client->open(c.n, c.t);
    adv::ExecHooks hooks;
    hooks.transcript = &wire_tr;
    hooks.router = session.get();
    rep.wired = adv::execute_case(c, hooks);
  }

  watcher_stop.store(true, std::memory_order_relaxed);
  if (watcher.joinable()) watcher.join();
  accumulate(rep.stats, client->stats());
  client.reset();  // orderly close before the daemon goes down
  accumulate(rep.stats, daemon->stats());
  daemon.reset();

  compare_runs(rep.plain, plain_tr, rep.wired, wire_tr, rep);
  // The give-up contract: a non-identical run is acceptable only when it
  // *resolved* into per-party outcomes rather than terminating with
  // different bits. Every run reports outcomes, so not terminating is
  // what resolving means.
  rep.structured = !rep.identical && !rep.wired.terminated;
  return rep;
}

// ---------------------------------------------------------------------------
// Reproducer files (schema coca-wirechaos-v1).

std::string wire_chaos_to_json(const adv::CorpusEntry& entry,
                               const WireFaultPlan& plan) {
  const auto trim = [](std::string s) {
    while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) s.pop_back();
    return s;
  };
  std::ostringstream os;
  os << "{\n\"schema\": \"coca-wirechaos-v1\",\n\"entry\": "
     << trim(adv::to_json(entry)) << ",\n\"wire_faults\": "
     << trim(to_json(plan)) << "\n}\n";
  return os.str();
}

WireChaosCase wire_chaos_from_json(std::string_view text) {
  json::Reader r(text, "wire-chaos JSON");
  WireChaosCase out;
  bool saw_schema = false;
  bool saw_entry = false;
  bool saw_plan = false;
  r.members([&](const std::string& key) {
    if (key == "schema") {
      const std::string schema = r.string();
      if (schema != "coca-wirechaos-v1") {
        r.fail("unknown schema '" + schema + "'");
      }
      saw_schema = true;
    } else if (key == "entry") {
      out.entry = adv::read_corpus_entry(r);
      saw_entry = true;
    } else if (key == "wire_faults") {
      out.plan = read_wire_fault_plan(r);
      saw_plan = true;
    } else {
      r.fail("unknown key '" + key + "'");
    }
  });
  if (!r.at_end()) r.fail("trailing bytes");
  if (!saw_schema) r.fail("missing schema");
  if (!saw_entry) r.fail("missing 'entry' object");
  if (!saw_plan) r.fail("missing 'wire_faults' object");
  return out;
}

}  // namespace coca::svc

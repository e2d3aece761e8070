// WireNetwork: the round-synchronizer of the service runtime.
//
// Presents the unchanged `SyncNetwork` party-facing interface -- the same
// setters, the same run()/run_report() -- while every delivered round
// crosses the daemon's socket: construction opens an agreement session on
// a `WireClient` connection and installs it as the underlying network's
// `RoundRouter`. Protocol code, SendTap adversaries, FaultPlans,
// transcripts, tracers, and RoundObservers all work unmodified, because
// they *are* unmodified: the protocols run against the same engine; only
// the transport under the round barrier changed. The wire-conformance
// suite (tests/test_wire_conformance.cpp) pins runs through here
// bit-identical to in-process SyncNetwork runs.
//
// Failure semantics: a transport failure (daemon death, idle-timeout
// kError, round-barrier timeout) ends the run with structured outcomes --
// run_report() marks unfinished parties TimedOut and sets
// `RunReport::transport_failed`; strict run() throws with the reason.
#pragma once

#include <memory>

#include "net/sync_network.h"
#include "svc/client.h"

namespace coca::svc {

class WireNetwork {
 public:
  /// Opens a session for `n` parties (threshold `t`) on `client`, which
  /// must outlive this object. Throws if the daemon refuses the session.
  WireNetwork(int n, int t, WireClient& client)
      : net_(n, t), session_(client.open(n, t)) {
    net_.set_round_router(session_.get());
  }

  // ---- The SyncNetwork party-facing surface, forwarded verbatim.
  using ProtocolFn = net::SyncNetwork::ProtocolFn;

  void set_honest(int id, ProtocolFn fn) {
    net_.set_honest(id, std::move(fn));
  }
  void set_byzantine(int id,
                     std::shared_ptr<net::ByzantineStrategy> strategy) {
    net_.set_byzantine(id, std::move(strategy));
  }
  void set_byzantine_protocol(int id, ProtocolFn fn) {
    net_.set_byzantine_protocol(id, std::move(fn));
  }
  void set_byzantine_protocol(int id, ProtocolFn fn,
                              std::shared_ptr<net::SendTap> tap) {
    net_.set_byzantine_protocol(id, std::move(fn), std::move(tap));
  }
  void set_split_brain(int id, ProtocolFn a, ProtocolFn b,
                       std::set<int> recipients_of_a) {
    net_.set_split_brain(id, std::move(a), std::move(b),
                         std::move(recipients_of_a));
  }
  void set_fault_plan(net::FaultPlan plan) {
    net_.set_fault_plan(std::move(plan));
  }
  void set_transcript(net::Transcript* sink) { net_.set_transcript(sink); }
  void set_round_observer(net::RoundObserver* observer) {
    net_.set_round_observer(observer);
  }
  void set_tracer(obs::Tracer* tracer) { net_.set_tracer(tracer); }

  net::RunStats run(std::size_t max_rounds =
                        net::SyncNetwork::kDefaultMaxRounds) {
    return net_.run(max_rounds);
  }
  net::RunReport run_report(std::size_t max_rounds =
                                net::SyncNetwork::kDefaultMaxRounds) {
    return net_.run_report(max_rounds);
  }

  int n() const { return net_.n(); }
  int t() const { return net_.t(); }

  /// The wire session carrying this network's rounds (diagnostics).
  WireSession& session() { return *session_; }
  /// Escape hatch to the underlying engine.
  net::SyncNetwork& net() { return net_; }

 private:
  net::SyncNetwork net_;
  std::unique_ptr<WireSession> session_;
};

}  // namespace coca::svc

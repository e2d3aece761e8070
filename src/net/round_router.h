// Transport seam of the round engine: where a delivered round leaves the
// process.
//
// `SyncNetwork::deliver_round` merges all staged outboxes into one
// canonically ordered message list (sender id, send sequence within a
// sender, a broadcast as one message per recipient in recipient order) and
// then -- when a RoundRouter is installed -- hands that list to the router
// before anything downstream observes it. The router carries the round across a transport (the
// service runtime sends every message through the epoll daemon over
// UDS/TCP, see src/svc) and returns the delivered list; the transcript,
// the recipient inboxes, and the per-round observer all consume the
// *returned* payloads. A null router (the default) is the identity: the
// in-memory simulator path is bit-identical to pre-seam builds.
//
// Contract:
//  * route() must return the messages in the same order with the same
//    (from, to) pairs and equal payload bytes; the engine `ensure`s the
//    order/addressing and the wire-conformance tier-1 suite pins byte
//    equality end to end (transcripts are content-compared against a
//    simulator run of the same seed).
//  * route() is called from the controller's execution context at the
//    round barrier, exactly once per delivered round (the trailing
//    leftover flush -- sends staged after the last advance(), consumed by
//    nobody -- is transcript bookkeeping and is not routed).
//  * On transport failure route() returns nullopt and the engine ends the
//    run the way a round-cap hit does: run_report() marks still-running
//    parties TimedOut and sets RunReport::transport_failed (never hangs,
//    never throws); strict run() throws Error with the router's reason.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "net/payload.h"

namespace coca::net {

/// One canonically-ordered wire message of a delivered round.
struct WireMessage {
  int from = -1;
  int to = -1;
  Payload payload;
};

class RoundRouter {
 public:
  virtual ~RoundRouter() = default;

  /// Carries round `round`'s merged messages across the transport and
  /// returns the delivered list (same order/addressing, payloads
  /// re-materialized from the wire), or nullopt on transport failure.
  virtual std::optional<std::vector<WireMessage>> route(
      std::size_t round, std::vector<WireMessage> staged) = 0;

  /// Human-readable reason for the most recent nullopt.
  virtual std::string failure_reason() const { return "transport failure"; }
};

}  // namespace coca::net

// Former scheduling policy of the SyncNetwork round engine. The engine now
// runs every party as a fiber on one thread in canonical order, so there is
// nothing left to choose. Kept only because perfbench/ still names
// `ExecPolicy::serial()`; delete it with the next benchmark change.
#pragma once

namespace coca::net {

struct ExecPolicy {
  static ExecPolicy serial() { return {}; }
};

}  // namespace coca::net

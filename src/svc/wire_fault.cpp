#include "svc/wire_fault.h"

#include <sstream>

#include "util/json.h"
#include "util/rng.h"

namespace coca::svc {

bool daemon_site(WireFaultPlan::Kind kind) {
  switch (kind) {
    case WireFaultPlan::Kind::kKillBeforeFlush:
    case WireFaultPlan::Kind::kKillAfterFlush:
    case WireFaultPlan::Kind::kDelayFlush:
    case WireFaultPlan::Kind::kStallRead:
    case WireFaultPlan::Kind::kTruncateFrame:
      return true;
    case WireFaultPlan::Kind::kClientKill:
    case WireFaultPlan::Kind::kClientPartialWrite:
      return false;
  }
  throw Error("daemon_site: unknown wire fault kind");
}

const char* to_string(WireFaultPlan::Kind kind) {
  switch (kind) {
    case WireFaultPlan::Kind::kKillBeforeFlush:
      return "kill_before_flush";
    case WireFaultPlan::Kind::kKillAfterFlush:
      return "kill_after_flush";
    case WireFaultPlan::Kind::kDelayFlush:
      return "delay_flush";
    case WireFaultPlan::Kind::kStallRead:
      return "stall_read";
    case WireFaultPlan::Kind::kTruncateFrame:
      return "truncate_frame";
    case WireFaultPlan::Kind::kClientKill:
      return "client_kill";
    case WireFaultPlan::Kind::kClientPartialWrite:
      return "client_partial_write";
  }
  throw Error("to_string: unknown wire fault kind");
}

std::optional<WireFaultPlan::Kind> wire_fault_kind_from_string(
    std::string_view s) {
  using Kind = WireFaultPlan::Kind;
  for (const Kind k :
       {Kind::kKillBeforeFlush, Kind::kKillAfterFlush, Kind::kDelayFlush,
        Kind::kStallRead, Kind::kTruncateFrame, Kind::kClientKill,
        Kind::kClientPartialWrite}) {
    if (s == to_string(k)) return k;
  }
  return std::nullopt;
}

void WireFaultPlan::validate(std::uint32_t max_stall_ms) const {
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    const std::string at = "WireFaultPlan entry " + std::to_string(i) + ": ";
    const auto raw = static_cast<std::uint8_t>(e.kind);
    if (raw < static_cast<std::uint8_t>(Kind::kKillBeforeFlush) ||
        raw > static_cast<std::uint8_t>(Kind::kClientPartialWrite)) {
      throw Error(at + "unknown kind " + std::to_string(raw));
    }
    if (e.session < -1) {
      throw Error(at + "session ordinal below -1");
    }
    const bool stall =
        e.kind == Kind::kDelayFlush || e.kind == Kind::kStallRead;
    if (stall && e.delay_ms == 0) {
      throw Error(at + "stall kind with zero delay_ms");
    }
    if (stall && e.delay_ms > max_stall_ms) {
      throw Error(at + "delay_ms " + std::to_string(e.delay_ms) +
                  " above the stall cap " + std::to_string(max_stall_ms));
    }
    if (!stall && e.delay_ms != 0) {
      throw Error(at + "delay_ms set on a non-stall kind");
    }
    const bool truncating = e.kind == Kind::kTruncateFrame ||
                            e.kind == Kind::kClientPartialWrite;
    if (!truncating && e.truncate_bytes != 0) {
      throw Error(at + "truncate_bytes set on a non-truncating kind");
    }
  }
}

bool WireFaultPlan::has_daemon_site() const {
  for (const Entry& e : entries) {
    if (daemon_site(e.kind)) return true;
  }
  return false;
}

bool WireFaultPlan::has_client_site() const {
  for (const Entry& e : entries) {
    if (!daemon_site(e.kind)) return true;
  }
  return false;
}

int WireFaultFuse::take(const WireFaultPlan& plan, WireFaultPlan::Kind kind,
                        std::int32_t ordinal, std::uint32_t round) {
  require(fired_.size() == plan.entries.size(),
          "WireFaultFuse::take: fuse built for a different plan");
  for (std::size_t i = 0; i < plan.entries.size(); ++i) {
    if (fired_[i]) continue;
    const WireFaultPlan::Entry& e = plan.entries[i];
    if (e.kind != kind) continue;
    if (e.session != -1 && e.session != ordinal) continue;
    if (e.round != round) continue;
    fired_[i] = true;
    return static_cast<int>(i);
  }
  return -1;
}

WireFaultPlan sample_wire_fault_plan(const WireFaultSampleConfig& cfg) {
  require(cfg.horizon > 0, "sample_wire_fault_plan: empty horizon");
  using Kind = WireFaultPlan::Kind;
  std::vector<Kind> kinds;
  if (cfg.allow_kill) {
    kinds.insert(kinds.end(),
                 {Kind::kKillBeforeFlush, Kind::kKillAfterFlush,
                  Kind::kClientKill});
  }
  if (cfg.allow_stall) {
    kinds.insert(kinds.end(), {Kind::kDelayFlush, Kind::kStallRead});
  }
  if (cfg.allow_truncate) {
    kinds.insert(kinds.end(),
                 {Kind::kTruncateFrame, Kind::kClientPartialWrite});
  }
  WireFaultPlan plan;
  if (kinds.empty() || cfg.max_entries <= 0) return plan;
  Rng rng(cfg.seed);
  const std::size_t count =
      1 + rng.below(static_cast<std::uint64_t>(cfg.max_entries));
  for (std::size_t i = 0; i < count; ++i) {
    WireFaultPlan::Entry e;
    e.kind = kinds[rng.below(kinds.size())];
    e.session = -1;  // any session: plans compose with concurrent harnesses
    e.round = static_cast<std::uint32_t>(rng.below(cfg.horizon));
    if (e.kind == Kind::kDelayFlush || e.kind == Kind::kStallRead) {
      e.delay_ms = 1 + static_cast<std::uint32_t>(
                           rng.below(std::max<std::uint32_t>(cfg.max_stall_ms,
                                                             1)));
    }
    if (e.kind == Kind::kTruncateFrame ||
        e.kind == Kind::kClientPartialWrite) {
      // Offsets hug the interesting seams: inside the first header, at a
      // frame boundary neighbourhood, or deep into the batch.
      e.truncate_bytes = static_cast<std::uint32_t>(rng.below(4096));
    }
    plan.entries.push_back(e);
  }
  return plan;
}

// ---------------------------------------------------------------------------
// JSON (schema coca-wirefault-v1).

std::string to_json(const WireFaultPlan& plan) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"coca-wirefault-v1\",\n  \"entries\": [";
  for (std::size_t i = 0; i < plan.entries.size(); ++i) {
    const WireFaultPlan::Entry& e = plan.entries[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"kind\": \"" << to_string(e.kind)
       << "\", \"session\": " << e.session << ", \"round\": " << e.round
       << ", \"delay_ms\": " << e.delay_ms
       << ", \"truncate_bytes\": " << e.truncate_bytes << "}";
  }
  os << (plan.entries.empty() ? "]\n}\n" : "\n  ]\n}\n");
  return os.str();
}

WireFaultPlan read_wire_fault_plan(json::Reader& r) {
  WireFaultPlan plan;
  bool saw_schema = false;
  r.members([&](const std::string& key) {
    if (key == "schema") {
      const std::string schema = r.string();
      if (schema != "coca-wirefault-v1") {
        r.fail("unknown schema '" + schema + "'");
      }
      saw_schema = true;
    } else if (key == "entries") {
      r.elements([&] {
        WireFaultPlan::Entry& e = plan.entries.emplace_back();
        bool have_kind = false;
        r.members([&](const std::string& field) {
          if (field == "kind") {
            const std::string kind = r.string();
            const auto k = wire_fault_kind_from_string(kind);
            if (!k) r.fail("unknown kind '" + kind + "'");
            e.kind = *k;
            have_kind = true;
          } else if (field == "session") {
            e.session = r.int_in<std::int32_t>(-1);
          } else if (field == "round") {
            e.round = r.int_in<std::uint32_t>();
          } else if (field == "delay_ms") {
            e.delay_ms = r.int_in<std::uint32_t>();
          } else if (field == "truncate_bytes") {
            e.truncate_bytes = r.int_in<std::uint32_t>();
          } else {
            r.fail("unknown entry field '" + field + "'");
          }
        });
        if (!have_kind) r.fail("entry without a kind");
      });
    } else {
      r.fail("unknown field '" + key + "'");
    }
  });
  if (!saw_schema) r.fail("missing schema");
  plan.validate();
  return plan;
}

WireFaultPlan wire_fault_plan_from_json(std::string_view text) {
  json::Reader r(text, "wire-fault JSON");
  WireFaultPlan plan = read_wire_fault_plan(r);
  if (!r.at_end()) r.fail("trailing bytes");
  return plan;
}

}  // namespace coca::svc

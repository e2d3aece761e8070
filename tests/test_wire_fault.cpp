// WireFaultPlan (svc/wire_fault.h): schema validation, JSON round trip,
// one-shot fuse semantics, site mapping, and sampler determinism.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "svc/wire_fault.h"

namespace coca::svc {
namespace {

using Kind = WireFaultPlan::Kind;

const std::vector<Kind> kAllKinds = {
    Kind::kKillBeforeFlush, Kind::kKillAfterFlush,  Kind::kDelayFlush,
    Kind::kStallRead,       Kind::kTruncateFrame,   Kind::kClientKill,
    Kind::kClientPartialWrite,
};

WireFaultPlan::Entry entry(Kind k, std::int32_t session, std::uint32_t round) {
  WireFaultPlan::Entry e;
  e.kind = k;
  e.session = session;
  e.round = round;
  if (k == Kind::kDelayFlush || k == Kind::kStallRead) e.delay_ms = 5;
  if (k == Kind::kTruncateFrame || k == Kind::kClientPartialWrite) {
    e.truncate_bytes = 17;
  }
  return e;
}

TEST(WireFault, KindStringsRoundTrip) {
  for (const Kind k : kAllKinds) {
    const auto back = wire_fault_kind_from_string(to_string(k));
    ASSERT_TRUE(back.has_value()) << to_string(k);
    EXPECT_EQ(*back, k);
  }
  EXPECT_FALSE(wire_fault_kind_from_string("nope").has_value());
  EXPECT_FALSE(wire_fault_kind_from_string("").has_value());
}

TEST(WireFault, SiteMapping) {
  EXPECT_TRUE(daemon_site(Kind::kKillBeforeFlush));
  EXPECT_TRUE(daemon_site(Kind::kKillAfterFlush));
  EXPECT_TRUE(daemon_site(Kind::kDelayFlush));
  EXPECT_TRUE(daemon_site(Kind::kStallRead));
  EXPECT_TRUE(daemon_site(Kind::kTruncateFrame));
  EXPECT_FALSE(daemon_site(Kind::kClientKill));
  EXPECT_FALSE(daemon_site(Kind::kClientPartialWrite));

  WireFaultPlan plan;
  EXPECT_FALSE(plan.has_daemon_site());
  EXPECT_FALSE(plan.has_client_site());
  plan.entries.push_back(entry(Kind::kClientKill, -1, 0));
  EXPECT_FALSE(plan.has_daemon_site());
  EXPECT_TRUE(plan.has_client_site());
  plan.entries.push_back(entry(Kind::kStallRead, -1, 1));
  EXPECT_TRUE(plan.has_daemon_site());
}

TEST(WireFault, ValidateRejectsMalformedEntries) {
  const auto must_throw = [](WireFaultPlan::Entry e) {
    WireFaultPlan plan;
    plan.entries.push_back(e);
    EXPECT_THROW(plan.validate(), Error);
  };
  {  // unknown kind byte
    WireFaultPlan::Entry e;
    e.kind = static_cast<Kind>(200);
    must_throw(e);
  }
  {  // session below -1
    auto e = entry(Kind::kKillBeforeFlush, -2, 0);
    must_throw(e);
  }
  {  // stall with zero delay
    auto e = entry(Kind::kStallRead, -1, 0);
    e.delay_ms = 0;
    must_throw(e);
  }
  {  // stall beyond the cap
    auto e = entry(Kind::kDelayFlush, -1, 0);
    e.delay_ms = 60'000;
    must_throw(e);
  }
  {  // delay on a non-stall kind
    auto e = entry(Kind::kKillAfterFlush, -1, 0);
    e.delay_ms = 10;
    must_throw(e);
  }
  {  // truncate bytes on a non-truncating kind
    auto e = entry(Kind::kClientKill, -1, 0);
    e.truncate_bytes = 3;
    must_throw(e);
  }
  // And a fully-populated valid plan passes.
  WireFaultPlan ok;
  for (const Kind k : kAllKinds) ok.entries.push_back(entry(k, -1, 3));
  EXPECT_NO_THROW(ok.validate());
}

TEST(WireFault, JsonRoundTripsEveryKind) {
  WireFaultPlan plan;
  std::uint32_t round = 0;
  for (const Kind k : kAllKinds) {
    plan.entries.push_back(entry(k, (round % 2 == 0) ? -1 : 2, round));
    ++round;
  }
  const std::string json = to_json(plan);
  EXPECT_NE(json.find("coca-wirefault-v1"), std::string::npos);
  const WireFaultPlan back = wire_fault_plan_from_json(json);
  EXPECT_EQ(back, plan);

  // Empty plan round-trips too.
  EXPECT_EQ(wire_fault_plan_from_json(to_json(WireFaultPlan{})),
            WireFaultPlan{});
}

TEST(WireFault, JsonRejectsMalformedInput) {
  EXPECT_THROW(wire_fault_plan_from_json("{}"), Error);  // no schema
  EXPECT_THROW(wire_fault_plan_from_json(
                   R"({"schema": "coca-wirefault-v2", "entries": []})"),
               Error);
  EXPECT_THROW(wire_fault_plan_from_json(
                   R"({"schema": "coca-wirefault-v1", "bogus": 1})"),
               Error);
  EXPECT_THROW(
      wire_fault_plan_from_json(
          R"({"schema": "coca-wirefault-v1",
              "entries": [{"kind": "made_up", "round": 0}]})"),
      Error);
  // Entries are validated after parse: a structurally fine but semantically
  // bad plan (zero-length stall) is rejected too.
  EXPECT_THROW(
      wire_fault_plan_from_json(
          R"({"schema": "coca-wirefault-v1",
              "entries": [{"kind": "stall_read", "round": 0}]})"),
      Error);
  // Integers are range-checked against their fields, never wrapped: 2^32-1
  // is not session -1 ("any"), -1 is not round 2^32-1, and a 2^32 delay does
  // not truncate to 0 and slip past the non-stall check.
  const auto kill_entry = [](const char* field) {
    return wire_fault_plan_from_json(
        std::string(R"({"schema": "coca-wirefault-v1",
            "entries": [{"kind": "kill_after_flush", )") +
        field + "}]}");
  };
  EXPECT_EQ(kill_entry(R"("round": 4294967295)").entries.at(0).round,
            4294967295u);  // in range: the control case
  EXPECT_THROW(kill_entry(R"("session": 4294967295)"), Error);
  EXPECT_THROW(kill_entry(R"("round": -1)"), Error);
  EXPECT_THROW(kill_entry(R"("delay_ms": 4294967296)"), Error);
  // Escapes decode per JSON: the unknown kind is quoted back with its \n
  // decoded to a newline, not to the letter n.
  try {
    (void)wire_fault_plan_from_json(
        R"({"schema": "coca-wirefault-v1",
            "entries": [{"kind": "kill\nx", "round": 0}]})");
    ADD_FAILURE() << "unknown kind accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'kill\nx'"), std::string::npos)
        << e.what();
  }
}

TEST(WireFault, FuseFiresEachEntryExactlyOnce) {
  WireFaultPlan plan;
  plan.entries.push_back(entry(Kind::kKillBeforeFlush, -1, 3));
  plan.entries.push_back(entry(Kind::kKillBeforeFlush, -1, 3));  // twin
  plan.entries.push_back(entry(Kind::kKillAfterFlush, 1, 5));
  WireFaultFuse fuse(plan);

  // Wrong kind / round / ordinal: no firing.
  EXPECT_EQ(fuse.take(plan, Kind::kKillAfterFlush, 0, 3), -1);
  EXPECT_EQ(fuse.take(plan, Kind::kKillBeforeFlush, 0, 4), -1);
  EXPECT_EQ(fuse.take(plan, Kind::kKillAfterFlush, 0, 5), -1);  // ordinal 1

  // Twin entries burn in order, then the kind is spent at that round.
  EXPECT_EQ(fuse.take(plan, Kind::kKillBeforeFlush, 0, 3), 0);
  EXPECT_EQ(fuse.take(plan, Kind::kKillBeforeFlush, 7, 3), 1);
  EXPECT_EQ(fuse.take(plan, Kind::kKillBeforeFlush, 0, 3), -1);

  // Pinned ordinal matches only itself.
  EXPECT_EQ(fuse.take(plan, Kind::kKillAfterFlush, 1, 5), 2);
  EXPECT_EQ(fuse.take(plan, Kind::kKillAfterFlush, 1, 5), -1);

  // A fuse built for a different plan is a programming error.
  WireFaultFuse wrong;
  EXPECT_THROW(wrong.take(plan, Kind::kKillBeforeFlush, 0, 3), Error);
}

TEST(WireFault, SamplerIsDeterministicAndValid) {
  WireFaultSampleConfig cfg;
  cfg.seed = 42;
  cfg.horizon = 9;
  cfg.max_entries = 5;
  const WireFaultPlan a = sample_wire_fault_plan(cfg);
  const WireFaultPlan b = sample_wire_fault_plan(cfg);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
  EXPECT_NO_THROW(a.validate());
  for (const auto& e : a.entries) {
    EXPECT_LT(e.round, cfg.horizon);
    EXPECT_EQ(e.session, -1);
  }
  cfg.seed = 43;
  EXPECT_NE(sample_wire_fault_plan(cfg), a);  // the stream actually moves

  // Kind gates hold.
  cfg.allow_kill = false;
  cfg.allow_truncate = false;
  const WireFaultPlan stalls = sample_wire_fault_plan(cfg);
  for (const auto& e : stalls.entries) {
    EXPECT_TRUE(e.kind == Kind::kDelayFlush || e.kind == Kind::kStallRead);
  }
  cfg.allow_stall = false;
  EXPECT_TRUE(sample_wire_fault_plan(cfg).empty());
}

}  // namespace
}  // namespace coca::svc
